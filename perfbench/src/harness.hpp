// Measurement plumbing for the repo benchmark: the two host clocks, order
// statistics, and the span recorder of the traced run.
//
// Host time is CPU time of the simulating thread (CLOCK_THREAD_CPUTIME_ID):
// on a shared VM wall time runs well above CPU time when neighbours steal
// the core, while thread CPU time only counts what the simulator itself
// executed.  Wall time is still recorded (host.run_wall_s) so the gap stays
// visible.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Thread CPU seconds since an arbitrary origin.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Monotonic wall seconds since an arbitrary origin.
inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile of `v` by linear interpolation between closest ranks (the
/// "inclusive" method), so medians of even-sized samples average the two
/// middle values.  Precondition: !v.empty().
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Nearest-rank percentile of an integer latency sample (the value at
/// least `q` of the samples do not exceed).  Precondition: !v.empty().
inline std::int64_t nearest_rank(std::vector<std::int64_t>& v, double q) {
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// In-memory span recorder for the traced run.  Spans nest by scope (one
/// thread), so the parent of a span is whatever span is open when it
/// starts.  Every span feeds a per-name total and self time (duration
/// minus the time its children cover); the first `keep_per_name` spans of
/// each name are also kept individually and written out at the end.
class Tracer {
 public:
  explicit Tracer(std::size_t keep_per_name) : keep_(keep_per_name) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void open(const char* name) {
    stack_.push_back(Open{name, now_ns(), 0, -1});
    Totals& t = totals_for(name);
    if (t.kept < keep_) {
      ++t.kept;
      stack_.back().index = static_cast<int>(spans_.size());
      spans_.push_back(Span{name, stack_.back().start_ns, 0,
                            parent_index()});
    }
  }

  void close() {
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now_ns() - o.start_ns;
    Totals& t = totals_for(o.name);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.index >= 0) spans_[static_cast<std::size_t>(o.index)].dur_ns = dur;
  }

  struct Totals {
    const char* name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::size_t kept = 0;
  };
  [[nodiscard]] const std::vector<Totals>& totals() const { return totals_; }

  /// Chrome trace_event JSON of the kept spans (host wall clock, µs).
  [[nodiscard]] std::string to_json() const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    int index;  // into spans_, or -1 when only totalled
  };
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    int parent;  // index into spans_, or -1
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  [[nodiscard]] int parent_index() const {
    for (auto it = stack_.rbegin() + 1; it < stack_.rend(); ++it) {
      if (it->index >= 0) return it->index;
    }
    return -1;
  }
  Totals& totals_for(const char* name) {
    for (Totals& t : totals_) {
      if (std::strcmp(t.name, name) == 0) return t;
    }
    totals_.push_back(Totals{name});
    return totals_.back();
  }

  std::size_t keep_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::vector<Totals> totals_;
};

inline std::string Tracer::to_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, i, s.parent);
    os << buf;
  }
  os << "]}\n";
  return os.str();
}

/// RAII span; a null tracer makes it free apart from one branch.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t) {
    if (t_ != nullptr) t_->open(name);
  }
  ~Scope() {
    if (t_ != nullptr) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
