// The repo benchmark program.
//
//   perfbench --workload storm|net4096|fft2d --seed N --seconds S --trace 0|1
//            [--out DIR]
//
// Untraced (--trace 0): one warm-up repetition on the neighbouring seed
// N+1, then repetitions on seed N until S seconds of wall time have
// passed (at least kMinReps).  Host metrics are medians over those
// repetitions; virtual-time metrics must repeat exactly across them and
// must differ from the warm-up's (the determinism self-check).
//
// Traced (--trace 1): the same, with half the time untraced and half
// traced (spans around each layer entry, counter timeline on).  Prints
// the per-layer metrics; the trace files go to DIR.
//
// The last stdout line is the JSON result perfbench/run.py relays.  The
// exit status is 1 when any output check or the self-check failed.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr std::size_t kMinReps = 3;
constexpr int kSetupOnlyPerRep = 3;
// Individually kept spans per name in the traced run; the per-name totals
// cover every span.
constexpr std::size_t kKeptSpans = 20'000;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks names and units).
constexpr MetricSpec kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
    {"vt_p50_us", "sim_us"},
    {"vt_p99_us", "sim_us"},
    {"vt_span_ms", "sim_ms"},
    {"frames_per_sim_s", "frames/sim_s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns/event"},
    {"sim.events_per_drain", "ratio"},
    {"sim.heap_insert_share", "ratio"},
    {"sim.cpu_ctx_switches", "count"},
    {"sim.cpu_preemptions", "count"},
    {"hw.frames_forwarded", "count"},
    {"hw.hops_per_frame", "ratio"},
    {"hw.hol_blocked_ms", "sim_ms"},
    {"hw.link_peak_buffered", "frames"},
    {"hw.mcast_copies", "count"},
    {"hw.frames_dropped", "count"},
    {"hw.route_kb", "KB"},
    {"hw.host_ns_per_forward", "ns/frame"},
    {"hw.inject_late_p99_us", "sim_us"},
    {"hw.inject_backlog", "flag"},
    {"hw.pool_payloads_made", "count"},
    {"hw.pool_recycle_ratio", "ratio"},
    {"hw.pool_peak_live", "count"},
    {"vorx.kernel_frames_sent", "count"},
    {"vorx.kernel_tx_blocked_ms", "sim_ms"},
    {"vorx.kernel_peak_txq", "frames"},
    {"vorx.rx_resumes_per_irq", "ratio"},
    {"vorx.mcast_frames_forwarded", "count"},
    {"vorx.cpu_user_ms", "sim_ms"},
    {"vorx.cpu_system_ms", "sim_ms"},
    {"vorx.cpu_ctxsw_ms", "sim_ms"},
    {"vorx.cpu_idle_input_ms", "sim_ms"},
    {"vorx.cpu_idle_output_ms", "sim_ms"},
    {"vorx.alloc_attempts_per_session", "ratio"},
    {"vorx.alloc_timeouts", "count"},
    {"vorx.reinvite_rounds", "count"},
    {"vorx.delivery_p99_us", "sim_us"},
    {"vorx.frames_unaccounted", "count"},
    {"vorx.read_amplification", "ratio"},
    {"apps.fft_serial_s", "s"},
    {"apps.exchange_share", "ratio"},
    {"host.build_s", "s"},
    {"host.gen_s", "s"},
    {"host.teardown_s", "s"},
    {"host.run_wall_s", "s"},
    {"host.wall_over_cpu", "ratio"},
    {"trace.overhead_s", "s"},
};

// Deterministic results that fingerprint a run but are not reported.
constexpr const char* kFingerprintPrefix = "fp.";

const MetricSpec* find_spec(const std::string& name) {
  for (const MetricSpec& m : kEndToEnd) {
    if (name == m.name) return &m;
  }
  for (const MetricSpec& m : kPerLayer) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload storm|net4096|fft2d --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const Rep& r : reps) v.push_back(f(r));
  return v;
}

struct Samples {
  std::vector<Rep> reps;
  std::vector<double> setup_s;  // build + gen, full and setup-only reps
};

/// Runs repetitions on `seed` until `budget_s` of wall time has passed,
/// each followed by `setup_only` set-up-and-teardown cycles that only add
/// set-up samples (set-up is short, so its median needs more of them).
Samples run_for(Workload w, std::uint64_t seed, double budget_s,
                const TraceSink& first, const TraceSink& rest,
                int setup_only) {
  Samples out;
  const double t0 = wall_s();
  while (out.reps.size() < kMinReps || wall_s() - t0 < budget_s) {
    out.reps.push_back(run_rep(w, seed, out.reps.empty() ? first : rest));
    out.setup_s.push_back(out.reps.back().build_s + out.reps.back().gen_s);
    for (int i = 0; i < setup_only; ++i) {
      const Rep r = run_rep(w, seed, TraceSink{}, false);
      out.setup_s.push_back(r.build_s + r.gen_s);
    }
  }
  return out;
}

void print_quartiles(const char* label, const std::vector<double>& v) {
  const double q1 = quantile(v, 0.25), q2 = median(v), q3 = quantile(v, 0.75);
  std::printf("%s: reps=%zu min=%.6f q1=%.6f median=%.6f q3=%.6f max=%.6f "
              "iqr/median=%.2f%%\n",
              label, v.size(), *std::min_element(v.begin(), v.end()), q1, q2,
              q3, *std::max_element(v.begin(), v.end()),
              q2 > 0 ? 100.0 * (q3 - q1) / q2 : 0.0);
  std::printf("  in run order:");
  for (const double x : v) std::printf(" %.4f", x);
  std::printf("\n");
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  std::string out_dir = ".bench_build/trace";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload_name = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(val);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else if (flag == "--out") {
      out_dir = val;
    } else {
      return usage();
    }
  }
  const auto workload = parse_workload(workload_name);
  if (argc % 2 != 1 || !workload || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const Workload w = *workload;

  std::vector<std::string> errors;
  auto take_errors = [&errors](const Rep& r) {
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  };

  // Warm-up on the neighbouring seed: fills the allocator and caches, and
  // is the "a second seed changes the results" half of the self-check.
  const Rep warm = run_rep(w, seed + 1, TraceSink{});
  take_errors(warm);

  const Samples untraced = run_for(w, seed, trace == 1 ? seconds / 2 : seconds,
                                  {}, {}, kSetupOnlyPerRep);
  const std::vector<Rep>& reps = untraced.reps;
  const Rep& ref = reps.front();
  bool same = true;
  for (const Rep& r : reps) {
    take_errors(r);
    same = same && r.det == ref.det;
  }
  if (!same) {
    errors.push_back("self-check: two runs with seed " + std::to_string(seed) +
                     " differ");
  }
  if (warm.det == ref.det) {
    errors.push_back("self-check: seeds " + std::to_string(seed) + " and " +
                     std::to_string(seed + 1) + " give identical results");
  }

  // Traced repetitions: same seed, spans and counter tracks on.
  Tracer tracer(kKeptSpans);
  std::vector<Rep> traced;
  std::string spans_path, counters_path;
  if (trace == 1) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string stem =
        out_dir + "/" + workload_name + "-seed" + std::to_string(seed);
    spans_path = stem + ".spans.json";
    counters_path = stem + ".counters.json";
    traced = run_for(w, seed, seconds / 2, TraceSink{&tracer, counters_path},
                     TraceSink{&tracer, ""}, 0)
                 .reps;
    bool unperturbed = true;
    for (const Rep& r : traced) {
      take_errors(r);
      unperturbed = unperturbed && r.det == ref.det;
    }
    if (!unperturbed) {
      errors.push_back("self-check: tracing changed the simulated results");
    }
    if (!write_text(spans_path, tracer.to_json())) {
      errors.push_back("cannot write " + spans_path);
    }
  }

  // ---- report ---------------------------------------------------------------
  const auto run_s = collect(reps, [](const Rep& r) { return r.run_s; });
  const std::vector<double>& setup_s = untraced.setup_s;
  std::printf("workload %s seed %" PRIu64 " (self-check seed %" PRIu64 ")\n",
              workload_name.c_str(), seed, seed + 1);
  print_quartiles("run_s (thread CPU, untraced)", run_s);
  print_quartiles("setup_s (thread CPU, untraced)", setup_s);
  std::printf("latency samples per rep: %" PRIu64 "\n", ref.latency_samples);

  std::vector<std::pair<std::string, double>> metrics;
  if (trace == 0) {
    metrics.emplace_back("run_s", median(run_s));
    metrics.emplace_back("setup_s", median(setup_s));
    metrics.emplace_back("peak_rss_mb", peak_rss_mb());
    for (const char* k : {"ok_ratio", "vt_p50_us", "vt_p99_us", "vt_span_ms",
                          "frames_per_sim_s"}) {
      metrics.emplace_back(k, ref.get(k));
    }
  } else {
    const auto traced_run_s =
        collect(traced, [](const Rep& r) { return r.run_s; });
    print_quartiles("run_s (thread CPU, traced)", traced_run_s);
    const double cpu = median(run_s);
    auto host = [&](double Rep::*field) {
      return median(collect(reps, [field](const Rep& r) { return r.*field; }));
    };
    for (const auto& [k, v] : ref.det) {
      if (find_spec(k) == nullptr && k.rfind(kFingerprintPrefix, 0) != 0) {
        errors.push_back("internal: unlisted metric " + k);
      }
    }
    for (const MetricSpec& m : kPerLayer) {
      const std::string k = m.name;
      double v = ref.get(k);
      if (k == "sim.host_ns_per_event") {
        v = 1e9 * cpu / std::max(1.0, ref.get("sim.events"));
      } else if (k == "hw.host_ns_per_forward") {
        v = 1e9 * cpu / std::max(1.0, ref.get("hw.frames_forwarded"));
      } else if (k == "apps.fft_serial_s") {
        v = host(&Rep::fft_serial_s);
      } else if (k == "host.build_s") {
        v = host(&Rep::build_s);
      } else if (k == "host.gen_s") {
        v = host(&Rep::gen_s);
      } else if (k == "host.teardown_s") {
        v = host(&Rep::teardown_s);
      } else if (k == "host.run_wall_s") {
        v = host(&Rep::run_wall_s);
      } else if (k == "host.wall_over_cpu") {
        v = median(collect(reps, [](const Rep& r) {
          return r.run_s > 0 ? r.run_wall_s / r.run_s : 0;
        }));
      } else if (k == "trace.overhead_s") {
        v = median(traced_run_s) - cpu;
      }
      metrics.emplace_back(k, v);
    }
    std::printf("spans (host wall clock; self = minus child spans):\n");
    for (const Tracer::Totals& t : tracer.totals()) {
      std::printf("  %-18s count=%-9" PRIu64 " total_ms=%-12.3f self_ms=%.3f\n",
                  t.name, t.count, static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6);
    }
    std::printf("trace files: %s %s\n", spans_path.c_str(),
                counters_path.c_str());
  }

  for (const auto& [k, v] : metrics) {
    std::printf("%-34s %-16.6f %s\n", k.c_str(), v, find_spec(k)->unit);
  }
  if (w == Workload::kFft2d) {
    std::printf("read amplification %.2f (paper §4.2: multicast makes each "
                "node read ~p = 32 times the data it needs)\n",
                ref.get("vorx.read_amplification"));
  }
  if (w == Workload::kStorm) {
    std::printf("storm data frames with no recorded fate: %.0f "
                "(known gap, reported as vorx.frames_unaccounted)\n",
                ref.get("vorx.frames_unaccounted"));
  }
  if (ref.get("hw.inject_backlog") != 0) {
    std::printf("FLAG: generator lateness grows over the run "
                "(offered load past the knee)\n");
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
  }
  for (const Rep& r : traced) {
    attempted += r.attempted;
    failed += r.failed;
  }
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [k, v] = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + k + "\": {\"value\": " +
            json_number(v) + ", \"unit\": \"" + find_spec(k)->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}
