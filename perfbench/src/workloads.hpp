// The three benchmark workloads.  Each call builds a fresh machine, runs
// one repetition to completion, verifies the program's outputs, tears the
// machine down, and returns what was measured.  See perfbench/README.md
// for why each workload was chosen and what every metric means.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

enum class Workload { kStorm, kNet4096, kFft2d };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);

/// One repetition.
struct Rep {
  // Host clock: thread CPU seconds per phase, plus the run's wall time.
  double build_s = 0;
  double gen_s = 0;
  double run_s = 0;
  double run_wall_s = 0;
  double teardown_s = 0;
  double fft_serial_s = 0;  // fft2d only: one serial apps::fft2d call

  // Deterministic results, in a fixed order: end-to-end virtual-time
  // metrics, ok_ratio and every layer count.  Two repetitions with the
  // same seed must produce exactly equal vectors.
  std::vector<std::pair<std::string, double>> det;

  std::uint64_t attempted = 0;  // operations offered
  std::uint64_t failed = 0;     // operations that did not succeed
  std::uint64_t latency_samples = 0;
  std::vector<std::string> errors;  // failed output checks

  void put(std::string name, double value) {
    det.emplace_back(std::move(name), value);
  }
  [[nodiscard]] double get(const std::string& name) const;
};

/// Tracing of one repetition: spans go to `tracer` (null: untraced) and,
/// when `counters_path` is set, the counter tracks to that file.
struct TraceSink {
  Tracer* tracer = nullptr;
  std::string counters_path;
};

/// Builds the machine, generates the inputs for `seed`, and, when `run`
/// is set, runs and verifies; always tears down.  A setup-only repetition
/// (run == false) only samples the set-up and teardown times.
[[nodiscard]] Rep run_rep(Workload w, std::uint64_t seed,
                          const TraceSink& trace, bool run = true);

}  // namespace perfbench
