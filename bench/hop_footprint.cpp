// Footprint diagnostic for the fabric hop (EXPERIMENTS.md "Frame store").
//
// Is the per-forward host cost of the hw layer set by the work per hop or
// by the memory the fabric spans?  This drives identical traffic per
// station on adaptive-routed hypercubes of 256, 1024 and 4096 stations
// (4 stations per 16-port cluster, as perfbench net4096), and on K
// independent 256-station fabrics interleaved on one Simulator: the same
// work per forward as one 256-station fabric with K times the footprint.
// Each station sends 32 frames of 256 payload bytes at due times drawn
// uniformly over 25.6 ms of virtual time, half to its bit-reversal
// partner and half to uniform destinations in its own fabric.
//
// For each row it prints the heap the built fabrics hold (glibc
// mallinfo2, before any traffic), the forwards per repetition and the
// median host nanoseconds per forward over the repetitions (fabrics built
// afresh each time, run() timed with steady_clock).  Not part of run_all:
// it is a diagnostic, not a paper artifact.
//
//   cmake --build build --target hop_footprint && build/bench/hop_footprint
//   build/bench/hop_footprint --reps 5
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "hw/fabric.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace hpcvorx;

namespace {

constexpr int kFramesPerStation = 32;
constexpr sim::Duration kHorizon = sim::usec(800) * kFramesPerStation;
constexpr std::uint32_t kPayloadBytes = 256;

int bit_reverse(int v, int bits) {
  int out = 0;
  for (int b = 0; b < bits; ++b) {
    if ((v >> b) & 1) out |= 1 << (bits - 1 - b);
  }
  return out;
}

std::size_t heap_in_use() { return mallinfo2().uordblks; }

/// One fabric plus its open-loop senders.
class Machine {
 public:
  Machine(sim::Simulator& sim, int stations, std::uint64_t seed)
      : sim_(sim), stations_(stations) {
    hw::FabricParams params;
    params.routing = hw::RoutingMode::kAdaptive;
    params.ports_per_cluster = 16;
    const std::size_t heap0 = heap_in_use();
    fab_ = hw::Fabric::hypercube(sim, stations, 4, params);
    fabric_bytes_ = heap_in_use() - heap0;
    int bits = 0;
    while ((1 << bits) < stations) ++bits;
    sim::Rng rng(seed);
    due_.resize(static_cast<std::size_t>(stations));
    next_.assign(static_cast<std::size_t>(stations), 0);
    armed_.assign(static_cast<std::size_t>(stations), -1);
    for (int s = 0; s < stations; ++s) {
      auto& q = due_[static_cast<std::size_t>(s)];
      for (int i = 0; i < kFramesPerStation; ++i) {
        int dst = 0;
        if (i % 2 == 0) {
          dst = bit_reverse(s, bits);
          if (dst == s) dst = (s + stations / 2) % stations;
        } else {
          dst = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(stations - 1)));
          if (dst >= s) ++dst;
        }
        q.push_back({static_cast<sim::SimTime>(rng.below(kHorizon)), dst});
      }
      std::sort(q.begin(), q.end(),
                [](const Due& a, const Due& b) { return a.at < b.at; });
    }
  }

  void start() {
    for (int s = 0; s < stations_; ++s) {
      hw::Endpoint& ep = fab_->endpoint(s);
      ep.set_rx_cb([&ep] {
        while (ep.rx_take()) {
        }
      });
      ep.set_tx_ready_cb([this, s] { pump(s); });
      sim_.schedule_at(due_[static_cast<std::size_t>(s)][0].at,
                       [this, s] { pump(s); });
    }
  }

  /// Heap the built fabric held before any traffic.
  [[nodiscard]] std::size_t fabric_bytes() const { return fabric_bytes_; }

  [[nodiscard]] std::uint64_t forwards() const {
    std::uint64_t n = 0;
    for (int c = 0; c < fab_->num_clusters(); ++c) {
      n += fab_->cluster(c).frames_forwarded();
    }
    return n;
  }

 private:
  struct Due {
    sim::SimTime at;
    int dst;
  };

  void pump(int s) {
    const auto su = static_cast<std::size_t>(s);
    hw::Endpoint& ep = fab_->endpoint(s);
    while (next_[su] < due_[su].size() && ep.tx_ready()) {
      const Due& d = due_[su][next_[su]];
      if (sim_.now() < d.at) {
        if (armed_[su] != d.at) {  // one wake-up per due time
          armed_[su] = d.at;
          sim_.schedule_at(d.at, [this, s] { pump(s); });
        }
        return;
      }
      hw::Frame f;
      f.dst = d.dst;
      f.payload_bytes = kPayloadBytes;
      ep.transmit(std::move(f));
      ++next_[su];
    }
  }

  sim::Simulator& sim_;
  int stations_;
  std::size_t fabric_bytes_ = 0;
  std::vector<std::vector<Due>> due_;
  std::vector<std::size_t> next_;
  std::vector<sim::SimTime> armed_;
  std::unique_ptr<hw::Fabric> fab_;  // last: its callbacks point into *this
};

struct Row {
  double built_mb = 0;
  std::uint64_t forwards = 0;
  double ns_per_forward = 0;
};

/// `k` fabrics of `stations` each on one simulator, `reps` fresh runs.
Row measure(int stations, int k, int reps) {
  Row row;
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator sim;
    std::vector<std::unique_ptr<Machine>> machines;
    std::size_t fabric_bytes = 0;
    for (int i = 0; i < k; ++i) {
      machines.push_back(std::make_unique<Machine>(
          sim, stations, 1 + static_cast<std::uint64_t>(i)));
      fabric_bytes += machines.back()->fabric_bytes();
    }
    row.built_mb = static_cast<double>(fabric_bytes) / 1e6;
    for (auto& m : machines) m->start();
    const auto t0 = std::chrono::steady_clock::now();
    sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    row.forwards = 0;
    for (const auto& m : machines) row.forwards += m->forwards();
    ns.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(row.forwards));
  }
  std::sort(ns.begin(), ns.end());
  row.ns_per_forward = ns[ns.size() / 2];
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--reps N]\n", argv[0]);
      return 2;
    }
  }
  std::printf("%-22s %10s %12s %14s\n", "config", "built_MB", "forwards",
              "host_ns/fwd");
  struct Config {
    int stations;
    int k;
  };
  for (const Config c : {Config{256, 1}, Config{1024, 1}, Config{4096, 1},
                         Config{256, 4}, Config{256, 16}}) {
    const Row row = measure(c.stations, c.k, reps);
    char name[32];
    std::snprintf(name, sizeof name, "%dx%d", c.k, c.stations);
    std::printf("%-22s %10.2f %12llu %14.1f\n", name, row.built_mb,
                static_cast<unsigned long long>(row.forwards),
                row.ns_per_forward);
  }
  return 0;
}
