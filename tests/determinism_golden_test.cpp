// Pre-change golden determinism tests for the allocation-free hot path.
//
// The inline-event queue (timing wheel + heap spill), the frame pool, and
// the precomputed routing tables are pure mechanism changes: they must not
// move a single event in virtual time.  These tests pin that down against
// goldens captured from the tree *before* the optimization landed:
//
//   * EventOrder — a scripted torture mix of post()s across near, far,
//     tied, and past times, driven interleaved with pops.  The
//     exact (time, insertion-sequence) firing order is compared against
//     tests/goldens/event_order.golden.txt byte for byte.
//   * TraceExport — a multi-cluster channel-echo workload with interval and
//     counter recording; the rendered Chrome trace (virtual timestamps
//     only) is compared against tests/goldens/echo_trace.golden.json byte
//     for byte, and must also be identical across two runs in-process.
//
// Regenerating (only legitimate after an intentional semantic change):
//   HPCVORX_WRITE_GOLDENS=1 ./build/tests/integration_tests
//       --gtest_filter='DeterminismGolden.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tools/trace_export.hpp"
#include "vorx/multicast.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

namespace hpcvorx {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// When HPCVORX_WRITE_GOLDENS is set, (re)write the golden instead of
// comparing — used once, from the pre-change tree, to mint the files.
bool writing_goldens() { return std::getenv("HPCVORX_WRITE_GOLDENS") != nullptr; }

void check_against_golden(const std::string& name, const std::string& got) {
  const std::string path = golden_path(name);
  if (writing_goldens()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << got;
    return;
  }
  const std::string want = read_file(path);
  ASSERT_EQ(got.size(), want.size()) << name << " size changed";
  EXPECT_TRUE(got == want) << name << " bytes changed";
}

// ---------------------------------------------------------------------------
// Scenario 1: raw EventQueue firing order.
//
// The script exercises every region the queue implementation cares about:
// same-tick ties (times rounded to coarse multiples), near-future times, far
// future times (beyond any near-future fast-path window), times in the past
// of the current pop frontier, and events that schedule further events
// while firing.  The pop loop records
// "<id>@<time>;" per firing; insertion order is the tiebreak the golden pins.
// ---------------------------------------------------------------------------

std::string run_event_order_scenario() {
  sim::EventQueue q;
  std::string log;
  int next_id = 0;
  sim::Rng rng(20260807);

  auto fire = [&log](int id, sim::SimTime at) {
    log += 'E';
    log += std::to_string(id);
    log += '@';
    log += std::to_string(at);
    log += ';';
  };
  auto post_one = [&](sim::SimTime at) {
    const int id = next_id++;
    q.post(at, [&fire, id, at] { fire(id, at); });
  };
  auto pop_n = [&](int n) {
    for (int i = 0; i < n && !q.empty(); ++i) {
      auto [at, fn] = q.pop();
      fn();
    }
  };

  // Phase 1: a burst of posts with heavy same-time collisions (times are
  // multiples of 128 in [0, 8K)) plus a sprinkle of far-future events.
  for (int i = 0; i < 96; ++i) post_one(static_cast<sim::SimTime>(rng.below(64)) * 128);
  for (int i = 0; i < 8; ++i) post_one(static_cast<sim::SimTime>(100000 + rng.below(8) * 500));

  // Phase 2: drain half, then insert *behind* the frontier (past times must
  // still fire, immediately, in insertion order).
  pop_n(52);
  for (int i = 0; i < 6; ++i) post_one(static_cast<sim::SimTime>(rng.below(100)));

  // Phase 3: events near and far.  Every third slot draws its time and id
  // but posts nothing, leaving gaps in the id sequence the golden pins.
  for (int i = 0; i < 30; ++i) {
    const auto at = static_cast<sim::SimTime>(4000 + rng.below(200000));
    if (i % 3 == 0) {
      ++next_id;
    } else {
      post_one(at);
    }
  }

  // Phase 4: events that schedule more events when they fire (nested
  // insertion during pop), landing both at the current instant and later.
  for (int i = 0; i < 10; ++i) {
    const sim::SimTime at = static_cast<sim::SimTime>(9000 + i * 700);
    const int id = next_id++;
    q.post(at, [&, id, at] {
      fire(id, at);
      post_one(at);          // same instant: must fire after already-queued ties
      post_one(at + 17000);  // beyond any near-future window
    });
  }

  // Phase 5: full drain.
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    fn();
    log += '\n';
  }
  return log;
}

TEST(DeterminismGolden, EventOrder) {
  const std::string got = run_event_order_scenario();
  // Run-to-run determinism within this build, independent of the golden.
  EXPECT_EQ(got, run_event_order_scenario());
  check_against_golden("event_order.golden.txt", got);
}

// ---------------------------------------------------------------------------
// Scenario 2: end-to-end trace export.
//
// Eight nodes across a multi-cluster incomplete hypercube (so frames cross
// inter-cluster links and the routing tables), channel echo traffic between
// distant node pairs, with interval + counter recording on.  The rendered
// trace contains only virtual-time data, so it is byte-stable unless event
// timing itself changes.
// ---------------------------------------------------------------------------

using vorx::Channel;
using vorx::Subprocess;

std::string run_traced_echo() {
  sim::Simulator sim;
  vorx::SystemConfig cfg;
  cfg.nodes = 8;
  cfg.stations_per_cluster = 4;  // 9 stations -> 3 clusters -> hypercube
  cfg.record_intervals = true;
  cfg.record_counters = true;
  vorx::System sys(sim, cfg);

  for (int pair = 0; pair < 4; ++pair) {
    const int a = pair;       // cluster 0/1
    const int b = 7 - pair;   // far side
    const std::string ch_name = "echo" + std::to_string(pair);
    sys.node(a).spawn_process("tx" + std::to_string(pair),
                              [&sim, ch_name](Subprocess& sp) -> sim::Task<void> {
                                Channel* ch = co_await sp.open(ch_name);
                                for (int i = 0; i < 6; ++i) {
                                  co_await sp.compute(sim::usec(3));
                                  co_await sp.write(*ch, 256);
                                  (void)co_await sp.read(*ch);
                                }
                              });
    sys.node(b).spawn_process("rx" + std::to_string(pair),
                              [ch_name](Subprocess& sp) -> sim::Task<void> {
                                Channel* ch = co_await sp.open(ch_name);
                                for (int i = 0; i < 6; ++i) {
                                  (void)co_await sp.read(*ch);
                                  co_await sp.write(*ch, 256);
                                }
                              });
  }
  sim.run();
  return tools::TraceExporter::from_system(sys).render();
}

TEST(DeterminismGolden, TraceExport) {
  const std::string got = run_traced_echo();
  // Two in-process runs must already be byte-identical...
  EXPECT_EQ(got, run_traced_echo());
  // ...and identical to the pre-change golden.
  check_against_golden("echo_trace.golden.json", got);
}

// ---------------------------------------------------------------------------
// Scenario 3: multicast + wheel counter tracks.
//
// A hardware multicast group spanning three clusters plus a compute far
// past the L0 wheel horizon, so the trace carries every counter family
// added by the observability work: per-group delivery latency and
// software-copy tracks ("mcast.g5"), in-switch replica counts
// ("mcast_copies.g5" on the cluster tracks), and the engine's wheel
// statistics ("wheel_l1_inserts", "heap_size", ...).  Same determinism
// bar as scenario 2: byte-identical across runs and against the golden.
// ---------------------------------------------------------------------------

std::string run_traced_mcast() {
  sim::Simulator sim;
  vorx::SystemConfig cfg;
  cfg.nodes = 12;
  cfg.stations_per_cluster = 4;
  cfg.record_intervals = true;
  cfg.record_counters = true;
  vorx::System sys(sim, cfg);

  std::vector<int> idx;
  for (int i = 0; i < 12; ++i) idx.push_back(i);
  auto handles =
      sys.create_multicast_group(5, idx, /*root=*/0, vorx::McastMode::kHardware);
  sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
    co_await sp.compute(sim::msec(20));  // L1/heap insert -> wheel samples
    for (int m = 0; m < 5; ++m) co_await handles[0]->write(sp, 640);
  });
  for (int i = 0; i < 12; ++i) {
    sys.node(i).spawn_process(
        "m" + std::to_string(i), [&, i](Subprocess& sp) -> sim::Task<void> {
          for (int m = 0; m < 5; ++m) {
            (void)co_await handles[static_cast<std::size_t>(i)]->read(sp);
          }
        });
  }
  sim.run();
  return tools::TraceExporter::from_system(sys).render();
}

TEST(DeterminismGolden, McastWheelTrace) {
  const std::string got = run_traced_mcast();
  EXPECT_EQ(got, run_traced_mcast());
  // The scenario must actually produce the tracks it exists to pin down.
  EXPECT_NE(got.find("\"name\":\"mcast.g5\""), std::string::npos);
  EXPECT_NE(got.find("mcast_copies.g5"), std::string::npos);
  EXPECT_NE(got.find("delivery_us."), std::string::npos);
  EXPECT_NE(got.find("\"name\":\"engine\""), std::string::npos);
  EXPECT_NE(got.find("wheel_l1_inserts"), std::string::npos);
  check_against_golden("mcast_trace.golden.json", got);
}

}  // namespace
}  // namespace hpcvorx
