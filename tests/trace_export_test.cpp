// Tests for the per-component counters (hw::Link, hw::Cluster,
// vorx::Kernel, sim::Cpu) and the Chrome trace_event exporter
// (tools/trace_export): counter correctness on a two-node channel echo,
// byte-identical determinism across runs, and trace structure.
#include <gtest/gtest.h>

#include <string>

#include "hw/link.hpp"
#include "tools/trace_export.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

namespace hpcvorx {
namespace {

using vorx::Channel;
using vorx::Subprocess;

constexpr int kMsgs = 20;
constexpr std::uint32_t kBytes = 64;

vorx::SystemConfig traced_config() {
  vorx::SystemConfig cfg;
  cfg.record_intervals = true;
  cfg.record_counters = true;
  return cfg;
}

// Two-node channel echo: n0 writes kMsgs messages, n1 reads and echoes.
void run_echo(sim::Simulator& sim, vorx::System& sys) {
  sys.node(0).spawn_process("tx", [&](Subprocess& sp) -> sim::Task<void> {
    Channel* ch = co_await sp.open("echo");
    for (int i = 0; i < kMsgs; ++i) {
      co_await sp.compute(sim::usec(5));  // user-time slice per message
      co_await sp.write(*ch, kBytes);
      (void)co_await sp.read(*ch);
    }
  });
  sys.node(1).spawn_process("rx", [&](Subprocess& sp) -> sim::Task<void> {
    Channel* ch = co_await sp.open("echo");
    for (int i = 0; i < kMsgs; ++i) {
      (void)co_await sp.read(*ch);
      co_await sp.write(*ch, kBytes);
    }
  });
  sim.run();
}

TEST(Counters, KernelByteAndFrameCountsOnEcho) {
  sim::Simulator sim;
  vorx::System sys(sim, traced_config());
  run_echo(sim, sys);

  vorx::Kernel& k0 = sys.node(0).kernel();
  vorx::Kernel& k1 = sys.node(1).kernel();
  // Each side queued at least its kMsgs payloads (plus opens and acks).
  EXPECT_GE(k0.bytes_sent(), static_cast<std::uint64_t>(kMsgs) * kBytes);
  EXPECT_GE(k1.bytes_received(), static_cast<std::uint64_t>(kMsgs) * kBytes);
  EXPECT_GT(k0.frames_sent(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_GT(k1.frames_received(), static_cast<std::uint64_t>(kMsgs));
  // The echo drains completely.
  EXPECT_EQ(k0.tx_queue_depth(), 0u);
  EXPECT_GE(k0.peak_tx_queue_depth(), 1u);
}

TEST(Counters, ClusterForwardsEveryEchoByte) {
  sim::Simulator sim;
  vorx::System sys(sim, traced_config());
  run_echo(sim, sys);

  const hw::Cluster& c = sys.fabric().cluster(0);
  EXPECT_GT(c.frames_forwarded(), 2u * kMsgs);
  EXPECT_GT(c.bytes_forwarded(), 2ull * kMsgs * kBytes);
  EXPECT_GE(c.head_of_line_blocked(), 0);
}

TEST(Counters, TxBlockedAccumulatesWhenHardwareIsBusy) {
  sim::Simulator sim;
  vorx::System sys(sim, traced_config());
  // Burst frames straight into the kernel with no CPU cost between them:
  // the transmit queue fills faster than the link serializes 1 kB frames.
  for (int i = 0; i < 8; ++i) {
    hw::Frame f;
    f.kind = vorx::msg::kRaw;
    f.dst = 1;
    f.payload_bytes = 1024;
    sys.node(0).kernel().send(std::move(f));
  }
  sim.run();
  EXPECT_GE(sys.node(0).kernel().peak_tx_queue_depth(), 2u);
  EXPECT_GT(sys.node(0).kernel().tx_blocked(), 0);
  EXPECT_EQ(sys.node(0).kernel().bytes_sent(), 8u * 1024u);
}

TEST(Counters, CpuCountsContextSwitchesBetweenSubprocesses) {
  sim::Simulator sim;
  vorx::System sys(sim, traced_config());
  run_echo(sim, sys);
  // Each node runs its subprocess and kernel services; the scheduler must
  // have switched ownership at least once per node.
  EXPECT_GT(sys.node(0).cpu().ctx_switches(), 0u);
  EXPECT_GT(sys.node(1).cpu().ctx_switches(), 0u);
}

TEST(Counters, LinkCountsWireBytesAndSamplesTimeline) {
  sim::Simulator sim;
  sim.counters().enable(true);
  hw::FrameStore store;
  hw::Link link(sim, store, "l",
                {.ns_per_byte = 50, .latency = 500, .buffer_frames = 2});
  hw::Frame first;
  first.dst = 1;
  first.payload_bytes = 84;
  link.send(std::move(first));
  // The transmitter frees after serialization (100 wire bytes x 50 ns);
  // queue the second frame once it is ready again.
  sim.schedule_at(sim::usec(6), [&link] {
    hw::Frame second;
    second.dst = 1;
    second.payload_bytes = 84;
    link.send(std::move(second));
  });
  sim.run();
  EXPECT_EQ(link.frames_carried(), 2u);
  EXPECT_EQ(link.bytes_carried(), 2u * (84u + 16u));  // wire = payload + 16
  EXPECT_EQ(link.peak_buffered(), 2u);  // neither frame was taken
  bool sampled = false;
  for (const auto& s : sim.counters().samples()) {
    if (s.track == "l" && s.counter == "buffered_frames") sampled = true;
  }
  EXPECT_TRUE(sampled);
}

TEST(Counters, TimelineDisabledByDefault) {
  sim::Simulator sim;
  vorx::System sys(sim, vorx::SystemConfig{});  // no record_counters
  run_echo(sim, sys);
  EXPECT_TRUE(sim.counters().samples().empty());
}

std::string traced_echo_json() {
  sim::Simulator sim;
  vorx::System sys(sim, traced_config());
  run_echo(sim, sys);
  return tools::TraceExporter::from_system(sys).render();
}

// The §6-style determinism guarantee extends to the exporter: same
// program, same trace, byte for byte (virtual timestamps only — rule R1
// keeps wall clocks out of src/).
TEST(TraceExport, ByteIdenticalAcrossRuns) {
  const std::string a = traced_echo_json();
  const std::string b = traced_echo_json();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceExport, EmitsSlicesCountersAndProcessNames) {
  const std::string json = traced_echo_json();
  // Object envelope.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Station processes are named after their CPUs.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"n0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"n1\"}"), std::string::npos);
  // Execution slices per ledger category.
  EXPECT_NE(json.find("\"name\":\"user\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"system\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ctxsw\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"idle-"), std::string::npos);
  // Counter series from the kernels and the fabric.
  EXPECT_NE(json.find("\"name\":\"txq_depth\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"buffered_frames\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ctxsw\",\"ph\":\"C\""), std::string::npos);
}

TEST(TraceExport, CounterTracksGetStablePids) {
  const std::string json = traced_echo_json();
  // Station pids are their station ids; n0 slices carry pid 0.
  EXPECT_NE(json.find("\"ph\":\"X\",\"cat\":\"cpu\",\"pid\":0"),
            std::string::npos);
  // A non-station counter track (a link or the cluster) got a synthetic
  // process with its own name metadata.
  const bool named_hw_track =
      json.find("\"args\":{\"name\":\"c0\"}") != std::string::npos ||
      json.find("\"args\":{\"name\":\"s0>c0\"}") != std::string::npos;
  EXPECT_TRUE(named_hw_track);
}

// Regression: synthetic counter-track pids come from the reserved range
// [kSyntheticPidBase, ...), never from the station range — regardless of
// the order in which add_counters and add_station were called, and even
// when stations are added after (or between) counter batches.
TEST(TraceExport, SyntheticPidsNeverCollideWithStations) {
  sim::CounterTimeline tl;
  tl.enable(true);
  tl.sample("some-hw-track", "depth", 10, 1.0);
  tl.sample("another-track", "depth", 20, 2.0);

  tools::TraceExporter exp;
  sim::TimeLedger ledger;
  ledger.enable_recording(true);
  ledger.add(0, 100, sim::Category::kUser);
  // Counters first, stations afterwards — the historically dangerous
  // ordering — plus a second add_counters batch for good measure.
  exp.add_counters(tl);
  exp.add_station("n0", ledger);
  exp.add_station("n1", ledger);
  exp.add_counters(tl);
  const std::string json = exp.render();

  // Station processes keep pids 0 and 1.
  EXPECT_NE(json.find("\"pid\":0,\"tid\":0,\"args\":{\"name\":\"n0\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":0,\"args\":{\"name\":\"n1\"}"),
            std::string::npos);
  // Synthetic tracks start at the reserved base; no counter event may
  // carry a station pid.
  const std::string base = std::to_string(tools::kSyntheticPidBase);
  EXPECT_NE(json.find("\"pid\":" + base +
                      ",\"tid\":0,\"args\":{\"name\":\"some-hw-track\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"C\",\"pid\":0,"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"C\",\"pid\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\",\"pid\":" + base + ","),
            std::string::npos);
}

}  // namespace
}  // namespace hpcvorx
