// Tests for flow-controlled multicast (§4.2).
#include <gtest/gtest.h>

#include "vorx/multicast.hpp"
#include "vorx_test_util.hpp"

namespace hpcvorx::vorx {
namespace {

std::vector<Mcast*> make_group(System& sys, std::uint64_t gid, int members,
                               int root) {
  std::vector<hw::StationId> stations;
  for (int i = 0; i < members; ++i) stations.push_back(sys.node_station(i));
  std::vector<Mcast*> handles;
  for (int i = 0; i < members; ++i) {
    handles.push_back(sys.node(i).mcast().create_group(gid, stations,
                                                       sys.node_station(root)));
  }
  return handles;
}

TEST(Multicast, EveryMemberReceivesEveryMessageInOrder) {
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 7;
  System sys(sim, cfg);
  auto handles = make_group(sys, 42, 7, 0);
  std::vector<std::vector<std::uint64_t>> got(7);

  sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
    for (std::uint64_t i = 0; i < 5; ++i) {
      co_await handles[0]->write(sp, 128,
                                 hw::make_payload(testutil::pattern_bytes(128, i)));
    }
  });
  for (int m = 0; m < 7; ++m) {
    sys.node(m).spawn_process(
        "member" + std::to_string(m), [&, m](Subprocess& sp) -> sim::Task<void> {
          for (int i = 0; i < 5; ++i) {
            ChannelMsg msg = co_await handles[static_cast<std::size_t>(m)]->read(sp);
            got[static_cast<std::size_t>(m)].push_back(
                testutil::fnv1a(*msg.data));
          }
        });
  }
  sim.run();
  for (int m = 0; m < 7; ++m) {
    ASSERT_EQ(got[static_cast<std::size_t>(m)].size(), 5u) << "member " << m;
    for (std::uint64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(m)][i],
                testutil::fnv1a(testutil::pattern_bytes(128, i)));
    }
  }
}

TEST(Multicast, WriteIsFlowControlled) {
  // The root's second write cannot complete before every member's kernel
  // buffered the first: writes are paced by the ack tree.
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 8;
  System sys(sim, cfg);
  auto handles = make_group(sys, 43, 8, 0);
  std::vector<sim::SimTime> write_done;
  sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await handles[0]->write(sp, 1024);
      write_done.push_back(sim.now());
    }
  });
  // Nobody reads: kernel-level queues absorb the messages, but the ack
  // aggregation still gates each write.
  sim.run();
  ASSERT_EQ(write_done.size(), 3u);
  // Each write takes at least a tree round-trip (several hundred us).
  EXPECT_GT(write_done[0], sim::usec(300));
  EXPECT_GT(write_done[1] - write_done[0], sim::usec(200));
}

TEST(Multicast, TreeForwardingTouchesInnerMembersOnly) {
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 7;
  System sys(sim, cfg);
  auto handles = make_group(sys, 44, 7, 0);
  (void)handles;
  sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
    co_await handles[0]->write(sp, 256);
  });
  sim.run();
  // Binary tree over members 0..6: inner nodes 0,1,2 forward; 3..6 leaves.
  EXPECT_GT(sys.node(1).mcast().frames_forwarded(), 0u);
  EXPECT_GT(sys.node(2).mcast().frames_forwarded(), 0u);
  EXPECT_EQ(sys.node(4).mcast().frames_forwarded(), 0u);
  EXPECT_EQ(sys.node(6).mcast().frames_forwarded(), 0u);
}

TEST(Multicast, RootAlsoReadsItsOwnMessages) {
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 3;
  System sys(sim, cfg);
  auto handles = make_group(sys, 45, 3, 1);
  bool root_read = false;
  sys.node(1).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
    co_await handles[1]->write(sp, 64);
    ChannelMsg m = co_await handles[1]->read(sp);
    root_read = m.bytes == 64;
  });
  sys.node(0).spawn_process("m0", [&](Subprocess& sp) -> sim::Task<void> {
    (void)co_await handles[0]->read(sp);
  });
  sys.node(2).spawn_process("m2", [&](Subprocess& sp) -> sim::Task<void> {
    (void)co_await handles[2]->read(sp);
  });
  sim.run();
  EXPECT_TRUE(root_read);
  EXPECT_TRUE(handles[1]->is_root());
  EXPECT_FALSE(handles[0]->is_root());
}

TEST(Multicast, LimitedUseCaseInitialValuesBroadcast) {
  // §4.2: "it may be necessary for a process to multicast initial values
  // to all the other processes when the application is first started."
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 6;
  System sys(sim, cfg);
  auto handles = make_group(sys, 46, 6, 0);
  std::vector<std::uint64_t> seen(6, 0);
  for (int m = 0; m < 6; ++m) {
    sys.node(m).spawn_process(
        "w" + std::to_string(m), [&, m](Subprocess& sp) -> sim::Task<void> {
          if (m == 0) {
            co_await handles[0]->write(
                sp, 512, hw::make_payload(testutil::pattern_bytes(512, 77)));
          }
          ChannelMsg init = co_await handles[static_cast<std::size_t>(m)]->read(sp);
          seen[static_cast<std::size_t>(m)] = testutil::fnv1a(*init.data);
          co_await sp.compute(sim::msec(1));  // then real work
        });
  }
  sim.run();
  const std::uint64_t want = testutil::fnv1a(testutil::pattern_bytes(512, 77));
  for (int m = 0; m < 6; ++m) EXPECT_EQ(seen[static_cast<std::size_t>(m)], want);
}

TEST(Multicast, RemoveMemberReleasesWriteBlockedOnDeadSubtree) {
  // Group-repair contract (DESIGN.md §14): members {0,1,2,8} span two
  // clusters; station 8 (cluster 1, a child of member 1 in the heap tree)
  // is cut off by downing the cube cable before the root writes.  The
  // 17-station / 8-per-cluster machine is a 3-cluster star — edges (0,1)
  // and (0,2) only — so cable (0,1) is cluster 1's sole attachment and no
  // reroute exists.  The data frame to 8 drops at the fabric, member 1
  // withholds its subtree ack, and the root's flow-controlled write parks
  // forever — until every survivor applies the same remove_member(8),
  // which shrinks the ack set and re-evaluates the pending write.
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 16;
  cfg.stations_per_cluster = 8;  // 3 clusters: {0..7} {8..15} {16=host}
  System sys(sim, cfg);
  std::vector<hw::StationId> stations = {0, 1, 2, 8};
  std::vector<Mcast*> handles;
  for (int m : {0, 1, 2, 8}) {
    handles.push_back(
        sys.node(m).mcast().create_group(47, stations, sys.node_station(0)));
  }
  sys.fabric().apply_cube_fault(0, 0, 1, /*up=*/false);

  std::vector<sim::SimTime> write_done;
  sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
    co_await handles[0]->write(sp, 256);
    write_done.push_back(sim.now());
  });
  const sim::SimTime repair_at = sim::msec(5);
  sim.schedule_at(repair_at, [&] {
    for (int i : {0, 1, 2}) {
      handles[static_cast<std::size_t>(i)]->remove_member(8);
    }
    handles[0]->remove_member(8);  // idempotent on an already-removed member
  });
  sim.run();

  ASSERT_EQ(write_done.size(), 1u) << "write still parked after repair";
  EXPECT_GE(write_done[0], repair_at);
  EXPECT_EQ(handles[0]->member_count(), 3u);
  EXPECT_EQ(handles[1]->member_count(), 3u);
  EXPECT_GE(sys.fabric().frames_dropped(), 1u);
}

}  // namespace
}  // namespace hpcvorx::vorx
