// Direct tests of the cluster switch (wired by hand, without a Fabric).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "hw/cluster.hpp"
#include "hw/fabric.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {
namespace {

struct Rig {
  explicit Rig(sim::Simulator& sim, int ports = 4) : cluster(sim, "c0", ports) {
    for (int p = 0; p < ports; ++p) {
      ins.push_back(std::make_unique<Link>(
          sim, store, "in" + std::to_string(p),
          Link::Params{.ns_per_byte = 10, .latency = 100, .buffer_frames = 2}));
      outs.push_back(std::make_unique<Link>(
          sim, store, "out" + std::to_string(p),
          Link::Params{.ns_per_byte = 10, .latency = 100, .buffer_frames = 2}));
      cluster.attach_in(p, ins.back().get());
      cluster.attach_out(p, outs.back().get());
    }
    // Station `dst` is reached through output port dst.
    cluster.set_route_fn([](const Frame& f) { return f.dst; });
  }
  FrameStore store;  // shared by every link of the rig; outlives them
  Cluster cluster;
  std::vector<std::unique_ptr<Link>> ins;
  std::vector<std::unique_ptr<Link>> outs;
};

Frame frame_to(StationId dst, std::uint32_t payload, std::uint64_t seq = 0) {
  Frame f;
  f.dst = dst;
  f.payload_bytes = payload;
  f.seq = seq;
  return f;
}

TEST(Cluster, ForwardsToRoutedPort) {
  sim::Simulator sim;
  Rig rig(sim);
  std::vector<Frame> got;
  rig.outs[2]->set_deliver_cb([&] {
    while (auto f = rig.outs[2]->take()) got.push_back(*std::move(f));
  });
  rig.ins[0]->send(frame_to(2, 32));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst, 2);
  EXPECT_EQ(got[0].hops, 1);
  EXPECT_EQ(rig.cluster.frames_forwarded(), 1u);
}

TEST(Cluster, IndependentOutputsForwardConcurrently) {
  sim::Simulator sim;
  Rig rig(sim);
  sim::SimTime t2 = -1, t3 = -1;
  rig.outs[2]->set_deliver_cb([&] {
    rig.outs[2]->take();
    t2 = sim.now();
  });
  rig.outs[3]->set_deliver_cb([&] {
    rig.outs[3]->take();
    t3 = sim.now();
  });
  rig.ins[0]->send(frame_to(2, 32));
  rig.ins[1]->send(frame_to(3, 32));
  sim.run();
  // Same-size frames through disjoint ports finish at the same instant:
  // the star switch has no shared bottleneck (unlike the S/NET bus).
  EXPECT_EQ(t2, t3);
  EXPECT_GT(t2, 0);
}

TEST(Cluster, ContendedOutputServesInputsRoundRobin) {
  sim::Simulator sim;
  Rig rig(sim);
  std::vector<int> src_order;
  rig.outs[3]->set_deliver_cb([&] {
    while (auto f = rig.outs[3]->take()) {
      src_order.push_back(static_cast<int>(f->seq));  // seq carries input id
    }
  });
  // Inputs 0, 1, 2 each feed 4 frames for output 3.
  for (int p = 0; p < 3; ++p) {
    auto feed = std::make_shared<std::function<void()>>();
    auto sent = std::make_shared<int>(0);
    Link* in = rig.ins[static_cast<size_t>(p)].get();
    // Keep-alive comes from the ready callback's copy of `feed`; capturing
    // `feed` here too would make the shared_ptr self-referential and leak.
    *feed = [in, p, sent] {
      while (*sent < 4 && in->ready()) {
        Frame f = frame_to(3, 64, static_cast<std::uint64_t>(p));
        in->send(std::move(f));
        ++*sent;
      }
    };
    in->set_ready_cb([feed] { (*feed)(); });
    (*feed)();
  }
  sim.run();
  ASSERT_EQ(src_order.size(), 12u);
  // Steady state must rotate through all three inputs: no input may get
  // two deliveries while another waits with a frame queued.
  for (std::size_t i = 3; i + 3 <= src_order.size(); i += 3) {
    std::set<int> window(src_order.begin() + static_cast<long>(i),
                         src_order.begin() + static_cast<long>(i + 3));
    EXPECT_EQ(window.size(), 3u) << "unfair window at " << i;
  }
}

TEST(Cluster, MulticastReplicaAccountingInvariant) {
  // The invariant documented in cluster.hpp: a multicast frame replicated
  // to k output ports counts k in frames_forwarded AND k x wire_bytes in
  // bytes_forwarded — exactly like k unicast frames — with the same k
  // attributed to the group via multicast_copies(gid).
  sim::Simulator sim;
  sim.counters().enable(true);
  Rig rig(sim);
  const std::uint64_t gid = 42;
  rig.cluster.set_multicast_route(gid, {1, 2, 3});
  int delivered = 0;
  for (int p = 1; p <= 3; ++p) {
    Link* out = rig.outs[static_cast<std::size_t>(p)].get();
    out->set_deliver_cb([out, &delivered] {
      while (out->take()) ++delivered;
    });
  }
  Frame mf;
  mf.group = gid;
  mf.dst = -1;
  mf.payload_bytes = 100;
  rig.ins[0]->send(std::move(mf));
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(rig.cluster.multicast_copies(gid), 3u);
  EXPECT_EQ(rig.cluster.multicast_copies_total(), 3u);
  EXPECT_EQ(rig.cluster.frames_forwarded(), 3u);
  EXPECT_EQ(rig.cluster.bytes_forwarded(), 3u * (100 + kHeaderBytes));

  // A unicast forward afterwards: totals split into unicast + replicas.
  rig.outs[2]->set_deliver_cb([&] {
    while (rig.outs[2]->take()) {
    }
  });
  rig.ins[0]->send(frame_to(2, 32));
  sim.run();
  EXPECT_EQ(rig.cluster.frames_forwarded(), 4u);
  EXPECT_EQ(rig.cluster.frames_forwarded(),
            1u + rig.cluster.multicast_copies_total());
  EXPECT_EQ(rig.cluster.multicast_copies(7777), 0u);  // unknown group

  // The replication path sampled the per-group counter track.
  bool sampled = false;
  for (const auto& s : sim.counters().samples()) {
    if (s.track == "c0" && s.counter == "mcast_copies.g42") {
      sampled = true;
      EXPECT_EQ(s.value, 3.0);
    }
  }
  EXPECT_TRUE(sampled);
}

TEST(Cluster, BackpressurePropagatesUpstream) {
  sim::Simulator sim;
  Rig rig(sim);
  // Output 2 is never drained: its link buffers 2 frames, the input fifo
  // holds 2, so at most 4 frames can leave the sender before it stalls.
  int sent = 0;
  Link* in = rig.ins[0].get();
  auto feed = std::make_shared<std::function<void()>>();
  *feed = [in, &sent] {
    while (sent < 10 && in->ready()) {
      Frame f;
      f.dst = 2;
      f.payload_bytes = 16;
      in->send(std::move(f));
      ++sent;
    }
  };
  in->set_ready_cb([feed] { (*feed)(); });
  (*feed)();
  sim.run();
  EXPECT_LE(sent, 5);  // 2 downstream + 2 input fifo + 1 in transit
  EXPECT_LT(sent, 10);
  // Draining the output lets the rest flow.
  rig.outs[2]->set_deliver_cb([&] {
    while (rig.outs[2]->take()) {
    }
  });
  while (rig.outs[2]->take()) {
  }
  sim.run();
  EXPECT_EQ(sent, 10);
}


// ---- busy-input mask arbitration ----

// Sends `frames` on `in` as fast as its flow control allows.
void feed(Link* in, std::vector<Frame> frames) {
  auto q = std::make_shared<std::vector<Frame>>(std::move(frames));
  auto next = std::make_shared<std::size_t>(0);
  auto push = [in, q, next] {
    while (*next < q->size() && in->ready()) in->send((*q)[(*next)++]);
  };
  in->set_ready_cb(push);
  push();
}

// Records the seq of every frame reaching output `port`, in order.
void record(Rig& rig, int port, std::vector<std::uint64_t>& got) {
  Link* out = rig.outs[static_cast<std::size_t>(port)].get();
  out->set_deliver_cb([out, &got] {
    while (auto f = out->take()) got.push_back(f->seq);
  });
}

TEST(ClusterArbiter, RoundRobinWrapsAcrossTheLastPort) {
  sim::Simulator sim;
  Rig rig(sim, 16);
  // Two frames from input 13 fill output 5's buffer and leave its cursor
  // at 14.
  feed(rig.ins[13].get(), {frame_to(5, 32, 13), frame_to(5, 32, 13)});
  sim.run();
  ASSERT_EQ(rig.outs[5]->buffered(), 2u);
  // Inputs 1, 0, 15, 14 (in that arrival order) each park two frames for
  // the full output.
  for (const int p : {1, 0, 15, 14}) {
    const auto seq = static_cast<std::uint64_t>(p);
    feed(rig.ins[static_cast<std::size_t>(p)].get(),
         {frame_to(5, 32, seq), frame_to(5, 32, seq)});
  }
  sim.run();
  EXPECT_EQ(rig.cluster.frames_forwarded(), 2u);
  std::vector<std::uint64_t> got;
  record(rig, 5, got);
  while (auto f = rig.outs[5]->take()) got.push_back(f->seq);
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{13, 13, 14, 15, 0, 1, 14, 15, 0,
                                             1}));
}

TEST(ClusterArbiter, InputDownedWithAParkedHeadForwardsAfterRecovery) {
  sim::Simulator sim;
  Rig rig(sim, 8);
  // Fill output 2, then park a head on input 3 behind it.
  feed(rig.ins[0].get(), {frame_to(2, 32, 0), frame_to(2, 32, 0)});
  sim.run();
  feed(rig.ins[3].get(), {frame_to(2, 32, 3)});
  sim.run();
  ASSERT_EQ(rig.ins[3]->buffered(), 1u);
  // The cable fails under the parked head: the frame is lost without the
  // cluster hearing of it, so input 3's busy bit goes stale.
  rig.ins[3]->set_down();
  EXPECT_EQ(rig.ins[3]->frames_dropped(), 1u);
  // Draining output 2 makes its arbiter scan input 3 and find it empty.
  std::vector<std::uint64_t> got;
  record(rig, 2, got);
  while (auto f = rig.outs[2]->take()) got.push_back(f->seq);
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(rig.cluster.frames_forwarded(), 2u);
  // After repair, fresh traffic on input 3 goes out on both the output it
  // parked for and another one.
  rig.ins[3]->set_up();
  std::vector<std::uint64_t> got1;
  record(rig, 1, got1);
  feed(rig.ins[3].get(),
       {frame_to(2, 32, 30), frame_to(1, 32, 31), frame_to(2, 32, 32)});
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 0, 30, 32}));
  EXPECT_EQ(got1, (std::vector<std::uint64_t>{31}));
  EXPECT_EQ(rig.cluster.frames_forwarded(), 5u);
  EXPECT_EQ(rig.cluster.frames_dropped(), 0u);
}

TEST(ClusterArbiter, RestartDropsParkedFramesThenServesNewTraffic) {
  sim::Simulator sim;
  Rig rig(sim, 8);
  feed(rig.ins[6].get(), {frame_to(4, 32, 6), frame_to(4, 32, 6)});
  sim.run();  // output 4 full, cursor at 7
  for (const int p : {1, 5, 7}) {
    feed(rig.ins[static_cast<std::size_t>(p)].get(),
         {frame_to(4, 32, static_cast<std::uint64_t>(p)),
          frame_to(4, 32, static_cast<std::uint64_t>(p))});
  }
  sim.run();
  rig.cluster.restart();
  EXPECT_EQ(rig.cluster.frames_dropped(), 6u);
  sim.run();
  // The restart reset the cursor to 0: new traffic from 7, 5 and 1 is
  // served 1, 5, 7 once output 4 drains.
  for (const int p : {7, 5, 1}) {
    feed(rig.ins[static_cast<std::size_t>(p)].get(),
         {frame_to(4, 32, static_cast<std::uint64_t>(10 + p))});
  }
  sim.run();
  std::vector<std::uint64_t> got;
  record(rig, 4, got);
  while (auto f = rig.outs[4]->take()) got.push_back(f->seq);
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{6, 6, 11, 15, 17}));
  EXPECT_EQ(rig.cluster.frames_forwarded(), 5u);
  EXPECT_EQ(rig.cluster.frames_dropped(), 6u);
}

TEST(ClusterArbiter, MixedMulticastAndUnicastHeads) {
  sim::Simulator sim;
  Rig rig(sim, 8);
  rig.cluster.set_multicast_route(9, {1, 2});
  std::vector<std::uint64_t> got1, got2;
  record(rig, 1, got1);
  record(rig, 2, got2);
  auto mcast = [](std::uint64_t seq) {
    Frame f;
    f.group = 9;
    f.payload_bytes = 48;
    f.seq = seq;
    return f;
  };
  // Input 0 alternates group and unicast heads; inputs 3 and 6 compete
  // for the same outputs with unicast only.
  feed(rig.ins[0].get(), {mcast(100), frame_to(1, 32, 101), mcast(102),
                          frame_to(2, 32, 103), mcast(104)});
  feed(rig.ins[3].get(), {frame_to(1, 32, 300), frame_to(2, 32, 301),
                          frame_to(1, 32, 302)});
  feed(rig.ins[6].get(), {frame_to(2, 32, 600), frame_to(2, 32, 601)});
  sim.run();
  // Every frame arrives once, and each input's frames keep their order
  // on every output.
  auto from = [](const std::vector<std::uint64_t>& v, std::uint64_t base) {
    std::vector<std::uint64_t> out;
    for (const std::uint64_t s : v) {
      if (s / 100 == base / 100) out.push_back(s);
    }
    return out;
  };
  EXPECT_EQ(from(got1, 100), (std::vector<std::uint64_t>{100, 101, 102, 104}));
  EXPECT_EQ(from(got2, 100), (std::vector<std::uint64_t>{100, 102, 103, 104}));
  EXPECT_EQ(from(got1, 300), (std::vector<std::uint64_t>{300, 302}));
  EXPECT_EQ(from(got2, 300), (std::vector<std::uint64_t>{301}));
  EXPECT_EQ(from(got2, 600), (std::vector<std::uint64_t>{600, 601}));
  EXPECT_EQ(rig.cluster.multicast_copies(9), 6u);
  EXPECT_EQ(rig.cluster.frames_forwarded(), 7u + 6u);
  EXPECT_EQ(rig.cluster.frames_forwarded(),
            7u + rig.cluster.multicast_copies_total());
}

// A 64-station adaptive cube under cable flaps and cluster restarts: the
// arbiters must neither lose nor duplicate a frame, and the replica
// accounting must hold on the fabric the faults left behind.
TEST(ClusterArbiter, AdaptiveCubeSurvivesFlapsAndRestarts) {
  sim::Simulator sim;
  FabricParams params;
  params.routing = RoutingMode::kAdaptive;
  auto fab = Fabric::hypercube(sim, 64, 4, params);  // 16 clusters, 4 dims
  constexpr int kStations = 64;
  std::vector<StationId> members;
  for (StationId s = 0; s < kStations; s += 5) members.push_back(s);
  fab->add_multicast_group(3, /*root=*/0, members);

  std::uint64_t delivered = 0;
  std::uint64_t unicast_hops = 0;
  std::uint64_t mcast_delivered = 0;
  for (StationId s = 0; s < kStations; ++s) {
    Fabric* f = fab.get();
    f->endpoint(s).set_rx_cb([f, s, &delivered, &unicast_hops,
                              &mcast_delivered] {
      while (auto fr = f->endpoint(s).rx_take()) {
        if (fr->group != 0) {
          ++mcast_delivered;
        } else {
          EXPECT_EQ(fr->dst, s);
          ++delivered;
          unicast_hops += static_cast<std::uint64_t>(fr->hops);
        }
      }
    });
  }
  // Seeded open-loop unicast traffic: each station queues frames and
  // sends them as flow control allows.
  sim::Rng rng(1405);
  std::vector<std::vector<Frame>> queues(kStations);
  std::uint64_t sent = 0;
  // Station 0 interleaves `groups` group frames into its stream.
  auto inject = [&](int per_station, int groups) {
    for (StationId s = 0; s < kStations; ++s) {
      std::vector<Frame>& q = queues[static_cast<std::size_t>(s)];
      q.clear();
      for (int i = 0; i < per_station; ++i) {
        if (s == 0 && i % 3 == 1 && i / 3 < groups) {
          Frame g;
          g.group = 3;
          g.payload_bytes = 256;
          q.push_back(g);
        }
        auto dst = static_cast<StationId>(rng.below(kStations - 1));
        if (dst >= s) ++dst;
        q.push_back(frame_to(
            dst, 64 + static_cast<std::uint32_t>(rng.below(512))));
        ++sent;
      }
      Endpoint& ep = fab->endpoint(s);
      auto next = std::make_shared<std::size_t>(0);
      auto push = [&ep, &q, next] {
        while (*next < q.size() && ep.tx_ready()) ep.transmit(q[(*next)++]);
      };
      ep.set_tx_ready_cb(push);
      push();
    }
  };

  // Phase 1: traffic under faults.  Cables flap (each down for 20 us) and
  // clusters power-cycle while frames are parked everywhere.
  inject(40, 0);
  const std::vector<std::pair<int, int>> cables = fab->cube_edge_pairs();
  for (int k = 0; k < 12; ++k) {
    const auto [a, b] =
        cables[static_cast<std::size_t>(rng.below(cables.size()))];
    const sim::SimTime at = sim::usec(5 + 15 * k);
    sim.schedule_at(at, [&fab, a, b] { fab->apply_cube_fault(0, a, b, false); });
    sim.schedule_at(at + sim::usec(20),
                    [&fab, a, b] { fab->apply_cube_fault(0, a, b, true); });
    if (k % 3 == 0) {
      const int c = static_cast<int>(rng.below(16));
      sim.schedule_at(at + sim::usec(7),
                      [&fab, c] { fab->apply_cluster_restart(0, c); });
    }
  }
  sim.run();
  // Conservation while wedged: every unicast frame an endpoint
  // transmitted is delivered, dropped at a fault, or still held in the
  // fabric's store (the rest wait in the stations' send queues).
  auto transmitted = [&] {
    std::uint64_t n = 0;
    for (StationId s = 0; s < kStations; ++s) {
      n += fab->endpoint(s).frames_sent();
    }
    return n;
  };
  EXPECT_GT(fab->frames_live(), 0u);
  EXPECT_LT(transmitted(), sent);
  EXPECT_EQ(transmitted(),
            delivered + fab->frames_dropped() + fab->frames_live());
  // Fault-time routes follow BFS tables that are outside the adaptive
  // deadlock-freedom argument (DESIGN.md §15.3), and with this schedule a
  // buffer-wait cycle forms while cables are down; it outlives the repair.
  // A power cycle of every cluster clears it: each parked frame is
  // counted as dropped, and the rest of the schedule drains over the
  // repaired cube.
  for (int c = 0; c < fab->num_clusters(); ++c) {
    fab->apply_cluster_restart(0, c);
  }
  sim.run();
  EXPECT_EQ(fab->frames_live(), 0u);
  EXPECT_EQ(transmitted(), sent);
  EXPECT_EQ(sent, delivered + fab->frames_dropped() + fab->frames_live());
  EXPECT_GT(fab->frames_dropped(), 0u);

  // Phase 2: every cable is back; unicast and group traffic on the
  // fabric the faults left behind.  No frame is lost now, so every
  // forward is either a unicast hop or a multicast replica.
  auto forwarded = [&] {
    std::uint64_t n = 0;
    for (int c = 0; c < fab->num_clusters(); ++c) {
      n += fab->cluster(c).frames_forwarded();
    }
    return n;
  };
  auto replicas = [&] {
    std::uint64_t n = 0;
    for (int c = 0; c < fab->num_clusters(); ++c) {
      n += fab->cluster(c).multicast_copies_total();
    }
    return n;
  };
  const std::uint64_t fwd0 = forwarded();
  const std::uint64_t rep0 = replicas();
  const std::uint64_t hops0 = unicast_hops;
  const std::uint64_t dropped0 = fab->frames_dropped();
  const std::uint64_t sent0 = sent;
  const std::uint64_t delivered0 = delivered;
  inject(30, 4);
  sim.run();
  EXPECT_EQ(fab->frames_dropped(), dropped0);
  EXPECT_EQ(delivered - delivered0, sent - sent0);
  EXPECT_EQ(mcast_delivered, 4u * (members.size() - 1));
  EXPECT_EQ(forwarded() - fwd0,
            (unicast_hops - hops0) + (replicas() - rep0));
  // Drained: the store holds no frame, replicas included.
  EXPECT_EQ(fab->frames_live(), 0u);
}

}  // namespace
}  // namespace hpcvorx::hw
