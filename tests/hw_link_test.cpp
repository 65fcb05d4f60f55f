// Tests for the flow-controlled HPC link model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "hw/frame_pool.hpp"
#include "hw/link.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {
namespace {

Frame frame_to(StationId dst, std::uint32_t payload) {
  Frame f;
  f.dst = dst;
  f.payload_bytes = payload;
  return f;
}

TEST(Link, DeliversAfterSerializationPlusLatency) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 50, .latency = 500, .buffer_frames = 2});
  ASSERT_TRUE(link.ready());
  sim::SimTime delivered_at = -1;
  link.set_deliver_cb([&] { delivered_at = sim.now(); });
  link.send(frame_to(1, 84));  // wire = 84 + 16 = 100 bytes
  sim.run();
  EXPECT_EQ(delivered_at, 100 * 50 + 500);
  ASSERT_NE(link.peek(), nullptr);
  EXPECT_EQ(link.peek()->payload_bytes, 84u);
}

TEST(Link, TransmitterFreesAfterSerialization) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 50, .latency = 500, .buffer_frames = 4});
  link.send(frame_to(1, 84));
  EXPECT_FALSE(link.ready());  // busy serializing
  sim.run_until(100 * 50 - 1);
  EXPECT_FALSE(link.ready());
  sim.run_until(100 * 50);
  EXPECT_TRUE(link.ready());  // wire free, slots remain
}

TEST(Link, RefusesWhenDownstreamBufferFull) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 0, .buffer_frames = 2});
  link.send(frame_to(1, 10));
  sim.run();
  link.send(frame_to(1, 10));
  sim.run();
  // Two frames buffered downstream, nobody consuming: link must refuse.
  EXPECT_EQ(link.buffered(), 2u);
  EXPECT_FALSE(link.ready());
}

TEST(Link, TakeFreesSlotAndFiresReadyCb) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 0, .buffer_frames = 1});
  int ready_calls = 0;
  link.set_ready_cb([&] { ++ready_calls; });
  link.send(frame_to(1, 10));
  sim.run();
  EXPECT_FALSE(link.ready());
  ready_calls = 0;
  std::optional<Frame> f = link.take();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(link.ready());
  EXPECT_GE(ready_calls, 1);
}

TEST(Link, FramesArriveInOrder) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 2, .latency = 100, .buffer_frames = 8});
  std::vector<std::uint64_t> got;
  link.set_deliver_cb([&] {
    while (const Frame* f = link.peek()) {
      got.push_back(f->seq);
      link.take();
    }
  });
  // Feed frames whenever the transmitter is free.
  std::uint64_t next = 0;
  auto feed = [&] {
    while (next < 5 && link.ready()) {
      Frame f = frame_to(1, 32);
      f.seq = next++;
      link.send(std::move(f));
    }
  };
  link.set_ready_cb(feed);
  feed();
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Link, PipelinesWhenBufferAllows) {
  // With a deep buffer the link should sustain one frame per serialization
  // time, i.e. back-to-back transmission.
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 10, .latency = 1000, .buffer_frames = 16});
  int delivered = 0;
  link.set_deliver_cb([&] {
    while (link.peek() != nullptr) {
      link.take();
      ++delivered;
    }
  });
  int sent = 0;
  auto feed = [&] {
    while (sent < 10 && link.ready()) {
      link.send(frame_to(1, 84));  // wire 100 B -> 1000 ns each
      ++sent;
    }
  };
  link.set_ready_cb(feed);
  feed();
  sim.run();
  EXPECT_EQ(delivered, 10);
  // 10 frames x 1000 ns serialization + one 1000 ns latency.
  EXPECT_EQ(sim.now(), 10 * 1000 + 1000);
}

TEST(Link, CarriedCountTracksDeliveries) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 0, .buffer_frames = 4});
  link.set_deliver_cb([&] { link.take(); });
  link.send(frame_to(1, 4));
  sim.run();
  link.send(frame_to(1, 4));
  sim.run();
  EXPECT_EQ(link.frames_carried(), 2u);
}


// ---- the frame ring (landed frames first, propagating frames behind) ----

TEST(LinkRing, FifoOrderAcrossWrapForEveryBufferSize) {
  for (const int slots : {1, 2, 3, 64}) {
    SCOPED_TRACE(slots);
    sim::Simulator sim;
    // 48 ns serialization, 100 ns latency: with a slow consumer the ring
    // holds landed and propagating frames at once, and its head wraps many
    // times over the 300 frames.
    Link link(sim, "l",
              {.ns_per_byte = 1, .latency = 100, .buffer_frames = slots});
    constexpr std::uint64_t kFrames = 300;
    std::uint64_t next = 0;
    auto feed = [&] {
      while (next < kFrames && link.ready()) {
        Frame f = frame_to(1, 32);
        f.seq = next++;
        link.send(std::move(f));
      }
    };
    link.set_ready_cb(feed);
    // The consumer takes one frame every 70 ns: slower than the sender.
    std::vector<std::uint64_t> got;
    std::function<void()> consume = [&] {
      if (auto f = link.take()) got.push_back(f->seq);
      if (got.size() < kFrames) sim.schedule_after(70, consume);
    };
    sim.schedule_after(70, consume);
    feed();
    sim.run();
    ASSERT_EQ(got.size(), kFrames);
    for (std::uint64_t i = 0; i < kFrames; ++i) ASSERT_EQ(got[i], i);
    EXPECT_EQ(link.frames_carried(), kFrames);
    // The backlog filled the buffer, and the ring grew to exactly its size.
    EXPECT_EQ(link.slot_capacity(), static_cast<std::size_t>(slots));
  }
}

TEST(LinkRing, SetDownDropsPropagatingAndLandedFramesThenRecovers) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 1000, .buffer_frames = 4});
  // Sends at 0, 48, 96, 144 (one per serialization time) land at 1048,
  // 1096, 1144 and 1192.
  std::uint64_t next = 0;
  link.set_ready_cb([&] {
    if (next < 4 && link.ready()) {
      Frame f = frame_to(1, 32);
      f.seq = next++;
      link.send(std::move(f));
    }
  });
  Frame first = frame_to(1, 32);
  first.seq = next++;
  link.send(std::move(first));
  sim.run_until(1100);
  ASSERT_EQ(link.buffered(), 2u);     // landed
  ASSERT_EQ(link.queue_depth(), 4u);  // + 2 propagating, transmitter idle
  link.set_down();
  EXPECT_EQ(link.frames_dropped(), 4u);
  EXPECT_EQ(link.buffered(), 0u);
  EXPECT_EQ(link.peek(), nullptr);
  EXPECT_EQ(link.queue_depth(), 0u);
  EXPECT_FALSE(link.ready());
  sim.run();  // the two stale deliveries are no-ops
  EXPECT_EQ(link.frames_carried(), 2u);
  EXPECT_EQ(link.buffered(), 0u);

  link.set_up();
  ASSERT_TRUE(link.ready());
  Frame again = frame_to(1, 32);
  again.seq = 77;
  link.send(std::move(again));
  sim.run();
  ASSERT_NE(link.peek(), nullptr);
  EXPECT_EQ(link.peek()->seq, 77u);
  EXPECT_EQ(link.take()->seq, 77u);
  EXPECT_EQ(link.frames_dropped(), 4u);
  EXPECT_EQ(link.frames_carried(), 3u);
}

TEST(LinkRing, TakeAndSetDownReleaseThePayload) {
  sim::Simulator sim;
  FramePool pool;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 100, .buffer_frames = 4});
  const std::byte bytes[8] = {};
  auto payload_frame = [&] {
    Frame f = frame_to(1, 8);
    f.data = pool.make_copy(bytes, sizeof bytes);
    return f;
  };

  Frame f = payload_frame();
  const std::weak_ptr<const std::vector<std::byte>> w = f.data;
  link.send(std::move(f));
  sim.run();
  EXPECT_EQ(w.use_count(), 1);  // the ring's slot is the only holder
  EXPECT_EQ(pool.payloads_live(), 1u);
  {
    std::optional<Frame> got = link.take();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(w.use_count(), 1);  // moved out, not copied
  }
  EXPECT_TRUE(w.expired());
  EXPECT_EQ(pool.payloads_live(), 0u);

  // One landed and one propagating frame: set_down() releases both now.
  link.send(payload_frame());
  sim.run();
  link.send(payload_frame());
  sim.run_until(sim.now() + 50);
  ASSERT_EQ(link.buffered(), 1u);
  ASSERT_EQ(link.queue_depth(), 2u);
  EXPECT_EQ(pool.payloads_live(), 2u);
  link.set_down();
  EXPECT_EQ(pool.payloads_live(), 0u);
  sim.run();
  EXPECT_EQ(pool.payloads_live(), 0u);
}

TEST(LinkRing, RxHalfOverflowDropStillCreditsBack) {
  // A cross-shard RX half: frames arrive through deliver_remote(), every
  // freed or refused slot goes back to the TX half as a credit.
  sim::Simulator sim;
  Link rx(sim, "c0>c1.rx",
          {.ns_per_byte = 1, .latency = 100, .buffer_frames = 2});
  int credits = 0;
  rx.set_credit_cb([&](sim::SimTime) { ++credits; });
  // A fault reset the TX half's slot accounting: a pre-outage frame may
  // now arrive on top of a full buffer (the only legal overflow).
  rx.set_down();
  rx.set_up();
  for (std::uint64_t i = 0; i < 3; ++i) {
    Frame f = frame_to(1, 8);
    f.seq = i;
    rx.deliver_remote(std::move(f));
  }
  EXPECT_EQ(rx.buffered(), 2u);
  EXPECT_EQ(rx.frames_dropped(), 1u);
  EXPECT_EQ(credits, 1);  // the refused frame's slot
  // An arrival while down is dropped and credited too.
  rx.set_down();
  EXPECT_EQ(rx.frames_dropped(), 3u);
  EXPECT_EQ(credits, 3);  // + the two cleared slots
  rx.deliver_remote(frame_to(1, 8));
  EXPECT_EQ(rx.frames_dropped(), 4u);
  EXPECT_EQ(credits, 4);
  rx.set_up();
  Frame f = frame_to(1, 8);
  f.seq = 9;
  rx.deliver_remote(std::move(f));
  EXPECT_EQ(rx.take()->seq, 9u);
  EXPECT_EQ(credits, 5);
  EXPECT_EQ(rx.peek(), nullptr);
}

TEST(LinkRing, GrowsOnDemandOnly) {
  sim::Simulator sim;
  // A 64-slot trunk-style link whose consumer takes every frame on
  // arrival: with 10 ns latency under 48 ns serialization it never holds
  // more than two frames (one still landing, one just sent), so the ring
  // stays at its first size.
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 10, .buffer_frames = 64});
  EXPECT_EQ(link.slot_capacity(), 0u);  // no storage before the first frame
  link.set_deliver_cb([&] { link.take(); });
  int sent = 0;
  std::size_t peak_depth = 0;
  link.set_ready_cb([&] {
    if (sent < 200 && link.ready()) {
      link.send(frame_to(1, 32));
      ++sent;
      peak_depth = std::max(peak_depth, link.queue_depth());
    }
  });
  link.send(frame_to(1, 32));
  ++sent;
  sim.run();
  EXPECT_EQ(sent, 200);
  EXPECT_EQ(link.frames_carried(), 200u);
  EXPECT_LE(peak_depth, 3u);  // the transmitter + two ring frames
  EXPECT_EQ(link.slot_capacity(), 2u);
}

}  // namespace
}  // namespace hpcvorx::hw
