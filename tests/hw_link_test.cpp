// Tests for the flow-controlled HPC link model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "hw/frame_pool.hpp"
#include "hw/frame_store.hpp"
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
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 50, .latency = 500, .buffer_frames = 2});
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
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 50, .latency = 500, .buffer_frames = 4});
  link.send(frame_to(1, 84));
  EXPECT_FALSE(link.ready());  // busy serializing
  sim.run_until(100 * 50 - 1);
  EXPECT_FALSE(link.ready());
  sim.run_until(100 * 50);
  EXPECT_TRUE(link.ready());  // wire free, slots remain
}

TEST(Link, RefusesWhenDownstreamBufferFull) {
  sim::Simulator sim;
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 1, .latency = 0, .buffer_frames = 2});
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
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 1, .latency = 0, .buffer_frames = 1});
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
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 2, .latency = 100, .buffer_frames = 8});
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
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 10, .latency = 1000, .buffer_frames = 16});
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
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 1, .latency = 0, .buffer_frames = 4});
  link.set_deliver_cb([&] { link.take(); });
  link.send(frame_to(1, 4));
  sim.run();
  link.send(frame_to(1, 4));
  sim.run();
  EXPECT_EQ(link.frames_carried(), 2u);
}


// ---- the link queue: handles into a store shared by every link ----------
//
// (The suite keeps its historical LinkRing name; the links now queue
// FrameStore handles instead of owning a ring of frames.)

TEST(LinkRing, FifoOrderAcrossWrapForEveryBufferSize) {
  for (const int slots : {1, 2, 3, 64}) {
    SCOPED_TRACE(slots);
    sim::Simulator sim;
    FrameStore store;
    // Two links share the store and run at once, so their frames take
    // interleaved slots.  48 ns serialization, 100 ns latency: with a slow
    // consumer each queue holds landed and propagating frames at once, and
    // freed slots are reused many times over the 300 frames per link.
    const Link::Params p{.ns_per_byte = 1, .latency = 100,
                         .buffer_frames = slots};
    Link a(sim, store, "a", p);
    Link b(sim, store, "b", p);
    constexpr std::uint64_t kFrames = 300;
    struct Side {
      Link* link = nullptr;
      sim::Duration take_every = 0;  // the consumer: slower than the sender
      std::uint64_t next = 0;
      std::size_t peak_depth = 0;
      std::vector<std::uint64_t> got;
      std::function<void()> feed;
      std::function<void()> consume;
    };
    Side sides[2];
    sides[0].link = &a;
    sides[0].take_every = 70;
    sides[1].link = &b;
    sides[1].take_every = 90;
    for (Side& side : sides) {
      side.feed = [&side] {
        while (side.next < kFrames && side.link->ready()) {
          Frame f = frame_to(1, 32);
          f.seq = side.next++;
          side.link->send(std::move(f));
          side.peak_depth =
              std::max(side.peak_depth, side.link->queue_depth());
        }
      };
      side.consume = [&side, &sim] {
        if (auto f = side.link->take()) side.got.push_back(f->seq);
        if (side.got.size() < kFrames) {
          sim.schedule_after(side.take_every, side.consume);
        }
      };
      side.link->set_ready_cb(side.feed);
      sim.schedule_after(side.take_every, side.consume);
    }
    for (Side& side : sides) side.feed();
    sim.run();
    for (const Side& side : sides) {
      ASSERT_EQ(side.got.size(), kFrames);
      for (std::uint64_t i = 0; i < kFrames; ++i) ASSERT_EQ(side.got[i], i);
      EXPECT_EQ(side.link->frames_carried(), kFrames);
      // The backlog filled the queue: every buffer slot reserved, plus the
      // frame on the transmitter.
      EXPECT_EQ(side.peak_depth, static_cast<std::size_t>(slots) + 1);
    }
    EXPECT_EQ(store.live(), 0u);  // every taken frame left the store
  }
}

TEST(LinkRing, SetDownDropsPropagatingAndLandedFramesThenRecovers) {
  sim::Simulator sim;
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 1, .latency = 1000, .buffer_frames = 4});
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
  ASSERT_EQ(store.live(), 4u);
  link.set_down();
  EXPECT_EQ(link.frames_dropped(), 4u);
  EXPECT_EQ(store.live(), 0u);  // the lost frames' handles are released
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
  EXPECT_EQ(store.live(), 0u);
}

TEST(LinkRing, TakeAndSetDownReleaseThePayload) {
  sim::Simulator sim;
  FramePool pool;
  FrameStore store;
  Link link(sim, store, "l",
            {.ns_per_byte = 1, .latency = 100, .buffer_frames = 4});
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
  EXPECT_EQ(w.use_count(), 1);  // the store's slot is the only holder
  EXPECT_EQ(pool.payloads_live(), 1u);
  {
    std::optional<Frame> got = link.take();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(w.use_count(), 1);  // moved out, not copied
    EXPECT_EQ(store.live(), 0u);
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
  EXPECT_EQ(store.live(), 2u);
  link.set_down();
  EXPECT_EQ(pool.payloads_live(), 0u);
  EXPECT_EQ(store.live(), 0u);
  sim.run();
  EXPECT_EQ(pool.payloads_live(), 0u);
}

TEST(LinkRing, RxHalfOverflowDropStillCreditsBack) {
  // A cross-shard RX half: frames arrive through deliver_remote(), every
  // freed or refused slot goes back to the TX half as a credit.
  sim::Simulator sim;
  FrameStore store;
  Link rx(sim, store, "c0>c1.rx",
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
  EXPECT_EQ(store.live(), 2u);  // the refused frame never entered the store
  // An arrival while down is dropped and credited too.
  rx.set_down();
  EXPECT_EQ(rx.frames_dropped(), 3u);
  EXPECT_EQ(credits, 3);  // + the two cleared slots
  EXPECT_EQ(store.live(), 0u);
  rx.deliver_remote(frame_to(1, 8));
  EXPECT_EQ(rx.frames_dropped(), 4u);
  EXPECT_EQ(credits, 4);
  EXPECT_EQ(store.live(), 0u);
  rx.set_up();
  Frame f = frame_to(1, 8);
  f.seq = 9;
  rx.deliver_remote(std::move(f));
  EXPECT_EQ(store.live(), 1u);
  EXPECT_EQ(rx.take()->seq, 9u);
  EXPECT_EQ(credits, 5);
  EXPECT_EQ(rx.peek(), nullptr);
  EXPECT_EQ(store.live(), 0u);
}

TEST(LinkRing, GrowsOnDemandOnly) {
  sim::Simulator sim;
  FrameStore store;
  // A 64-slot trunk-style link whose consumer takes every frame on
  // arrival: with 10 ns latency under 48 ns serialization it never holds
  // more than two frames (one still landing, one just sent), so the store
  // keeps reusing its first two slots (handles 0 and 1: a fresh chunk
  // hands out slots in index order, and freed slots come back first).
  Link link(sim, store, "l",
            {.ns_per_byte = 1, .latency = 10, .buffer_frames = 64});
  FrameStore::Handle max_handle = 0;
  link.set_deliver_cb([&] {
    const FrameStore::Handle h = link.take_handle();
    max_handle = std::max(max_handle, h);
    store.release(h);
  });
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
  EXPECT_LE(peak_depth, 3u);  // the transmitter + two queued frames
  EXPECT_EQ(max_handle, 1u);
  EXPECT_EQ(store.live(), 0u);
}

TEST(LinkQueue, PeekStaysValidWhileAnotherLinkGrowsTheStore) {
  // A peek pointer lives until its frame leaves the link: sends on other
  // links of the shard that make the store allocate new chunks never move
  // it.
  sim::Simulator sim;
  FrameStore store;
  Link a(sim, store, "a", {.ns_per_byte = 1, .latency = 0, .buffer_frames = 2});
  constexpr int kBurst = 3 * static_cast<int>(FrameStore::kChunkSlots);
  Link b(sim, store, "b",
         {.ns_per_byte = 1, .latency = 0, .buffer_frames = kBurst});
  Frame f = frame_to(1, 8);
  f.seq = 42;
  a.send(std::move(f));
  sim.run();
  const Frame* head = a.peek();
  ASSERT_NE(head, nullptr);
  for (int i = 0; i < kBurst; ++i) {
    b.send(frame_to(2, 8));
    sim.run();  // b's consumer never takes: every frame stays live
  }
  // Three chunks' worth of frames live at once: the store grew.
  EXPECT_EQ(b.buffered(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(store.live(), static_cast<std::size_t>(kBurst) + 1);
  EXPECT_EQ(a.peek(), head);
  EXPECT_EQ(head->seq, 42u);
  EXPECT_EQ(head->dst, 1);
  EXPECT_EQ(a.take()->seq, 42u);
}

TEST(LinkQueue, ForwardingAHandleMovesNoFrame) {
  // take_handle() + send_handle() is how a cluster forwards: the frame
  // keeps its slot (and address) from one link to the next.
  sim::Simulator sim;
  FrameStore store;
  const Link::Params p{.ns_per_byte = 1, .latency = 5, .buffer_frames = 2};
  Link in(sim, store, "in", p);
  Link out(sim, store, "out", p);
  Frame f = frame_to(1, 8);
  f.seq = 7;
  in.send(std::move(f));
  sim.run();
  const Frame* at = in.peek();
  ASSERT_NE(at, nullptr);
  const FrameStore::Handle h = in.take_handle();
  EXPECT_EQ(&store[h], at);
  EXPECT_EQ(in.take_handle(), FrameStore::kNone);  // nothing left
  ++store[h].hops;
  out.send_handle(h);
  sim.run();
  EXPECT_EQ(out.peek(), at);
  EXPECT_EQ(store.live(), 1u);
  const std::optional<Frame> got = out.take();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 7u);
  EXPECT_EQ(got->hops, 1);
  EXPECT_EQ(store.live(), 0u);
}

// ---- FrameStore ------------------------------------------------------------

TEST(FrameStore, ReusesTheLastFreedHandleFirst) {
  FrameStore store;
  const FrameStore::Handle a = store.put(frame_to(1, 8));
  const FrameStore::Handle b = store.put(frame_to(2, 8));
  const FrameStore::Handle c = store.put(frame_to(3, 8));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(store.live(), 3u);
  EXPECT_EQ(store.take(b).dst, 2);
  store.release(a);
  EXPECT_EQ(store.live(), 1u);
  // LIFO: the slot freed last comes back first, then the one before it.
  EXPECT_EQ(store.put(frame_to(4, 8)), a);
  EXPECT_EQ(store.put(frame_to(5, 8)), b);
  EXPECT_EQ(store[a].dst, 4);
  EXPECT_EQ(store[b].dst, 5);
  EXPECT_EQ(store[c].dst, 3);
  EXPECT_EQ(store.next(a), FrameStore::kNone);  // a put slot is unlinked
  EXPECT_EQ(store.live(), 3u);
}

TEST(FrameStore, AddressesStayPutAcrossGrowth) {
  FrameStore store;
  std::vector<FrameStore::Handle> handles;
  std::vector<const Frame*> addresses;
  const std::size_t n = 4 * FrameStore::kChunkSlots + 1;
  for (std::size_t i = 0; i < n; ++i) {
    Frame f = frame_to(1, 8);
    f.seq = i;
    handles.push_back(store.put(std::move(f)));
    addresses.push_back(&store[handles.back()]);
  }
  EXPECT_EQ(store.live(), n);  // five chunks' worth
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(&store[handles[i]], addresses[i]);
    ASSERT_EQ(store[handles[i]].seq, i);
  }
  for (const FrameStore::Handle h : handles) store.release(h);
  EXPECT_EQ(store.live(), 0u);
}

TEST(FrameStore, ReleaseDropsThePayloadAndTakeMovesIt) {
  FramePool pool;
  FrameStore store;
  const std::byte bytes[4] = {};
  Frame f = frame_to(1, 4);
  f.data = pool.make_copy(bytes, sizeof bytes);
  const FrameStore::Handle h = store.put(std::move(f));
  Frame g = frame_to(1, 4);
  g.data = pool.make_copy(bytes, sizeof bytes);
  const FrameStore::Handle k = store.put(std::move(g));
  EXPECT_EQ(pool.payloads_live(), 2u);
  store.release(h);
  EXPECT_EQ(pool.payloads_live(), 1u);
  {
    const Frame out = store.take(k);
    EXPECT_NE(out.data, nullptr);
    EXPECT_EQ(pool.payloads_live(), 1u);  // moved, still one holder
  }
  EXPECT_EQ(pool.payloads_live(), 0u);
  EXPECT_EQ(store.live(), 0u);
}

}  // namespace
}  // namespace hpcvorx::hw
