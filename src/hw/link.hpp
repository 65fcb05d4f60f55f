// A unidirectional HPC link with hardware flow control.
//
// §2 of the paper: "Each HPC link ... refuses to accept a message unless
// the hardware has room to buffer an entire message, forcing the sender to
// wait until the space is available."  A Link therefore owns the
// downstream whole-frame buffer; a frame may start transmission only when
// a buffer slot can be reserved, so frames are never lost.
//
// Timing: a frame occupies the transmitter for wire_bytes * ns_per_byte
// (serialization at 160 Mbit/s = 50 ns/byte) and lands in the downstream
// buffer a propagation latency later.  The upstream entity is notified via
// ready_cb whenever the link may have become ready (this is the source of
// the "room became available" transmit interrupt on node output links).
//
// Storage: a link holds no frames of its own.  Its frames live in the
// shard's FrameStore (frame_store.hpp), and the link keeps a FIFO of their
// handles, linked through the store: the frames parked in the downstream
// buffer first, the frames still propagating behind them.  ready() bounds
// the queue by buffer_frames.  A link therefore owns no heap, and
// forwarding a frame from one link to the next moves a handle, not the
// frame.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "hw/frame.hpp"
#include "hw/frame_store.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {

class Link {
 public:
  struct Params {
    sim::Duration ns_per_byte = 50;        // 160 Mbit/s
    sim::Duration latency = sim::usec(0.5);  // propagation + port logic
    int buffer_frames = 2;                 // downstream whole-frame slots
  };

  /// `store` holds the link's frames; it is shared by every link on the
  /// same shard and must outlive the link.
  Link(sim::Simulator& sim, FrameStore& store, std::string name, Params p)
      : buffer_frames_(static_cast<std::uint32_t>(p.buffer_frames)),
        store_(store),
        sim_(sim),
        p_(p),
        name_(std::move(name)) {
    assert(p_.buffer_frames >= 1);
  }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// True when a frame may be sent now: the link is up, the transmitter is
  /// free and a downstream buffer slot can be reserved.  On a cross-shard
  /// TX half the downstream buffer lives on the peer shard, so slot
  /// accounting runs on credits: a slot is reserved at send and released by
  /// remote_credit().
  [[nodiscard]] bool ready() const {
    return !down_ && !tx_busy_ && occupied() < buffer_frames_;
  }

  /// Starts transmitting `f`: puts it into the store and sends its handle.
  /// Precondition: ready().
  void send(Frame f) { send_handle(store_.put(std::move(f))); }

  /// Starts transmitting the frame in store slot `h`, which no other link
  /// holds; the link owns the slot from now on.  Precondition: ready().
  void send_handle(FrameStore::Handle h);

  /// Invoked whenever the link may have become ready (the consumer must
  /// re-check ready()).  Models the transmit-space-available interrupt.
  void set_ready_cb(std::function<void()> cb) { ready_cb_ = std::move(cb); }

  // ---- downstream (receiving) side ----

  /// Frame at the head of the downstream buffer, or nullptr.  Store slots
  /// never move, so the pointer stays valid until that frame leaves this
  /// link (take(), take_handle() or set_down()), whatever other links of
  /// the shard send or take meanwhile.
  [[nodiscard]] const Frame* peek() const {
    return buffered_ == 0 ? nullptr : &store_[head_];
  }

  /// Removes the head frame, freeing a buffer slot (which may allow the
  /// upstream transmitter to proceed), and moves it out of the store.
  std::optional<Frame> take();

  /// Removes the head frame like take() but leaves it in the store: the
  /// caller owns the returned slot and must send_handle() or release it.
  /// kNone when nothing is buffered.
  FrameStore::Handle take_handle();

  /// The store this link's frames live in.
  [[nodiscard]] FrameStore& store() const { return store_; }

  /// Invoked each time a frame lands in the downstream buffer.
  void set_deliver_cb(std::function<void()> cb) { deliver_cb_ = std::move(cb); }

  [[nodiscard]] std::size_t buffered() const { return buffered_; }

  /// Frames queued at or beyond this link's transmitter as the sender sees
  /// them: serializing + propagating + parked downstream (or sent-but-
  /// uncredited on a cross-shard TX half).  The per-link congestion signal
  /// adaptive routing scores egress candidates by (DESIGN.md §15);
  /// everything counted is shard-local state, so reading it from the
  /// owning cluster's route decision is race-free.
  [[nodiscard]] std::size_t queue_depth() const {
    return (tx_busy_ ? 1u : 0u) + occupied();
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Params& params() const { return p_; }

  // ---- cross-shard halves (see hw/shard_link.hpp, DESIGN.md §12) ----
  //
  // A link whose endpoints live on different shards is split into a TX
  // half on the sending shard and an RX half on the receiving shard.  The
  // TX half hands (arrival time, frame) to `sink` at send time instead of
  // buffering locally; the RX half owns the downstream buffer and reports
  // each freed slot back as a credit that takes effect one link latency
  // later — the reverse-direction wire signal.  Both directions therefore
  // keep every cross-shard effect at least one latency in the future,
  // which is what the runtime's lookahead window relies on.

  /// Makes this the TX half.  `sink` receives (arrival time, frame) for
  /// every send, the frame moved out of this shard's store; arrival = now
  /// + serialization + latency.
  void set_remote_sink(std::function<void(sim::SimTime, Frame)> sink) {
    remote_sink_ = std::move(sink);
    remote_ = static_cast<bool>(remote_sink_);
  }

  /// A peer-shard buffer slot freed (credit signal arrived): TX half only.
  void remote_credit();

  /// A frame from the peer shard's TX half lands in the downstream buffer,
  /// put into this shard's store: RX half only (scheduled at its
  /// precomputed arrival time).
  void deliver_remote(Frame f);

  /// Makes this the RX half: take() reports each freed slot through `cb`
  /// (with the take timestamp) instead of notifying a local transmitter.
  void set_credit_cb(std::function<void(sim::SimTime)> cb) {
    credit_cb_ = std::move(cb);
  }

  // ---- fault injection (DESIGN.md §14) ----
  //
  // A downed link models a failed cable: frames being serialized, frames
  // propagating, and frames parked in the downstream buffer are all lost
  // (counted in frames_dropped), and ready() stays false until set_up().
  // Loss is implemented with an epoch guard: every in-flight completion
  // event captured the epoch at send time and no-ops when a fault bumped
  // it, so a fault never leaves a dangling event poking freed state.  On a
  // cross-shard pair the injector calls set_down()/set_up() on BOTH halves
  // at the same virtual time, each on its own shard; cleared RX slots are
  // credited back so the TX half's slot accounting stays exact.

  /// Cable fails.  Idempotent; safe at any point of a transfer.
  void set_down();
  /// Cable replaced: transmitter idle, buffer empty, consumers notified.
  void set_up();
  [[nodiscard]] bool is_down() const { return down_; }
  /// Frames lost to set_down()/arrival-while-down (never counted as
  /// carried).
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }

  // ---- counters (diagnostics and the trace exporter) ----

  /// Cumulative frames delivered downstream.
  [[nodiscard]] std::uint64_t frames_carried() const { return frames_carried_; }
  /// Cumulative wire bytes (payload + header) delivered downstream.
  [[nodiscard]] std::uint64_t bytes_carried() const { return bytes_carried_; }
  /// High-water mark of the downstream buffer occupancy.
  [[nodiscard]] std::size_t peak_buffered() const { return peak_buffered_; }

 private:
  void notify_ready() {
    if (ready_cb_ && ready()) ready_cb_();
  }
  /// Downstream slots reserved: queued frames on an intra-shard link or an
  /// RX half, sent-but-uncredited frames on a TX half (whose queue stays
  /// empty, while every other link's remote_unacked_ stays 0).
  [[nodiscard]] std::uint32_t occupied() const {
    return count_ + remote_unacked_;
  }
  /// Queues `h` behind every frame the link holds.
  void enqueue(FrameStore::Handle h);
  /// The oldest propagating frame, `wire_bytes` long, lands.
  void deliver_head(std::uint32_t wire_bytes);
  void sample_depth();

  // ready() and queue_depth() read only these five fields; they lead the
  // object so scoring an adaptive candidate touches one cache line.
  std::uint32_t count_ = 0;           // queued frames: landed + propagating
  std::uint32_t remote_unacked_ = 0;  // TX half: sent, credit not yet back
  std::uint32_t buffer_frames_;       // p_.buffer_frames
  bool tx_busy_ = false;
  bool down_ = false;
  bool remote_ = false;               // TX half: remote_sink_ is set
  // The queue: `count_` handles from head_ to tail_, linked through the
  // store.  The first `buffered_` have landed.  Propagating frames land in
  // send order: the transmitter serializes sends, so a later frame's
  // arrival (start + ser_a + ser_b + latency) is strictly after an earlier
  // one's (start + ser_a + latency).  Landing one is therefore a counter
  // move, and the delivery event captures the frame's wire bytes, so it
  // reads no frame.
  FrameStore::Handle head_ = FrameStore::kNone;
  FrameStore::Handle tail_ = FrameStore::kNone;
  std::uint32_t buffered_ = 0;
  // Bumped by every set_down()/set_up(); in-flight serialization and
  // delivery events captured the epoch at send time and no-op on mismatch.
  std::uint32_t fault_epoch_ = 0;
  FrameStore& store_;
  sim::Simulator& sim_;
  // What send, landing and take touch follows, so a hop reads a few
  // adjacent cache lines of the link; cold state goes last.
  Params p_;
  std::uint64_t frames_carried_ = 0;
  std::uint64_t bytes_carried_ = 0;
  std::size_t peak_buffered_ = 0;
  std::function<void()> ready_cb_;
  std::function<void()> deliver_cb_;
  // Cross-shard halves (both empty on an ordinary intra-shard link).
  std::function<void(sim::SimTime)> credit_cb_;           // RX half
  std::function<void(sim::SimTime, Frame)> remote_sink_;  // TX half
  std::string name_;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace hpcvorx::hw
