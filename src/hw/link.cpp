#include "hw/link.hpp"

#include <algorithm>

namespace hpcvorx::hw {

void Link::send(Frame f) {
  assert(ready() && "Link::send called while not ready");
  tx_busy_ = true;
  const sim::Duration ser =
      static_cast<sim::Duration>(f.wire_bytes()) * p_.ns_per_byte;
  // Transmitter frees after serialization; the frame lands one propagation
  // latency later.  Both completion events carry the fault epoch: a
  // set_down() between send and completion bumps it and the stale event
  // no-ops (the fault path already reset tx_busy_ / dropped the frame).
  sim_.schedule_after(ser, [this, e = fault_epoch_] {
    if (e != fault_epoch_) return;
    tx_busy_ = false;
    notify_ready();
  });
  if (remote_) {
    // Cross-shard TX half: reserve the peer-side buffer slot now (freed by
    // remote_credit) and hand the frame over immediately — the sink must
    // see it during the window that sent it, not one latency later, or the
    // peer's barrier drain would find it a window too late.  Carried
    // counters tick here; the RX half counts nothing, so a split link's
    // totals match its intra-shard equivalent.
    ++remote_unacked_;
    ++frames_carried_;
    bytes_carried_ += f.wire_bytes();
    remote_sink_(sim_.now() + ser + p_.latency, std::move(f));
    return;
  }
  push_back(std::move(f));
  sim_.schedule_after(ser + p_.latency, [this, e = fault_epoch_] {
    if (e != fault_epoch_) return;
    deliver_head();
  });
}

void Link::push_back(Frame&& f) {
  if (count_ == slots_.size()) {
    // Full: double (first use: 2 slots), capped at buffer_frames — ready()
    // never lets the ring hold more.  The frames move to the front of the
    // new storage in FIFO order.
    const std::size_t cap = std::min<std::size_t>(
        std::max<std::size_t>(2 * slots_.size(), 2), buffer_frames_);
    assert(cap > count_ && "ring push beyond buffer_frames");
    std::vector<Frame> grown(cap);
    for (std::uint32_t i = 0; i < count_; ++i) {
      grown[i] = std::move(slots_[slot(i)]);
    }
    slots_.swap(grown);
    head_ = 0;
  }
  slots_[slot(count_)] = std::move(f);
  ++count_;
}

void Link::set_down() {
  if (down_) return;
  down_ = true;
  ++fault_epoch_;
  tx_busy_ = false;
  frames_dropped_ += count_;
  // RX half: every cleared buffer slot is reported back as a credit, or
  // the peer TX half's slot accounting would leak the lost frames' slots.
  if (credit_cb_) {
    for (std::uint32_t i = 0; i < buffered_; ++i) credit_cb_(sim_.now());
  }
  // The lost frames' payloads are released now, not when a slot is next
  // overwritten.
  for (std::uint32_t i = 0; i < count_; ++i) slots_[slot(i)].data.reset();
  head_ = 0;
  count_ = 0;
  buffered_ = 0;
  // TX half: the peer RX clears its buffer (and drops late arrivals) at
  // the same virtual time, so every reserved slot is gone; the credits it
  // emits for them are absorbed by the post-fault guard in remote_credit.
  remote_unacked_ = 0;
}

void Link::set_up() {
  if (!down_) return;
  down_ = false;
  ++fault_epoch_;
  tx_busy_ = false;
  notify_ready();
}

void Link::remote_credit() {
  assert(remote_ && "credit on a link that is not a cross-shard TX half");
  assert(remote_unacked_ > 0 || fault_epoch_ > 0);
  // A set_down() zeroed the count while this credit was in flight; the
  // slot it frees was already reclaimed, so the credit is stale.
  if (remote_unacked_ > 0) --remote_unacked_;
  notify_ready();
}

void Link::deliver_remote(Frame f) {
  // Cross-shard RX half: serialization, propagation, and the carried
  // counters all happened on the peer shard's TX half; the frame only
  // lands in the downstream buffer here.  The credit protocol bounds
  // outstanding frames to the buffer size, so this never overflows —
  // except around a fault, where a pre-outage frame can arrive after slot
  // accounting was reset; such arrivals are dropped and credited back.
  if (down_ || buffered_ >= buffer_frames_) {
    assert((down_ || fault_epoch_ > 0) && "RX overflow on a never-faulted link");
    ++frames_dropped_;
    if (credit_cb_) credit_cb_(sim_.now());
    return;
  }
  // An RX half's ring holds landed frames only, so the arrival joins the
  // back of the buffer.
  push_back(std::move(f));
  ++buffered_;
  peak_buffered_ = std::max<std::size_t>(peak_buffered_, buffered_);
  sample_depth();
  if (deliver_cb_) deliver_cb_();
}

void Link::deliver_head() {
  // The oldest propagating frame sits right behind the landed ones.
  assert(buffered_ < count_ && "delivery with nothing propagating");
  const Frame& f = slots_[slot(buffered_)];
  ++buffered_;
  ++frames_carried_;
  bytes_carried_ += f.wire_bytes();
  peak_buffered_ = std::max<std::size_t>(peak_buffered_, buffered_);
  sample_depth();
  if (deliver_cb_) deliver_cb_();
}

std::optional<Frame> Link::take() {
  if (buffered_ == 0) return std::nullopt;
  // Moving out leaves the slot's payload pointer null: the ring keeps no
  // reference to a frame it no longer holds.
  std::optional<Frame> f(std::move(slots_[head_]));
  head_ = static_cast<std::uint32_t>(slot(1));
  --buffered_;
  --count_;
  sample_depth();
  if (credit_cb_) {
    // RX half: the freed slot is reported to the peer shard's TX half as a
    // credit taking effect one link latency from now (the reverse wire).
    credit_cb_(sim_.now());
  } else {
    notify_ready();
  }
  return f;
}

void Link::sample_depth() {
  sim::CounterTimeline& ct = sim_.counters();
  if (!ct.enabled()) return;
  ct.sample(name_, "buffered_frames", sim_.now(),
            static_cast<double>(buffered_));
  ct.sample(name_, "kbytes_carried", sim_.now(),
            static_cast<double>(bytes_carried_) / 1e3);
}

}  // namespace hpcvorx::hw
