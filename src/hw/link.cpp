#include "hw/link.hpp"

#include <algorithm>

namespace hpcvorx::hw {

void Link::send_handle(FrameStore::Handle h) {
  assert(ready() && "Link::send called while not ready");
  tx_busy_ = true;
  const std::uint32_t wire = store_[h].wire_bytes();
  const sim::Duration ser = static_cast<sim::Duration>(wire) * p_.ns_per_byte;
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
    bytes_carried_ += wire;
    remote_sink_(sim_.now() + ser + p_.latency, store_.take(h));
    return;
  }
  enqueue(h);
  sim_.schedule_after(ser + p_.latency, [this, e = fault_epoch_, wire] {
    if (e != fault_epoch_) return;
    deliver_head(wire);
  });
}

void Link::enqueue(FrameStore::Handle h) {
  assert(count_ < buffer_frames_ && "queue push beyond buffer_frames");
  store_.set_next(h, FrameStore::kNone);
  if (count_ == 0) {
    head_ = h;
  } else {
    store_.set_next(tail_, h);
  }
  tail_ = h;
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
  // The lost frames leave the store now, payloads released.
  for (FrameStore::Handle h = head_; count_ > 0; --count_) {
    const FrameStore::Handle next = store_.next(h);
    store_.release(h);
    h = next;
  }
  head_ = FrameStore::kNone;
  tail_ = FrameStore::kNone;
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
  // An RX half's queue holds landed frames only, so the arrival joins the
  // back of the buffer.
  enqueue(store_.put(std::move(f)));
  ++buffered_;
  peak_buffered_ = std::max<std::size_t>(peak_buffered_, buffered_);
  sample_depth();
  if (deliver_cb_) deliver_cb_();
}

void Link::deliver_head(std::uint32_t wire_bytes) {
  // The oldest propagating frame sits right behind the landed ones.
  assert(buffered_ < count_ && "delivery with nothing propagating");
  ++buffered_;
  ++frames_carried_;
  bytes_carried_ += wire_bytes;
  peak_buffered_ = std::max<std::size_t>(peak_buffered_, buffered_);
  sample_depth();
  if (deliver_cb_) deliver_cb_();
}

FrameStore::Handle Link::take_handle() {
  if (buffered_ == 0) return FrameStore::kNone;
  const FrameStore::Handle h = head_;
  head_ = store_.next(h);
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
  return h;
}

std::optional<Frame> Link::take() {
  const FrameStore::Handle h = take_handle();
  if (h == FrameStore::kNone) return std::nullopt;
  return store_.take(h);
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
