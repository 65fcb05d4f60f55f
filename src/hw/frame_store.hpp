// Frame slots shared by every Link of one shard.
//
// §2 of the paper: an HPC link buffers *whole* frames, so a frame sits in
// exactly one buffer at a time.  The store models that directly: a frame
// entering the fabric is put into one slot and stays there until it
// leaves; a Link queues 4-byte handles to slots, and a Cluster forwards a
// frame by moving its handle from an input link to an output link.  Frames
// are copied only where they enter or leave the fabric (Endpoint transmit
// and receive, the cross-shard halves, hardware multicast replication).
//
// Slots live in fixed-size chunks that are allocated on demand and never
// moved or freed before the store is destroyed, so growth never moves a
// frame: a `Frame&` (or a Link::peek() pointer) stays valid until that
// frame leaves the store.  Each slot carries a `next` handle, which links
// a Link's queue through the store (an intrusive FIFO) and chains the free
// slots.  The free list is LIFO, so a put reuses the slot freed last,
// which is still warm in cache.
//
// Not thread-safe: the Fabric owns one store per shard, touched only by
// that shard's thread.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hw/frame.hpp"

namespace hpcvorx::hw {

class FrameStore {
 public:
  /// Names one slot.  Valid from put() until take()/release().
  using Handle = std::uint32_t;
  static constexpr Handle kNone = ~Handle{0};

  FrameStore() = default;
  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;

  /// Moves `f` into a free slot (growing the store by one chunk when none
  /// is free) and returns its handle; the slot's next() is kNone.
  [[nodiscard]] Handle put(Frame f) {
    if (free_ == kNone) grow();
    const Handle h = free_;
    Slot& s = slot(h);
    free_ = s.next;
    s.frame = std::move(f);
    s.next = kNone;
    ++live_;
    return h;
  }

  /// Moves the frame out of slot `h` and frees the slot.
  [[nodiscard]] Frame take(Handle h) {
    Slot& s = slot(h);
    Frame f = std::move(s.frame);  // leaves the slot's payload null
    free_slot(h, s);
    return f;
  }

  /// Drops the frame in slot `h` (releasing its payload now) and frees the
  /// slot.
  void release(Handle h) {
    Slot& s = slot(h);
    s.frame.data.reset();
    free_slot(h, s);
  }

  [[nodiscard]] Frame& operator[](Handle h) { return slot(h).frame; }

  /// The handle queued behind `h` (a Link's FIFO link), or kNone.
  [[nodiscard]] Handle next(Handle h) const { return slot(h).next; }
  void set_next(Handle h, Handle n) { slot(h).next = n; }

  /// Frames currently held (put and not yet taken or released).  A drained
  /// fabric holds none: the conservation check
  /// `delivered + dropped + live == sent` reads this.
  [[nodiscard]] std::size_t live() const { return live_; }

  /// Slots per chunk: the store's growth step.
  static constexpr unsigned kChunkShift = 8;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkShift;

 private:
  struct Slot {
    Frame frame;
    Handle next = kNone;
  };

  [[nodiscard]] Slot& slot(Handle h) {
    assert(h != kNone && (h >> kChunkShift) < chunks_.size());
    return chunks_[h >> kChunkShift][h & (kChunkSlots - 1)];
  }
  [[nodiscard]] const Slot& slot(Handle h) const {
    assert(h != kNone && (h >> kChunkShift) < chunks_.size());
    return chunks_[h >> kChunkShift][h & (kChunkSlots - 1)];
  }
  void free_slot(Handle h, Slot& s) {
    assert(live_ > 0);
    s.next = free_;
    free_ = h;
    --live_;
  }
  /// Appends one chunk and chains its slots onto the (empty) free list in
  /// index order.
  void grow();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Handle free_ = kNone;
  std::size_t live_ = 0;
};

}  // namespace hpcvorx::hw
