#include "hw/frame_store.hpp"

namespace hpcvorx::hw {

void FrameStore::grow() {
  assert(free_ == kNone && "grow with free slots left");
  assert(chunks_.size() < (std::size_t{kNone} >> kChunkShift) &&
         "frame store handle space exhausted");
  const auto base = static_cast<Handle>(chunks_.size() << kChunkShift);
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  Slot* const chunk = chunks_.back().get();
  for (std::size_t i = 0; i + 1 < kChunkSlots; ++i) {
    chunk[i].next = base + static_cast<Handle>(i + 1);
  }
  chunk[kChunkSlots - 1].next = kNone;
  free_ = base;
}

}  // namespace hpcvorx::hw
