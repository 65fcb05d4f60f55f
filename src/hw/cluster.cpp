#include "hw/cluster.hpp"

#include <algorithm>
#include <bit>

namespace hpcvorx::hw {

int Cluster::first_busy(int lo, int hi) const {
  while (lo < hi) {
    const auto w = static_cast<std::size_t>(lo) >> 6;
    const std::uint64_t bits = busy_[w] >> (lo & 63);
    if (bits != 0) {
      const int p = lo + std::countr_zero(bits);
      return p < hi ? p : -1;
    }
    lo = static_cast<int>((w + 1) << 6);
  }
  return -1;
}

Cluster::Cluster(sim::Simulator& sim, std::string name, int num_ports)
    : sim_(sim),
      name_(std::move(name)),
      ins_(num_ports, nullptr),
      outs_(num_ports, nullptr),
      rr_next_(num_ports, 0),
      busy_((static_cast<std::size_t>(num_ports) + 63) / 64, 0),
      out_hold_(num_ports, 0),
      head_route_(num_ports, -1),
      head_route_ok_(num_ports, 0),
      hol_since_(num_ports, -1) {}

// Every frame leaves an input fifo through here.  The busy bit must clear
// *before* the take: the freed slot notifies upstream, and that cascade
// can come back around a full-duplex cable pair into this switch's
// arbiters, which must already see the fifo as empty — exactly as the fifo
// itself reads once the take has popped the frame.
FrameStore::Handle Cluster::pop_input(int in_port) {
  Link* in = ins_[static_cast<std::size_t>(in_port)];
  if (in->buffered() == 1) clear_busy(in_port);
  return in->take_handle();
}

// Consumes the head of `in_port`, closing its head-of-line wait span and
// opening one for the next frame (if any).  All cluster forwarding paths
// must take input frames through here so the blocked-time counter is exact
// and the head's cached route decision is retired with it.
FrameStore::Handle Cluster::take_input(int in_port) {
  const auto p = static_cast<std::size_t>(in_port);
  if (hol_since_[p] >= 0) {
    hol_blocked_ += sim_.now() - hol_since_[p];
    hol_since_[p] = -1;
  }
  head_route_ok_[p] = 0;
  const FrameStore::Handle h = pop_input(in_port);
  assert(h != FrameStore::kNone && "take_input with an empty input fifo");
  if (ins_[p]->buffered() != 0) hol_since_[p] = sim_.now();
  return h;
}

// Samples the cumulative forwarding counters after a forward completed.
void Cluster::sample_forwarded() {
  sim::CounterTimeline& ct = sim_.counters();
  if (!ct.enabled()) return;
  ct.sample(name_, "kbytes_forwarded", sim_.now(),
            static_cast<double>(bytes_fwd_) / 1e3);
  ct.sample(name_, "hol_blocked_us", sim_.now(), sim::to_usec(hol_blocked_));
}

// Samples the in-switch replica count for one group after a replication.
void Cluster::sample_mcast_copies(std::uint64_t gid) {
  sim::CounterTimeline& ct = sim_.counters();
  if (!ct.enabled()) return;
  ct.sample(name_, "mcast_copies.g" + std::to_string(gid), sim_.now(),
            static_cast<double>(mcast_copies_[gid]));
}

void Cluster::attach_in(int port, Link* in) {
  assert(port >= 0 && port < num_ports() && ins_[port] == nullptr);
  use_store(in->store());
  ins_[port] = in;
  in->set_deliver_cb([this, port] { on_input(port); });
}

void Cluster::attach_out(int port, Link* out) {
  assert(port >= 0 && port < num_ports() && outs_[port] == nullptr);
  use_store(out->store());
  outs_[port] = out;
  out->set_ready_cb([this, port] { try_output(port); });
}

void Cluster::set_multicast_route(std::uint64_t gid,
                                  std::vector<int> out_ports) {
  mcast_routes_[gid] = std::move(out_ports);
}

const std::vector<int>* Cluster::mcast_route_for(const Frame& f) const {
  auto it = mcast_routes_.find(f.group);
  assert(it != mcast_routes_.end() &&
         "group frame at a cluster with no multicast route");
  return &it->second;
}

int Cluster::head_route(int in_port) {
  const auto p = static_cast<std::size_t>(in_port);
  if (head_route_ok_[p] == 0) {
    const Frame* head = ins_[p]->peek();
    assert(head != nullptr && "head_route with an empty input fifo");
    assert(route_fn_ && "cluster forwarding before set_route_fn");
    assert(head->dst >= 0);
    head_route_[p] = route_fn_(*head);
    head_route_ok_[p] = 1;
  }
  return head_route_[p];
}

// Consumes the head of `in_port` as a routing-fault loss: unreachable
// destination after rerouting, or a restart() wiping the fifo.
void Cluster::drop_head(int in_port) {
  store_->release(take_input(in_port));
  ++frames_dropped_;
}

void Cluster::drop_unroutable(int in_port) {
  while (const Frame* head = ins_[in_port]->peek()) {
    if (head->group != 0 || head_route(in_port) >= 0) return;
    drop_head(in_port);
  }
}

void Cluster::restart() {
  for (int p = 0; p < num_ports(); ++p) {
    if (ins_[static_cast<std::size_t>(p)] == nullptr) continue;
    // Draining through pop_input (not take_input) keeps the upstream
    // flow-control exact — freed slots notify the sender / credit the peer
    // shard — while the head-of-line clocks simply reset.
    for (FrameStore::Handle h = pop_input(p); h != FrameStore::kNone;
         h = pop_input(p)) {
      store_->release(h);
      ++frames_dropped_;
    }
    clear_busy(p);  // also drops a stale bit left by Link::set_down()
    hol_since_[static_cast<std::size_t>(p)] = -1;
    head_route_ok_[static_cast<std::size_t>(p)] = 0;
  }
  std::fill(rr_next_.begin(), rr_next_.end(), 0);
}

void Cluster::on_routes_changed() {
  // Every cached head decision may reference a dead route: retire them all
  // so the next touch re-resolves against the post-fault tables.
  std::fill(head_route_ok_.begin(), head_route_ok_.end(), char{0});
  for (int p = 0; p < num_ports(); ++p) {
    if (ins_[static_cast<std::size_t>(p)] != nullptr) drop_unroutable(p);
  }
  for (int p = 0; p < num_ports(); ++p) {
    if (outs_[static_cast<std::size_t>(p)] != nullptr) try_output(p);
  }
}

void Cluster::on_input(int in_port) {
  const Frame* head = ins_[in_port]->peek();
  if (head == nullptr) return;  // already forwarded by a nested callback
  mark_busy(in_port);
  // Open the head-of-line wait span now; take_input closes it (a frame
  // forwarded within this event cascade accrues zero, as time stands still).
  if (hol_since_[static_cast<std::size_t>(in_port)] < 0) {
    hol_since_[static_cast<std::size_t>(in_port)] = sim_.now();
  }
  if (head->group != 0) {
    forward_head(in_port);
    return;
  }
  const int r = head_route(in_port);
  if (r < 0) {
    drop_unroutable(in_port);
    return;
  }
  try_output(r);
}

// Attempts to forward the multicast head frame of `in_port` (unicast heads
// go through head_route + try_output).  Returns true if the head was
// consumed.
bool Cluster::forward_head(int in_port) {
  const Frame* head = ins_[in_port]->peek();
  assert(head != nullptr && head->group != 0 &&
         "forward_head takes multicast heads only");
  // Hardware multicast: the frame is replicated to every port in the
  // group's replication set, and may proceed only when *all* of them can
  // accept a whole frame (replication cannot be half-done).
  const std::vector<int>& ports = *mcast_route_for(*head);
  for (int p : ports) {
    if (outs_[static_cast<std::size_t>(p)] == nullptr ||
        !outs_[static_cast<std::size_t>(p)]->ready()) {
      return false;
    }
  }
  // Hold every replication port across the take: its upstream-notify
  // cascade must not re-enter their arbiters and steal a checked slot.
  for (int p : ports) ++out_hold_[static_cast<std::size_t>(p)];
  const FrameStore::Handle h = take_input(in_port);
  Frame& f = (*store_)[h];
  ++f.hops;
  const std::uint64_t gid = f.group;
  const std::uint32_t wire = f.wire_bytes();
  // Replication: every port but the last gets a copy in a fresh slot (the
  // store never moves `f` as it grows); the last port gets the original.
  // The original goes last because a cross-shard send moves it out.
  for (std::size_t i = 0; i < ports.size(); ++i) {
    ++forwarded_;
    bytes_fwd_ += wire;
    Link* out = outs_[static_cast<std::size_t>(ports[i])];
    out->send_handle(i + 1 < ports.size() ? store_->put(f) : h);
  }
  if (ports.empty()) store_->release(h);
  for (int p : ports) --out_hold_[static_cast<std::size_t>(p)];
  // Replica accounting: k output ports -> k counted above, and the same k
  // attributed to the frame's group (see the invariant in cluster.hpp).
  const auto copies = static_cast<std::uint64_t>(ports.size());
  mcast_copies_[gid] += copies;
  mcast_copies_total_ += copies;
  sample_forwarded();
  sample_mcast_copies(gid);
  // The next head may be unicast or multicast; give it a chance now.
  if (const Frame* next = ins_[in_port]->peek()) {
    if (next->group != 0) {
      forward_head(in_port);
    } else {
      const int r = head_route(in_port);
      if (r < 0) {
        drop_unroutable(in_port);
      } else {
        try_output(r);
      }
    }
  }
  return true;
}

void Cluster::try_output(int out_port) {
  // No input holds a frame: nothing can be taken, routed or dropped, so
  // skip reading the output link.
  if (!any_busy()) return;
  Link* out = outs_[out_port];
  if (out == nullptr) return;
  // A held port is mid-forward further up the call stack (see out_hold_):
  // bail out rather than race it for the slot; the holder rescans.
  if (out_hold_[static_cast<std::size_t>(out_port)] != 0) return;
  ++out_hold_[static_cast<std::size_t>(out_port)];
  const struct Release {
    int* hold;
    ~Release() { --*hold; }
  } release{&out_hold_[static_cast<std::size_t>(out_port)]};
  // Keep forwarding while the output link can accept frames and some input
  // port's head-of-line frame routes here.  Scanning starts at the
  // round-robin cursor so all inputs get fair service under contention,
  // and visits only busy inputs: the scan re-reads the live mask at every
  // step, so nested forwards that empty an input mid-scan are seen exactly
  // as a port-by-port walk of the fifos would see them.
  while (out->ready()) {
    const int n = num_ports();
    int chosen = -1;
    for (int i = 0; i < n; ++i) {
      // Advance i to the next busy input at round-robin offset >= i.
      const int rr = rr_next_[out_port];
      int p = rr + i < n ? first_busy(rr + i, n) : -1;
      if (p < 0) p = first_busy(rr + i < n ? 0 : rr + i - n, rr);
      if (p < 0) break;
      i = p >= rr ? p - rr : p + n - rr;
      const Frame* head = ins_[p]->peek();
      if (head == nullptr) {
        clear_busy(p);  // emptied by Link::set_down()
        continue;
      }
      if (head->group != 0) {
        // A multicast head whose replication set includes this port may
        // now be able to go (this port just became ready).
        const std::vector<int>& ports = *mcast_route_for(*head);
        if (std::find(ports.begin(), ports.end(), out_port) != ports.end()) {
          if (forward_head(p) && !out->ready()) return;
        }
        continue;
      }
      int r = head_route(p);
      if (r >= 0 && r != out_port && reroute_blocked_ &&
          (outs_[static_cast<std::size_t>(r)] == nullptr ||
           !outs_[static_cast<std::size_t>(r)]->ready())) {
        // Rip-up: the head committed to a port that cannot accept it now
        // while this one can — re-resolve against current occupancy (see
        // set_reroute_blocked_heads).
        head_route_ok_[static_cast<std::size_t>(p)] = 0;
        r = head_route(p);
      }
      if (r < 0) {
        // Destination became unreachable while the frame queued: drop it
        // and re-examine this input's new head on the next scan step.
        drop_unroutable(p);
        --i;
        continue;
      }
      if (r == out_port) {
        chosen = p;
        break;
      }
    }
    if (chosen < 0) return;
    rr_next_[out_port] = (chosen + 1) % n;
    // The frame stays in its store slot; only its handle moves on.
    const FrameStore::Handle h = take_input(chosen);  // frees the input slot
    Frame& f = (*store_)[h];
    ++f.hops;
    ++forwarded_;
    bytes_fwd_ += f.wire_bytes();
    out->send_handle(h);
    sample_forwarded();
    // Head-of-line unblocking: the frame now at the head of this input may
    // route to a *different* output that has been idle all along (so its
    // ready callback will never fire).  Kick that output's arbiter.
    if (const Frame* next_head = ins_[chosen]->peek()) {
      if (next_head->group != 0) {
        forward_head(chosen);
      } else {
        const int other = head_route(chosen);
        if (other < 0) {
          drop_unroutable(chosen);
        } else if (other != out_port) {
          try_output(other);
        }
      }
    }
  }
}

}  // namespace hpcvorx::hw
