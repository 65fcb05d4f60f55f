// A self-routing HPC cluster: a 12-port star switch.
//
// §1 of the paper: "The HPC consists of several self-routing star networks
// called clusters, each of which contains twelve ports.  A port contains
// independent input and output sections that simultaneously run at
// 160 Mbit/sec and can connect to either a workstation, a processing node,
// or to another cluster."
//
// The switch is input-buffered (each incoming link's downstream buffer is
// the port's input fifo) and forwards whole frames.  Every output port has
// a round-robin arbiter over the input ports — the "fair hardware
// scheduling mechanism [that] ensures that every sender is eventually
// serviced" (§2).  Routing is computed: the Fabric supplies a route
// function (topology next-hop — e-cube, fat-tree up/down, adaptive — plus
// local station delivery) and the cluster resolves it once per head frame,
// caching the decision until that head is consumed.  The sticky cache is
// what makes occupancy-dependent (adaptive) decisions well defined: a head
// commits to one egress port and waits there, exactly like a self-routing
// switch that latched the route nibble, instead of flapping between ports
// as queue depths change (DESIGN.md §15).
//
// Arbitration cost scales with occupied inputs, not port count: the
// cluster keeps one bit per input port that holds a head frame, and an
// output arbiter visits only set bits, in round-robin order (DESIGN.md
// §16).  Every link of a cluster shares one FrameStore, so a forward moves
// the frame's handle from the input link to the output link; only
// multicast replication copies a frame.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/link.hpp"

namespace hpcvorx::hw {

inline constexpr int kClusterPorts = 12;

class Cluster {
 public:
  Cluster(sim::Simulator& sim, std::string name, int num_ports = kClusterPorts);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Attaches the incoming link whose downstream buffer is this port's
  /// input fifo.  The cluster subscribes to its delivery callback.  Every
  /// link attached to a cluster must share one FrameStore.
  void attach_in(int port, Link* in);

  /// Attaches the outgoing link transmitted by this port.  The cluster
  /// subscribes to its ready callback.
  void attach_out(int port, Link* out);

  /// The Fabric-supplied routing oracle: output port for a unicast frame,
  /// or -1 ("unreachable", see route drops below) when fault-time
  /// rerouting finds no surviving path.  Evaluated once per head frame per
  /// input port; the cached decision is invalidated when the head is
  /// consumed or routes change (on_routes_changed).
  using RouteFn = std::function<int(const Frame&)>;
  void set_route_fn(RouteFn fn) { route_fn_ = std::move(fn); }

  /// Rip-up (adaptive routing only, DESIGN.md §15): when an output port
  /// becomes ready and an input's head is committed to a port that cannot
  /// accept a frame right now, retire the cached decision and re-resolve
  /// against current occupancy.  Without this a head can pin itself to one
  /// full port inside a buffer-wait cycle and deadlock the fabric; with it
  /// a head moves as soon as *any* of its candidate ports drains.  Off
  /// (the default) a head's first decision is final — deterministic
  /// routing never needs a second look.
  void set_reroute_blocked_heads(bool on) { reroute_blocked_ = on; }

  /// Programs the replication set for hardware-multicast group `gid`: the
  /// output ports a group frame leaves through (tree children and/or
  /// local member stations).
  void set_multicast_route(std::uint64_t gid, std::vector<int> out_ports);

  [[nodiscard]] int num_ports() const { return static_cast<int>(outs_.size()); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// The outgoing link on `port` (nullptr when unattached).  Adaptive
  /// routing reads egress queue depths through this.
  [[nodiscard]] const Link* out_link(int port) const {
    assert(port >= 0 && port < num_ports());
    return outs_[static_cast<std::size_t>(port)];
  }

  // ---- fault injection (DESIGN.md §14) ----

  /// Power-cycles the switch: every frame parked in an input fifo is lost
  /// (counted in frames_dropped) and the arbiter state resets.  Routing
  /// tables survive — they are fabric-programmed configuration, not
  /// volatile switch state.
  void restart();

  /// Routes changed under live traffic (fault-time rerouting): drops input
  /// heads that became unroutable and kicks every output arbiter so heads
  /// that now route to a previously-idle port start moving.
  void on_routes_changed();

  /// Frames lost to restart() or to an unreachable destination (a -1
  /// route).  Dropped frames are never counted as forwarded.
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }

  // ---- counters (diagnostics and the trace exporter) ----
  //
  // Replica-accounting invariant (tested by hw_cluster_test.cpp): a
  // multicast frame replicated to k output ports counts k in
  // frames_forwarded *and* k x wire_bytes in bytes_forwarded — one unit
  // per physical copy leaving the switch, exactly like k unicast frames —
  // and the same k is attributed to the frame's group in
  // multicast_copies(gid).  Hence
  //   frames_forwarded == unicast forwards + multicast_copies_total().

  /// Frames forwarded through this cluster (multicast replicas counted
  /// once per output port).
  [[nodiscard]] std::uint64_t frames_forwarded() const { return forwarded_; }
  /// Wire bytes forwarded (same replica accounting as frames_forwarded).
  [[nodiscard]] std::uint64_t bytes_forwarded() const { return bytes_fwd_; }
  /// In-switch replicas made for hardware-multicast group `gid` (§4.2's
  /// "the clusters replicate the frame in the switches"): one count per
  /// output port each group frame was copied to.
  [[nodiscard]] std::uint64_t multicast_copies(std::uint64_t gid) const {
    const auto it = mcast_copies_.find(gid);
    return it == mcast_copies_.end() ? 0 : it->second;
  }
  /// In-switch replicas summed over every group.
  [[nodiscard]] std::uint64_t multicast_copies_total() const {
    return mcast_copies_total_;
  }
  /// Total time frames spent blocked at the head of an input fifo waiting
  /// for their output port (head-of-line time, summed over input ports).
  [[nodiscard]] sim::Duration head_of_line_blocked() const {
    return hol_blocked_;
  }

 private:
  /// Output port for the head frame of `in_port`, resolved through the
  /// route function at most once per head (sticky cache; see above).
  /// -1 when this cluster has no surviving route to the head's dst
  /// (possible only after fault-time rerouting; the caller drops).
  [[nodiscard]] int head_route(int in_port);
  [[nodiscard]] const std::vector<int>* mcast_route_for(const Frame& f) const;
  /// Forwards the multicast head of `in_port` to its whole replication
  /// set when every port there is ready.  Returns whether it went.
  bool forward_head(int in_port);
  void on_input(int in_port);
  void try_output(int out_port);
  /// Link::take_handle() on `in_port`, clearing its busy bit first when
  /// the last frame leaves (the take's upstream cascade may re-enter this
  /// switch).
  FrameStore::Handle pop_input(int in_port);
  /// pop + head-of-line accounting.  The caller owns the returned slot.
  FrameStore::Handle take_input(int in_port);
  void drop_head(int in_port);     // take + count as dropped
  /// Drops consecutive unroutable unicast heads of `in_port`.
  void drop_unroutable(int in_port);
  void sample_forwarded();
  void sample_mcast_copies(std::uint64_t gid);
  void mark_busy(int in_port) {
    busy_[static_cast<std::size_t>(in_port) >> 6] |= std::uint64_t{1}
                                                     << (in_port & 63);
  }
  void clear_busy(int in_port) {
    busy_[static_cast<std::size_t>(in_port) >> 6] &=
        ~(std::uint64_t{1} << (in_port & 63));
  }
  [[nodiscard]] bool any_busy() const {
    for (const std::uint64_t w : busy_) {
      if (w != 0) return true;
    }
    return false;
  }
  /// Records the store every attached link must share.
  void use_store(FrameStore& s) {
    assert((store_ == nullptr || store_ == &s) &&
           "a cluster's links must share one FrameStore");
    store_ = &s;
  }
  /// The lowest busy input port in [lo, hi), or -1.
  [[nodiscard]] int first_busy(int lo, int hi) const;

  sim::Simulator& sim_;
  std::string name_;
  FrameStore* store_ = nullptr;    // shared by every attached link
  std::vector<Link*> ins_;
  std::vector<Link*> outs_;
  std::vector<int> rr_next_;       // per-output round-robin cursor
  // Busy-input mask, one bit per input port (64 per word): set whenever a
  // frame lands, cleared before the last frame is taken.
  // An input emptied by Link::set_down() keeps a stale bit until an
  // arbiter finds its fifo empty and drops it, so a set bit means "look",
  // and a clear bit always means "empty".
  std::vector<std::uint64_t> busy_;
  // Reentrancy holds: taking an input frame frees an upstream buffer slot,
  // and that notification can cascade around a full-duplex cable pair back
  // into this switch before the take returns.  A held output port refuses
  // nested arbitration so the cascade cannot steal the slot between a
  // forwarding path's ready-check and its send; the holder rescans (or the
  // next link event re-kicks), so suppressed calls lose nothing.
  std::vector<int> out_hold_;
  RouteFn route_fn_;
  bool reroute_blocked_ = false;       // rip-up blocked heads (adaptive)
  std::vector<int> head_route_;        // per-input cached head decision
  std::vector<char> head_route_ok_;    // cache-valid flag per input port
  std::vector<sim::SimTime> hol_since_;  // per-input head-wait start (-1 idle)
  std::unordered_map<std::uint64_t, std::vector<int>> mcast_routes_;
  std::unordered_map<std::uint64_t, std::uint64_t> mcast_copies_;
  std::uint64_t mcast_copies_total_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t bytes_fwd_ = 0;
  std::uint64_t frames_dropped_ = 0;
  sim::Duration hol_blocked_ = 0;
};

}  // namespace hpcvorx::hw
