#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "apps/fft.hpp"
#include "apps/fft2d_app.hpp"
#include "hw/fabric.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tools/trace_export.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"
#include "vorx/workload.hpp"

namespace perfbench {

using namespace hpcvorx;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "storm") return Workload::kStorm;
  if (name == "net4096") return Workload::kNet4096;
  if (name == "fft2d") return Workload::kFft2d;
  return std::nullopt;
}

double Rep::get(const std::string& name) const {
  for (const auto& [k, v] : det) {
    if (k == name) return v;
  }
  return 0;
}

namespace {

// Counter timelines of the traced run are decimated to this many samples
// so a 40k-user storm cannot grow them without bound.
constexpr std::size_t kCounterSamples = std::size_t{1} << 17;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }
double ns_to_ms(sim::Duration d) { return static_cast<double>(d) / 1e6; }
double ns_to_us(sim::Duration d) { return static_cast<double>(d) / 1e3; }

void enable_counters(sim::Simulator& s) {
  s.counters().enable(true);
  s.counters().set_retention(sim::CounterTimeline::Retention::kDecimate,
                             kCounterSamples);
}

void export_counters(const sim::Simulator& s, const TraceSink& trace,
                     Rep& r) {
  if (trace.tracer == nullptr || trace.counters_path.empty()) return;
  tools::TraceExporter ex;
  ex.add_counters(s.counters());
  if (!ex.write_file(trace.counters_path)) {
    r.errors.push_back("cannot write " + trace.counters_path);
  }
}

// ---- per-layer counts, read through public accessors -----------------------

void put_sim(Rep& r, const sim::Simulator& s) {
  const auto& q = s.queue_stats();
  const double inserts = static_cast<double>(q.l0_inserts + q.l1_inserts +
                                             q.heap_inserts);
  r.put("sim.events", static_cast<double>(s.events_executed()));
  r.put("sim.events_per_drain", ratio(static_cast<double>(q.drained_events),
                                      static_cast<double>(q.bucket_drains)));
  r.put("sim.heap_insert_share",
        ratio(static_cast<double>(q.heap_inserts), inserts));
}

/// `delivered`: frames handed to stations, the denominator of hops/frame.
void put_hw(Rep& r, hw::Fabric& f, std::uint64_t delivered) {
  std::uint64_t forwarded = 0;
  std::uint64_t mcast = 0;
  sim::Duration hol = 0;
  std::size_t peak = 0;
  for (int c = 0; c < f.num_clusters(); ++c) {
    const hw::Cluster& cl = f.cluster(c);
    forwarded += cl.frames_forwarded();
    mcast += cl.multicast_copies_total();
    hol += cl.head_of_line_blocked();
    for (int p = 0; p < cl.num_ports(); ++p) {
      if (const hw::Link* l = cl.out_link(p)) {
        peak = std::max(peak, l->peak_buffered());
      }
    }
  }
  r.put("hw.frames_forwarded", static_cast<double>(forwarded));
  r.put("hw.hops_per_frame", ratio(static_cast<double>(forwarded),
                                   static_cast<double>(delivered)));
  r.put("hw.hol_blocked_ms", ns_to_ms(hol));
  r.put("hw.link_peak_buffered", static_cast<double>(peak));
  r.put("hw.mcast_copies", static_cast<double>(mcast));
  r.put("hw.frames_dropped", static_cast<double>(f.frames_dropped()));
  r.put("hw.route_kb", static_cast<double>(f.routing_state_bytes()) / 1024.0);
  const hw::FramePool& pool = f.frame_pool();
  r.put("hw.pool_payloads_made", static_cast<double>(pool.payloads_made()));
  r.put("hw.pool_recycle_ratio",
        ratio(static_cast<double>(pool.buffers_recycled()),
              static_cast<double>(pool.buffers_recycled() +
                                  pool.buffers_created())));
  r.put("hw.pool_peak_live", static_cast<double>(pool.peak_payloads_live()));
}

/// Kernel, multicast service and CPU ledgers summed over every station.
/// Returns the frames the kernels received (for hops/frame).
std::uint64_t put_vorx(Rep& r, vorx::System& sys) {
  sys.finalize_accounting();
  std::uint64_t sent = 0, received = 0, irqs = 0, resumes = 0, mcast_fwd = 0;
  std::uint64_t ctxsw = 0, preempt = 0;
  std::size_t peak_txq = 0;
  sim::Duration tx_blocked = 0;
  sim::Duration ledger[sim::kNumCategories] = {};
  const int stations = sys.num_nodes() + sys.num_hosts();
  for (int s = 0; s < stations; ++s) {
    vorx::Node& n = sys.station(s);
    const vorx::Kernel& k = n.kernel();
    sent += k.frames_sent();
    received += k.frames_received();
    irqs += k.rx_interrupts();
    resumes += k.rx_resumes();
    peak_txq = std::max(peak_txq, k.peak_tx_queue_depth());
    tx_blocked += k.tx_blocked();
    mcast_fwd += n.mcast().frames_forwarded();
    ctxsw += n.cpu().ctx_switches();
    preempt += n.cpu().preemptions();
    for (std::size_t c = 0; c < sim::kNumCategories; ++c) {
      ledger[c] += n.cpu().ledger().total(static_cast<sim::Category>(c));
    }
  }
  auto cat = [&](sim::Category c) {
    return ns_to_ms(ledger[static_cast<std::size_t>(c)]);
  };
  r.put("sim.cpu_ctx_switches", static_cast<double>(ctxsw));
  r.put("sim.cpu_preemptions", static_cast<double>(preempt));
  r.put("vorx.kernel_frames_sent", static_cast<double>(sent));
  r.put("vorx.kernel_tx_blocked_ms", ns_to_ms(tx_blocked));
  r.put("vorx.kernel_peak_txq", static_cast<double>(peak_txq));
  r.put("vorx.rx_resumes_per_irq",
        ratio(static_cast<double>(resumes), static_cast<double>(irqs)));
  r.put("vorx.mcast_frames_forwarded", static_cast<double>(mcast_fwd));
  r.put("vorx.cpu_user_ms", cat(sim::Category::kUser));
  r.put("vorx.cpu_system_ms", cat(sim::Category::kSystem));
  r.put("vorx.cpu_ctxsw_ms", cat(sim::Category::kContextSwitch));
  r.put("vorx.cpu_idle_input_ms", cat(sim::Category::kIdleInput));
  r.put("vorx.cpu_idle_output_ms", cat(sim::Category::kIdleOutput));
  return received;
}

/// One workload instance, driven phase by phase by run_rep().  The
/// destructor is the teardown phase, so members are declared in the order
/// they are built (the engine first) and destroyed in reverse.
class Instance {
 public:
  virtual ~Instance() = default;
  /// Builds the machine.
  virtual void build() = 0;
  /// Generates the seeded inputs and installs them on the machine.
  virtual void gen(std::uint64_t seed) = 0;
  /// Drives the simulation to completion.
  virtual void run() = 0;
  /// Checks the outputs and records the deterministic results.
  virtual void verify(Rep& r) = 0;
  [[nodiscard]] virtual sim::Simulator& engine() = 0;
};

// ---- storm ------------------------------------------------------------------
//
// The Rapport-style open-loop conferencing workload of examples/storm.cpp
// at 40 000 users: well below the allocation-timeout knee (90k-100k users),
// so every session completes and the run is a steady-state measurement.

constexpr int kStormUsers = 40'000;

class Storm final : public Instance {
 public:
  explicit Storm(bool traced) : traced_(traced) {}

  void build() override {
    vorx::SystemConfig scfg;
    scfg.nodes = 256;
    scfg.hosts = 4;
    scfg.stations_per_cluster = 4;
    // Same long-cable setting as examples/storm.cpp: 50 µs trunk latency
    // with buffers sized to the bandwidth-delay product.
    scfg.fabric.cluster_link = scfg.fabric.link;
    scfg.fabric.cluster_link->latency = sim::usec(50);
    scfg.fabric.cluster_link->buffer_frames = 64;
    scfg.record_counters = traced_;
    engine_ = std::make_unique<sim::Simulator>();
    sys_ = std::make_unique<vorx::System>(*engine_, scfg);
  }

  void gen(std::uint64_t seed) override {
    vorx::WorkloadConfig wcfg;
    wcfg.users = kStormUsers;
    gen_ = std::make_unique<vorx::WorkloadGen>(*sys_, wcfg, seed);
  }

  void run() override { gen_->run(); }

  void verify(Rep& r) override {
    const vorx::WorkloadReport rep = gen_->report();
    if (!rep.all_accounted() || rep.lost != 0) {
      r.errors.push_back("storm: sessions not all accounted (lost " +
                         std::to_string(rep.lost) + ")");
    }
    if (rep.sessions_total == 0 || rep.join_p50_us < 0) {
      r.errors.push_back("storm: no sessions ran");
    }
    r.attempted = rep.sessions_total;
    r.failed = rep.sessions_total - std::min(rep.completed, rep.sessions_total);
    r.latency_samples = rep.completed;
    const double span_s = static_cast<double>(engine_->now()) / 1e9;
    r.put("ok_ratio", ratio(static_cast<double>(rep.completed),
                            static_cast<double>(rep.sessions_total)));
    r.put("vt_p50_us", static_cast<double>(rep.join_p50_us));
    r.put("vt_p99_us", static_cast<double>(rep.join_p99_us));
    r.put("vt_span_ms", ns_to_ms(engine_->now()));
    r.put("frames_per_sim_s",
          ratio(static_cast<double>(rep.data_frames_delivered), span_s));
    put_sim(r, *engine_);
    const std::uint64_t rx = put_vorx(r, *sys_);
    put_hw(r, sys_->fabric(), rx);
    r.put("vorx.alloc_attempts_per_session",
          ratio(static_cast<double>(rep.alloc_attempts),
                static_cast<double>(rep.completed)));
    r.put("vorx.alloc_timeouts", static_cast<double>(rep.alloc_timeouts));
    r.put("vorx.reinvite_rounds", static_cast<double>(rep.reinvite_rounds));
    r.put("vorx.delivery_p99_us", static_cast<double>(rep.delivery_p99_us));
    // The known data-frame gap (ROADMAP carry-over): sent frames with no
    // recorded fate.  Reported, not asserted.
    r.put("vorx.frames_unaccounted",
          static_cast<double>(rep.data_frames_sent) -
              static_cast<double>(rep.data_frames_delivered) -
              static_cast<double>(rep.fabric_frames_dropped));
  }

  sim::Simulator& engine() override { return *engine_; }

 private:
  bool traced_;
  std::unique_ptr<sim::Simulator> engine_;
  std::unique_ptr<vorx::System> sys_;
  std::unique_ptr<vorx::WorkloadGen> gen_;
};

// ---- net4096 ----------------------------------------------------------------
//
// The bare fabric at paper scale: 4096 stations on a 1024-cluster
// incomplete hypercube (16-port clusters), adaptive routing, driven by an
// open-loop schedule the benchmark generates from the seed.  Each station
// sends kNetFramesPerStation frames at due times drawn uniformly over the
// same horizon (mean gap 0.8 ms), so the offered load is fixed and the
// schedule ends at the same time whatever the seed.

constexpr int kNetStations = 4096;
constexpr int kNetFramesPerStation = 32;
constexpr sim::Duration kNetHorizon = sim::usec(800) * kNetFramesPerStation;
constexpr std::uint32_t kNetPayloadBytes = 256;

int bit_reverse(int v, int bits) {
  int out = 0;
  for (int b = 0; b < bits; ++b) {
    if ((v >> b) & 1) out |= 1 << (bits - 1 - b);
  }
  return out;
}

class Net4096 final : public Instance {
 public:
  explicit Net4096(Tracer* tr) : tr_(tr) {}

  void build() override {
    engine_ = std::make_unique<sim::Simulator>();
    hw::FabricParams params;
    params.routing = hw::RoutingMode::kAdaptive;
    // 10 cube dimensions + 4 station ports outgrow the 12-port cluster.
    params.ports_per_cluster = 16;
    fab_ = hw::Fabric::hypercube(*engine_, kNetStations, 4, params);
  }

  void gen(std::uint64_t seed) override {
    constexpr auto frames = static_cast<std::size_t>(kNetStations) *
                            static_cast<std::size_t>(kNetFramesPerStation);
    sched_.resize(kNetStations);
    next_.assign(kNetStations, 0);
    armed_.assign(kNetStations, -1);
    latency_ns_.reserve(frames);
    late_.reserve(frames);
    // Half the frames go to the station's bit-reversal partner (the
    // classic worst case for dimension-ordered routing), half to uniform
    // random destinations.
    int bits = 0;
    while ((1 << bits) < kNetStations) ++bits;
    sim::Rng rng(seed);
    for (int s = 0; s < kNetStations; ++s) {
      auto& q = sched_[static_cast<std::size_t>(s)];
      q.reserve(kNetFramesPerStation);
      for (int i = 0; i < kNetFramesPerStation; ++i) {
        int dst = 0;
        if (i % 2 == 0) {
          dst = bit_reverse(s, bits);
          if (dst == s) dst = (s + kNetStations / 2) % kNetStations;
        } else {
          dst = static_cast<int>(rng.below(kNetStations - 1));
          if (dst >= s) ++dst;
        }
        const auto at = static_cast<sim::SimTime>(
            rng.below(static_cast<std::uint64_t>(kNetHorizon)));
        q.push_back({at, dst});
      }
      std::sort(q.begin(), q.end(),
                [](const Due& a, const Due& b) { return a.at < b.at; });
    }
    for (int s = 0; s < kNetStations; ++s) {
      fab_->endpoint(s).set_rx_cb([this, s] { receive(s); });
      fab_->endpoint(s).set_tx_ready_cb([this, s] { pump(s); });
      engine_->schedule_at(sched_[static_cast<std::size_t>(s)][0].at,
                           [this, s] { pump(s); });
    }
  }

  void run() override { engine_->run(); }

  void verify(Rep& r) override {
    const std::uint64_t offered = static_cast<std::uint64_t>(kNetStations) *
                                  kNetFramesPerStation;
    const std::uint64_t dropped = fab_->frames_dropped();
    if (sent_ != offered || delivered_ != sent_ || dropped != 0 ||
        misdelivered_ != 0) {
      r.errors.push_back("net4096: offered " + std::to_string(offered) +
                         " sent " + std::to_string(sent_) + " delivered " +
                         std::to_string(delivered_) + " dropped " +
                         std::to_string(dropped) + " misdelivered " +
                         std::to_string(misdelivered_));
    }
    r.attempted = offered;
    r.failed = offered - std::min(delivered_, offered);
    r.latency_samples = latency_ns_.size();
    std::vector<std::int64_t> lat = latency_ns_;
    std::vector<std::int64_t> late;
    late.reserve(late_.size());
    for (const auto& [due, l] : late_) late.push_back(l);
    if (lat.empty() || late.empty()) {
      r.errors.push_back("net4096: nothing delivered");
      return;
    }
    const double span_s = static_cast<double>(engine_->now()) / 1e9;
    r.put("ok_ratio", ratio(static_cast<double>(delivered_),
                            static_cast<double>(offered)));
    r.put("vt_p50_us", ns_to_us(nearest_rank(lat, 0.50)));
    r.put("vt_p99_us", ns_to_us(nearest_rank(lat, 0.99)));
    r.put("vt_span_ms", ns_to_ms(engine_->now()));
    r.put("frames_per_sim_s", ratio(static_cast<double>(delivered_), span_s));
    put_sim(r, *engine_);
    put_hw(r, *fab_, delivered_);
    r.put("hw.inject_late_p99_us", ns_to_us(nearest_rank(late, 0.99)));
    // A generator that falls further behind as the run goes on means the
    // offered load is past the fabric's knee: compare the lateness tail of
    // the first and last thirds of the schedule.
    std::vector<std::int64_t> first, last;
    for (const auto& [due, l] : late_) {
      if (due * 3 < kNetHorizon) first.push_back(l);
      if (due * 3 >= kNetHorizon * 2) last.push_back(l);
    }
    const bool backlog =
        !first.empty() && !last.empty() &&
        nearest_rank(last, 0.99) >
            2 * nearest_rank(first, 0.99) + sim::usec(50);
    r.put("hw.inject_backlog", backlog ? 1 : 0);
  }

  sim::Simulator& engine() override { return *engine_; }

 private:
  struct Due {
    sim::SimTime at;
    int dst;
  };

  // Sends every frame that is due while the first-hop buffer has room;
  // otherwise waits for the due time or for the tx-ready interrupt.
  void pump(int s) {
    const auto su = static_cast<std::size_t>(s);
    const auto& q = sched_[su];
    hw::Endpoint& ep = fab_->endpoint(s);
    while (next_[su] < q.size() && ep.tx_ready()) {
      const Due& d = q[next_[su]];
      if (engine_->now() < d.at) {
        if (armed_[su] != d.at) {
          armed_[su] = d.at;
          engine_->schedule_at(d.at, [this, s] { pump(s); });
        }
        return;
      }
      hw::Frame fr;
      fr.dst = d.dst;
      fr.payload_bytes = kNetPayloadBytes;
      fr.aux = static_cast<std::uint64_t>(d.at);  // due time, read at rx
      late_.emplace_back(d.at, engine_->now() - d.at);
      {
        Scope sc(tr_, "hw.transmit");
        ep.transmit(std::move(fr));
      }
      ++sent_;
      ++next_[su];
    }
  }

  void receive(int s) {
    hw::Endpoint& ep = fab_->endpoint(s);
    for (;;) {
      std::optional<hw::Frame> fr;
      {
        Scope sc(tr_, "hw.rx_take");
        fr = ep.rx_take();
      }
      if (!fr) return;
      ++delivered_;
      if (fr->dst != s || fr->payload_bytes != kNetPayloadBytes) {
        ++misdelivered_;
      }
      latency_ns_.push_back(engine_->now() -
                            static_cast<sim::SimTime>(fr->aux));
    }
  }

  Tracer* tr_;
  std::vector<std::vector<Due>> sched_;   // per station, by due time
  std::vector<std::size_t> next_;         // per station: next frame
  std::vector<sim::SimTime> armed_;       // per station: pending wake-up
  std::vector<std::int64_t> latency_ns_;  // due -> delivery, per frame
  std::vector<std::pair<sim::SimTime, std::int64_t>> late_;  // (due, late)
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t misdelivered_ = 0;
  std::unique_ptr<sim::Simulator> engine_;
  std::unique_ptr<hw::Fabric> fab_;  // last: its callbacks point into *this
};

// ---- fft2d ------------------------------------------------------------------
//
// The §4.2 distributed 2-D FFT, n = 512 on p = 32 nodes, exchanging rows
// through the software-tree multicast.

constexpr int kFftN = 512;
constexpr int kFftP = 32;
// apps/fft2d_app.cpp packs 64 complex values (1024 B) into each exchange
// message, one frame apiece.
constexpr std::uint64_t kFftMsgBytes = 1024;

class Fft2d final : public Instance {
 public:
  Fft2d(bool traced, Tracer* tr) : traced_(traced), tr_(tr) {}

  void build() override {
    vorx::SystemConfig scfg;
    scfg.nodes = kFftP;
    scfg.stations_per_cluster = 4;
    scfg.record_counters = traced_;
    engine_ = std::make_unique<sim::Simulator>();
    sys_ = std::make_unique<vorx::System>(*engine_, scfg);
  }

  void gen(std::uint64_t seed) override {
    cfg_.n = kFftN;
    cfg_.p = kFftP;
    cfg_.use_multicast = true;
    cfg_.mcast_mode = vorx::McastMode::kSoftwareTree;
    cfg_.seed = seed;
    // The benchmark's own copy of the input: the serial reference the
    // distributed result is checked against.
    image_ = apps::make_test_image(kFftN, seed);
  }

  void run() override { res_ = apps::run_fft2d(*engine_, *sys_, cfg_); }

  void verify(Rep& r) override {
    {
      Scope sc(tr_, "apps.fft2d_serial");
      const double t0 = thread_cpu_s();
      apps::fft2d(image_, kFftN, cfg_.kernel);
      r.fft_serial_s = thread_cpu_s() - t0;
    }
    const bool ok =
        res_.matches_serial && res_.result_checksum == apps::checksum(image_);
    if (!ok) r.errors.push_back("fft2d: distributed result != serial FFT");
    r.attempted = 1;
    r.failed = ok ? 0 : 1;
    r.latency_samples = 1;
    const double span_s = static_cast<double>(res_.elapsed) / 1e9;
    const auto frames = static_cast<double>(res_.bytes_received / kFftMsgBytes);
    r.put("ok_ratio", ok ? 1.0 : 0.0);
    // The unit of work is the whole transform: one latency sample.
    r.put("vt_p50_us", ns_to_us(res_.elapsed));
    r.put("vt_p99_us", ns_to_us(res_.elapsed));
    r.put("vt_span_ms", ns_to_ms(res_.elapsed));
    r.put("frames_per_sim_s", ratio(frames, span_s));
    put_sim(r, *engine_);
    const std::uint64_t rx = put_vorx(r, *sys_);
    put_hw(r, sys_->fabric(), rx);
    r.put("apps.exchange_share",
          ratio(static_cast<double>(res_.exchange_elapsed),
                static_cast<double>(res_.elapsed)));
    r.put("vorx.read_amplification",
          ratio(static_cast<double>(res_.bytes_received),
                static_cast<double>(res_.bytes_needed)));
    // The seed changes only the image, never the timing: fingerprint the
    // data so the seed self-check sees it.
    r.put("fp.result_checksum_lo32",
          static_cast<double>(res_.result_checksum & 0xffffffffu));
  }

  sim::Simulator& engine() override { return *engine_; }

 private:
  bool traced_;
  Tracer* tr_;
  apps::Fft2dConfig cfg_;
  std::vector<apps::Complex> image_;
  apps::Fft2dResult res_;
  std::unique_ptr<sim::Simulator> engine_;
  std::unique_ptr<vorx::System> sys_;
};

std::unique_ptr<Instance> make_instance(Workload w, Tracer* tr) {
  switch (w) {
    case Workload::kStorm: return std::make_unique<Storm>(tr != nullptr);
    case Workload::kNet4096: return std::make_unique<Net4096>(tr);
    case Workload::kFft2d: return std::make_unique<Fft2d>(tr != nullptr, tr);
  }
  return nullptr;
}

/// Times one phase on the thread CPU clock and records it as a span.
template <typename F>
double timed(Tracer* tr, const char* name, F&& f) {
  Scope sc(tr, name);
  const double t0 = thread_cpu_s();
  f();
  return thread_cpu_s() - t0;
}

}  // namespace

Rep run_rep(Workload w, std::uint64_t seed, const TraceSink& trace,
            bool run) {
  Tracer* tr = trace.tracer;
  Scope sc(tr, run ? "rep" : "setup_only");
  Rep r;
  std::unique_ptr<Instance> inst = make_instance(w, tr);
  r.build_s = timed(tr, "build", [&] { inst->build(); });
  if (tr != nullptr) enable_counters(inst->engine());
  r.gen_s = timed(tr, "gen", [&] { inst->gen(seed); });
  if (run) {
    const double w0 = wall_s();
    r.run_s = timed(tr, "run", [&] { inst->run(); });
    r.run_wall_s = wall_s() - w0;
    const Scope verify(tr, "verify");
    inst->verify(r);
    export_counters(inst->engine(), trace, r);
  }
  r.teardown_s = timed(tr, "teardown", [&] { inst.reset(); });
  return r;
}

}  // namespace perfbench
