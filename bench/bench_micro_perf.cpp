// Microbenchmarks (google-benchmark): simulator cycle throughput, policy
// decision cost, and NBTI model evaluation cost. These guard against
// performance regressions in the per-cycle hot path.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/noc/routing.hpp"

using namespace nbtinoc;

namespace {

noc::NocConfig mesh_config(int width, int vcs) {
  noc::NocConfig c;
  c.width = width;
  c.height = width;
  c.num_vcs = vcs;
  c.buffer_depth = 8;
  c.packet_length = 18;
  return c;
}

void BM_NetworkStep_Idle(benchmark::State& state) {
  noc::Network net(mesh_config(static_cast<int>(state.range(0)), 4));
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkStep_Idle)->Arg(2)->Arg(4)->Arg(8);

void BM_NetworkStep_Loaded(benchmark::State& state) {
  noc::Network net(mesh_config(static_cast<int>(state.range(0)), 4));
  traffic::install_uniform_traffic(net, 0.4, 42);
  net.run(5000);  // reach steady state
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkStep_Loaded)->Arg(2)->Arg(4)->Arg(8);

void BM_NetworkStep_SensorWise(benchmark::State& state) {
  noc::Network net(mesh_config(4, 4));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  traffic::install_uniform_traffic(net, 0.4, 42);
  net.run(5000);
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkStep_SensorWise);

void BM_SensorWiseDecide(benchmark::State& state) {
  noc::NocConfig cfg = mesh_config(2, static_cast<int>(state.range(0)));
  noc::InputUnit iu(noc::Dir::East, cfg);
  const noc::OutVcStateView view(&iu);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::sensor_wise_decide(view, 1, true));
}
BENCHMARK(BM_SensorWiseDecide)->Arg(2)->Arg(4)->Arg(8);

void BM_RrNoSensorDecide(benchmark::State& state) {
  noc::NocConfig cfg = mesh_config(2, 4);
  noc::InputUnit iu(noc::Dir::East, cfg);
  const noc::OutVcStateView view(&iu);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::rr_no_sensor_decide(view, 2, true));
}
BENCHMARK(BM_RrNoSensorDecide);

// Buffer-datapath cost pair: one flit through a partitioned VC ring vs
// through a shared-pool (DAMQ) VC chain. The shared path touches the free
// list and per-slot state on every move, so it can never be as cheap as a
// ring index increment — BENCH_hotpath.json gates the pair at >= 0.67
// (i.e. the pool may cost at most 1.5x the ring) so the DAMQ bookkeeping
// never quietly becomes the hot-path bottleneck. Credit accounting is
// excluded on both sides (it lives upstream in the output unit).
void BM_VcBuffer_PushPop(benchmark::State& state) {
  noc::VcBuffer buf(8, 0);
  buf.allocate(1, 0);
  noc::Flit body;
  body.type = noc::FlitType::Body;  // body flits keep the VC Active
  body.packet = 1;
  for (auto _ : state) {
    buf.push(body);
    benchmark::DoNotOptimize(buf.pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VcBuffer_PushPop);

void BM_SharedPool_PushPop(benchmark::State& state) {
  noc::SharedBufferPool pool(4, 8, 1, 0);
  noc::Flit body;
  body.type = noc::FlitType::Body;
  body.packet = 1;
  for (auto _ : state) {
    pool.push(1, body);
    benchmark::DoNotOptimize(pool.pop(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedPool_PushPop);

void BM_NbtiDeltaVth(benchmark::State& state) {
  const auto model = nbti::NbtiModel::calibrated({}, {});
  const nbti::OperatingPoint op;
  double alpha = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.delta_vth(alpha, 3e8, op));
    alpha = alpha < 1.0 ? alpha + 1e-4 : 0.01;
  }
}
BENCHMARK(BM_NbtiDeltaVth);

// End-to-end sweep-engine throughput: a small grid of short sensor-wise
// runs through the worker pool. Wall time here is dominated by the same
// per-cycle hot path the step benchmarks isolate, so it tracks how the
// micro-level wins compose at experiment scale (and how they scale with
// the worker count).
void BM_SweepRunner_Throughput(benchmark::State& state) {
  for (auto _ : state) {
    core::SweepOptions options;
    options.workers = static_cast<unsigned>(state.range(0));
    core::SweepRunner sweep(options);
    for (int i = 0; i < 8; ++i) {
      sim::Scenario s = sim::Scenario::synthetic(2, 2, 0.05 + 0.03 * i);
      s.warmup_cycles = 200;
      s.measure_cycles = 2'000;
      sweep.add(s, core::PolicyKind::kSensorWise, core::Workload::synthetic(),
                "bench-" + std::to_string(i));
    }
    benchmark::DoNotOptimize(sweep.run());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SweepRunner_Throughput)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Scheduler speedup pairs: a whole run() call, stepped (Arg 0) vs the
// active-set engine (Arg 1), on meshes with long idle stretches. These are
// the ratios bench/check_perf_regression.py gates via the
// "fast_forward_gates" entries in BENCH_hotpath.json: both sides run fresh
// on the same machine, so no yardstick calibration is involved — the pair
// must keep a minimum speedup, not an absolute time.
void BM_NetworkRun_IdleSensorWise(benchmark::State& state) {
  const noc::SchedulerMode mode =
      state.range(0) != 0 ? noc::SchedulerMode::kActiveSet : noc::SchedulerMode::kStepped;
  for (auto _ : state) {
    noc::Network net(mesh_config(4, 4));
    const auto model = nbti::NbtiModel::calibrated({}, {});
    core::PolicyConfig pc;
    pc.kind = core::PolicyKind::kSensorWise;
    core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
    ctrl.attach();
    net.set_scheduler_mode(mode);
    net.run(20'000);
    benchmark::DoNotOptimize(net.skip_stats().skips);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_NetworkRun_IdleSensorWise)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_NetworkRun_LowLoadActiveSet(benchmark::State& state) {
  const noc::SchedulerMode mode =
      state.range(0) != 0 ? noc::SchedulerMode::kActiveSet : noc::SchedulerMode::kStepped;
  for (auto _ : state) {
    noc::Network net(mesh_config(4, 4));
    const auto model = nbti::NbtiModel::calibrated({}, {});
    core::PolicyConfig pc;
    pc.kind = core::PolicyKind::kSensorWise;
    core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
    ctrl.attach();
    // Sparse traffic: packets are hundreds of cycles apart, so most of the
    // run is idle gap — the regime lifetime studies live in.
    traffic::install_uniform_traffic(net, 0.0005, 42);
    net.set_scheduler_mode(mode);
    net.run(20'000);
    benchmark::DoNotOptimize(net.scheduler_stats().router_steps);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_NetworkRun_LowLoadActiveSet)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Deterministic periodic point-to-point source: one packet to `dst` every
// `period` cycles, with an exact next-event answer for the schedulers.
class OneHotSource final : public noc::ITrafficSource {
 public:
  OneHotSource(noc::NodeId dst, sim::Cycle period) : dst_(dst), period_(period) {}
  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override {
    if (now < next_) return std::nullopt;
    next_ = now + period_;
    return noc::PacketRequest{dst_, 4, 0};
  }
  sim::Cycle next_event_cycle(sim::Cycle now) override { return next_ < now ? now : next_; }

 private:
  noc::NodeId dst_;
  sim::Cycle period_;
  sim::Cycle next_ = 0;
};

void BM_NetworkRun_OneHotCornerActiveSet(benchmark::State& state) {
  // One permanently busy corner in an otherwise idle 16x16 mesh: global
  // quiescence never holds, so the event-horizon engine degenerates to
  // ~1x, while the active set steps only the corner's handful of
  // components and parks the other ~250 routers.
  const noc::SchedulerMode mode =
      state.range(0) != 0 ? noc::SchedulerMode::kActiveSet : noc::SchedulerMode::kStepped;
  for (auto _ : state) {
    noc::Network net(mesh_config(16, 2));
    const auto model = nbti::NbtiModel::calibrated({}, {});
    core::PolicyConfig pc;
    pc.kind = core::PolicyKind::kSensorWise;
    core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
    ctrl.attach();
    net.set_traffic_source(0, std::make_unique<OneHotSource>(1, 8));
    net.set_scheduler_mode(mode);
    net.run(20'000);
    benchmark::DoNotOptimize(net.scheduler_stats().router_steps);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_NetworkRun_OneHotCornerActiveSet)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Routing-cost pair: the legacy per-flit coordinate arithmetic vs the
// topology layer's precomputed-table load, over an identical mesh
// destination stream. check_perf_regression.py gates the ratio (a
// "fast_forward_gates" pair in BENCH_hotpath.json): replacing the RC-stage
// arithmetic with a table must not have made mesh routing slower.
void BM_RouteCompute_Arithmetic(benchmark::State& state) {
  const noc::NocConfig cfg = mesh_config(8, 4);
  const int n = cfg.nodes();
  int i = 0;
  for (auto _ : state) {
    const noc::NodeId r = i % n;
    const noc::NodeId dst = (i * 31 + 7) % n;
    benchmark::DoNotOptimize(noc::route_compute(r, dst, cfg));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCompute_Arithmetic);

void BM_RouteCompute_Table(benchmark::State& state) {
  const noc::NocConfig cfg = mesh_config(8, 4);
  const auto topo = noc::Topology::create(cfg);
  const int n = cfg.nodes();
  int i = 0;
  for (auto _ : state) {
    const noc::NodeId r = i % n;
    const noc::NodeId dst = (i * 31 + 7) % n;
    benchmark::DoNotOptimize(topo->route(r, dst));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCompute_Table);

// Hierarchical lifetime acceleration pair: the same 160-epoch aging study,
// measuring every epoch (Arg 0, run_lifetime_study's stepped loop) vs one
// cycle-accurate window amortized over the whole study by closed-form ΔVth
// advancement (Arg 1, core::LifetimeEngine with the re-measure trigger
// disarmed). check_perf_regression.py gates the same-machine ratio via
// BENCH_lifetime.json — the ≥50x floor is the point of the hierarchical
// loop. Trajectory fidelity is pinned separately by lifetime_engine_test
// (tolerance 0 is bit-exact; finite tolerances track within bound).
void BM_LifetimeHierarchical(benchmark::State& state) {
  const bool hierarchical = state.range(0) != 0;
  const sim::Scenario s = sim::Scenario::synthetic(2, 2, 0.2);
  core::LifetimeEngineOptions opt;
  opt.epochs = 160;
  opt.years_per_epoch = 0.02;
  opt.measure_cycles_per_epoch = 20'000;
  if (hierarchical) {
    // One measurement window for the whole study: the trigger can't fire.
    opt.remeasure_tolerance_v = 1.0;
    opt.max_extrapolated_epochs = opt.epochs;
  } else {
    opt.remeasure_tolerance_v = 0.0;  // = run_lifetime_study, bit for bit
  }
  for (auto _ : state) {
    const auto r = core::run_hierarchical_lifetime(
        s, core::PolicyKind::kSensorWise, core::Workload::synthetic(), {0, noc::Dir::East}, opt);
    benchmark::DoNotOptimize(r.study.final_worst_vth_v);
  }
  state.SetItemsProcessed(state.iterations() * opt.epochs);
}
BENCHMARK(BM_LifetimeHierarchical)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Trace-replay engine pair: the legacy CSV/in-memory path (parse the CSV,
// copy every node's slice into its own vector) vs the NBTITRACE mmap'd
// zero-copy path (one shared read-only mapping, per-source cursors). Both
// sides drain the identical record stream through generate_burst; the
// BENCH_hotpath.json "fast_forward_gates" entry gates the same-machine
// ratio — the binary engine must beat the CSV baseline by the floor.
struct TraceBenchData {
  std::string csv_path;
  std::shared_ptr<const traffic::TraceFile> file;
  int nodes = 0;
  std::uint64_t records = 0;
};

const TraceBenchData& trace_bench_data() {
  static const TraceBenchData data = [] {
    constexpr int kWidth = 4;
    constexpr int kNodes = kWidth * kWidth;
    std::vector<std::unique_ptr<traffic::SyntheticSource>> sources;
    std::vector<noc::ITrafficSource*> raw;
    util::SplitMix64 seeder(2024);
    for (noc::NodeId id = 0; id < kNodes; ++id) {
      sources.push_back(std::make_unique<traffic::SyntheticSource>(
          id, 0.4, 4, traffic::DestinationPattern(traffic::PatternKind::kUniform, kWidth, kWidth),
          seeder.next()));
      raw.push_back(sources.back().get());
    }
    const traffic::Trace trace = traffic::Trace::capture(raw, 40'000);
    TraceBenchData d;
    d.nodes = kNodes;
    d.records = trace.size();
    d.csv_path =
        (std::filesystem::temp_directory_path() / "nbtinoc_bench_trace.csv").string();
    trace.save(d.csv_path);
    d.file = traffic::TraceFile::from_trace(trace, kNodes, "bench_micro_perf");
    return d;
  }();
  return data;
}

std::uint64_t drain_replay(noc::ITrafficSource& src) {
  noc::PacketRequest burst[noc::kMaxGenerateBurst];
  std::uint64_t total = 0;
  sim::Cycle now = 0;
  while (true) {
    const sim::Cycle next = src.next_event_cycle(now);
    if (next == sim::kCycleNever) break;
    now = next;
    total += src.generate_burst(now, burst, noc::kMaxGenerateBurst);
  }
  return total;
}

void BM_TraceReplay_CsvLoad(benchmark::State& state) {
  const TraceBenchData& d = trace_bench_data();
  for (auto _ : state) {
    const traffic::Trace trace = traffic::Trace::load(d.csv_path);
    std::uint64_t total = 0;
    for (noc::NodeId id = 0; id < d.nodes; ++id) {
      traffic::TraceReplaySource src(trace, id);
      total += drain_replay(src);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.records));
}
BENCHMARK(BM_TraceReplay_CsvLoad)->Unit(benchmark::kMillisecond);

void BM_TraceReplay_Mmap(benchmark::State& state) {
  const TraceBenchData& d = trace_bench_data();
  // One mapping, shared by every source of every iteration — the way sweep
  // workers and fleet shards share a Workload's trace.
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (noc::NodeId id = 0; id < d.nodes; ++id) {
      traffic::TraceReplaySource src(d.file, id);
      total += drain_replay(src);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.records));
}
BENCHMARK(BM_TraceReplay_Mmap)->Unit(benchmark::kMillisecond);

void BM_Xoshiro(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

void BM_XoshiroGaussian(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_gaussian());
}
BENCHMARK(BM_XoshiroGaussian);

}  // namespace

BENCHMARK_MAIN();
