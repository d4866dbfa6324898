// e2e_trace: the traced run of one workload, attributing host time to the
// simulator's layers.
//
//   e2e_trace --workload loaded-4x4 --seed 1 --seconds 20
//             [--size full|tiny] [--expect HEX] [--spans FILE]
//
// Single-run workloads: the harness rebuilds run_experiment's object graph
// from public pieces (noc::Network, core::PolicyGateController, traffic
// sources seeded exactly as install_synthetic_traffic /
// install_datacenter_traffic seed them) so that it can wrap the controller
// and every source in timing decorators. Each op runs the untraced
// run_experiment and then the traced harness; the per-layer numbers count
// only if both results serialize to the same bytes (and to the recorded
// digest, when given).
//
// Fleet workload: the harness decomposes run_fleet into its public building
// blocks (sample_network_vths, SweepRunner, AgingForecaster, merge_fleet_shards)
// and reports only if the decomposed FleetReport equals run_fleet's byte for
// byte. One fleet point (chip 0, sensor-wise) also runs through the traced
// single-run harness for the noc / controller / traffic breakdown.
//
// Spans (name, op, parent, start, end, time in aggregated child calls) are
// kept in memory and written to --spans at exit. Layers a workload does not
// exercise report 0.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/core/sweep.hpp"
#include "nbtinoc/nbti/aging.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/noc/shared_pool.hpp"
#include "nbtinoc/traffic/datacenter.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/util/rng.hpp"
#include "workloads.hpp"

namespace {

using namespace e2ebench;
namespace noc = nbtinoc::noc;
namespace nbti = nbtinoc::nbti;
namespace traffic = nbtinoc::traffic;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// --- spans -------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::string name;
    int op = 0;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_calls_ns = 0;  ///< covered by aggregated decorator calls
  };

  int begin(std::string name, int op, int parent = -1) {
    spans_.push_back({std::move(name), op, parent, now_ns(), 0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id, std::int64_t child_calls_ns = 0) {
    spans_.at(static_cast<std::size_t>(id)).end_ns = now_ns();
    spans_.at(static_cast<std::size_t>(id)).child_calls_ns = child_calls_ns;
  }
  /// A span whose interval was measured elsewhere (sweep points).
  void add(std::string name, int op, int parent, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({std::move(name), op, parent, ns_between(origin_, start),
                      ns_between(origin_, end), 0});
  }
  double seconds(int id) const {
    const Span& s = spans_.at(static_cast<std::size_t>(id));
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "e2e_trace: cannot write spans to " << path << "\n";
      return;
    }
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"op\": " << s.op
          << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"child_calls_ns\": " << s.child_calls_ns << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  std::int64_t now_ns() const { return ns_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// --- timing decorators -------------------------------------------------------

struct CallStats {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

struct LayerCalls {
  CallStats decide, post_cycle, controller_horizon, generate, source_horizon;
  std::uint64_t decide_changes = 0;  ///< commands differing from the port's previous one
  std::uint64_t packets = 0;         ///< packets the sources handed to NIs

  std::int64_t total_ns() const {
    return decide.ns + post_cycle.ns + controller_horizon.ns + generate.ns + source_horizon.ns;
  }
  std::uint64_t total_calls() const {
    return decide.calls + post_cycle.calls + controller_horizon.calls + generate.calls +
           source_horizon.calls;
  }
};

/// Host cost of one Clock::now(), measured at start-up. A timed call's
/// interval holds about one clock read and the caller pays the other, so
/// layer times subtract one read per call and noc self time two.
double clock_read_ns() {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    constexpr int kReads = 100'000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) (void)Clock::now();
    batches.push_back(static_cast<double>(ns_between(t0, Clock::now())) / kReads);
  }
  return median(batches);
}

/// Seconds spent inside the decorated calls, clock reads removed.
double net_seconds(const CallStats& c, double read_ns) {
  return std::max(0.0, static_cast<double>(c.ns) - static_cast<double>(c.calls) * read_ns) * 1e-9;
}

bool same_command(const noc::GateCommand& a, const noc::GateCommand& b) {
  return a.gating_active == b.gating_active && a.enable == b.enable && a.keep_vc == b.keep_vc &&
         a.first_vc == b.first_vc && a.range_vcs == b.range_vcs && a.slot_form == b.slot_form;
}

/// Forwards every call to the wrapped controller unchanged, timing it.
class TimedController final : public noc::IGateController {
 public:
  TimedController(noc::IGateController& inner, const noc::NocConfig& config, LayerCalls& calls)
      : inner_(inner),
        ports_(config.ports_per_router()),
        vcs_(config.total_vcs()),
        previous_(static_cast<std::size_t>(config.routers() * ports_ * vcs_)),
        calls_(calls) {}

  noc::GateCommand decide(const noc::PortKey& key, const noc::OutVcStateView& view,
                          bool new_traffic, sim::Cycle now) override {
    const auto t0 = Clock::now();
    const noc::GateCommand cmd = inner_.decide(key, view, new_traffic, now);
    calls_.decide.ns += ns_between(t0, Clock::now());
    ++calls_.decide.calls;
    // One slot per (port, vnet/class subrange): the command stream of that
    // Up_Down link.
    const auto slot = static_cast<std::size_t>(
        (key.router * ports_ + static_cast<int>(key.port)) * vcs_ + view.first_vc());
    Previous& prev = previous_.at(slot);
    if (!prev.valid || !same_command(prev.command, cmd)) ++calls_.decide_changes;
    prev = {cmd, true};
    return cmd;
  }
  void post_cycle(sim::Cycle now) override {
    const auto t0 = Clock::now();
    inner_.post_cycle(now);
    calls_.post_cycle.ns += ns_between(t0, Clock::now());
    ++calls_.post_cycle.calls;
  }
  sim::Cycle next_event_cycle(sim::Cycle now) override {
    const auto t0 = Clock::now();
    const sim::Cycle at = inner_.next_event_cycle(now);
    calls_.controller_horizon.ns += ns_between(t0, Clock::now());
    ++calls_.controller_horizon.calls;
    return at;
  }
  const char* name() const override { return inner_.name(); }

 private:
  struct Previous {
    noc::GateCommand command;
    bool valid = false;
  };
  noc::IGateController& inner_;
  int ports_;
  int vcs_;
  std::vector<Previous> previous_;
  LayerCalls& calls_;
};

/// Forwards every call to the wrapped source unchanged, timing it.
class TimedSource final : public noc::ITrafficSource {
 public:
  TimedSource(std::unique_ptr<noc::ITrafficSource> inner, LayerCalls& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override {
    const auto t0 = Clock::now();
    auto req = inner_->maybe_generate(now);
    calls_.generate.ns += ns_between(t0, Clock::now());
    ++calls_.generate.calls;
    if (req) ++calls_.packets;
    return req;
  }
  std::size_t generate_burst(sim::Cycle now, noc::PacketRequest* out, std::size_t max) override {
    const auto t0 = Clock::now();
    const std::size_t n = inner_->generate_burst(now, out, max);
    calls_.generate.ns += ns_between(t0, Clock::now());
    ++calls_.generate.calls;
    calls_.packets += n;
    return n;
  }
  sim::Cycle next_event_cycle(sim::Cycle now) override {
    const auto t0 = Clock::now();
    const sim::Cycle at = inner_->next_event_cycle(now);
    calls_.source_horizon.ns += ns_between(t0, Clock::now());
    ++calls_.source_horizon.calls;
    return at;
  }
  void save(sim::SnapshotWriter& w) const override { inner_->save(w); }
  void load(sim::SnapshotReader& r) override { inner_->load(r); }

 private:
  std::unique_ptr<noc::ITrafficSource> inner_;
  LayerCalls& calls_;
};

// --- the traced single run ---------------------------------------------------

/// run_experiment's NocConfig for a scenario (phit-unit conversion included).
noc::NocConfig noc_config_of(const sim::Scenario& scenario) {
  const int ppf = scenario.phits_per_flit();
  noc::NocConfig config;
  config.width = scenario.mesh_width;
  config.height = scenario.mesh_height;
  config.topology = noc::parse_topology_kind(scenario.topology);
  config.routing = noc::parse_routing_algo(scenario.routing);
  config.concentration = scenario.concentration;
  config.num_vcs = scenario.num_vcs;
  config.num_vnets = scenario.num_vnets;
  config.buffer_depth = scenario.buffer_depth * ppf;
  config.buffer_org = noc::parse_buffer_org(scenario.buffer_org);
  if (config.buffer_org == noc::BufferOrg::kShared)
    config.shared_reserve = scenario.shared_reserve * ppf;
  config.packet_length = scenario.packet_length * ppf;
  config.wakeup_latency = scenario.wakeup_latency;
  config.extra_pipeline_stages = scenario.router_stages - 3;
  return config;
}

/// The object graph of one run, wired with the timing decorators.
struct Harness {
  noc::NocConfig config;
  std::unique_ptr<noc::Network> network;
  std::unique_ptr<nbti::NbtiModel> model;
  std::optional<core::PolicyGateController> controller;
  std::unique_ptr<TimedController> timed_controller;
  double network_build_s = 0.0;
  double controller_build_s = 0.0;
  double traffic_install_s = 0.0;
};

/// Builds the harness exactly as run_experiment builds its graph.
std::unique_ptr<Harness> build_harness(const sim::Scenario& scenario, core::PolicyKind policy,
                                       const core::Workload& workload,
                                       const core::RunnerOptions& options, LayerCalls& calls) {
  if (options.paper_scale || options.faults.enabled() || options.check_invariants ||
      options.snapshot_at || options.resume_from || options.capture_trace != nullptr)
    throw std::invalid_argument("traced harness: only plain runs are mirrored");
  scenario.validate();
  auto h = std::make_unique<Harness>();
  h->config = noc_config_of(scenario);

  auto t0 = Clock::now();
  h->network = std::make_unique<noc::Network>(h->config);
  h->network_build_s = seconds_between(t0, Clock::now());

  t0 = Clock::now();
  h->model = std::make_unique<nbti::NbtiModel>(core::calibrated_model_of(scenario, options.nbti));
  core::PolicyConfig policy_config = options.policy;
  policy_config.kind = policy;
  if (options.initial_vths.empty())
    h->controller.emplace(*h->network, policy_config, *h->model, core::operating_point_of(scenario),
                          core::pv_config_of(scenario), scenario.pv_seed());
  else
    h->controller.emplace(*h->network, policy_config, *h->model, core::operating_point_of(scenario),
                          options.initial_vths, scenario.pv_seed() ^ 0xa9edULL);
  h->timed_controller = std::make_unique<TimedController>(*h->controller, h->config, calls);
  h->network->set_gate_controller(h->timed_controller.get());
  h->controller_build_s = seconds_between(t0, Clock::now());

  // Sources seeded as install_synthetic_traffic / install_datacenter_traffic
  // seed them: one SplitMix64 draw per node, in node order.
  t0 = Clock::now();
  noc::Network& network = *h->network;
  const int ppf = scenario.phits_per_flit();
  nbtinoc::util::SplitMix64 seeder(scenario.traffic_seed() ^ workload.seed_salt);
  std::unique_ptr<noc::ITrafficSource> source;
  for (noc::NodeId id = 0; id < network.nodes(); ++id) {
    switch (workload.kind) {
      case core::Workload::Kind::kSynthetic:
        source = std::make_unique<traffic::SyntheticSource>(
            id, scenario.injection_rate * ppf, h->config.packet_length,
            traffic::DestinationPattern(workload.pattern, h->config.width, h->config.height),
            seeder.next());
        break;
      case core::Workload::Kind::kDatacenter: {
        traffic::DatacenterProfile scaled = workload.datacenter;
        scaled.user_rate *= static_cast<double>(ppf);
        scaled.packet_length = h->config.packet_length;
        source = std::make_unique<traffic::DatacenterAggregateSource>(
            id, scaled, h->config.width, h->config.height,
            static_cast<noc::NodeId>(network.nodes() - 1), seeder.next());
        break;
      }
      default:
        throw std::invalid_argument("traced harness: workload kind not mirrored");
    }
    network.set_traffic_source(id, std::make_unique<TimedSource>(std::move(source), calls));
  }
  h->traffic_install_s = seconds_between(t0, Clock::now());

  // Scheduler selection, as run_experiment makes it from RunnerOptions.
  if (options.scheduler)
    network.set_scheduler_mode(*options.scheduler);
  else
    network.set_fast_forward(options.fast_forward);
  return h;
}

struct TracedRun {
  core::RunResult result;
  LayerCalls calls;
  double wall_s = 0.0;  ///< the whole traced call, set-up included
  double run_s = 0.0;   ///< inside Network::run (warmup + measure)
  std::uint64_t flit_hops = 0;
  std::uint64_t packets_offered = 0;  ///< whole run (warmup + measure)
  std::uint64_t packets_ejected = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t cycles_skipped = 0;
  std::uint64_t router_steps = 0;
  std::uint64_t ni_steps = 0;
  int routers = 0;
  double network_build_s = 0.0;
  double controller_build_s = 0.0;
  double traffic_install_s = 0.0;
};

TracedRun traced_run(const sim::Scenario& scenario, core::PolicyKind policy,
                     const core::Workload& workload, const core::RunnerOptions& options,
                     Tracer& tracer, int op, int parent) {
  TracedRun out;
  const int span = tracer.begin("trace.run_experiment", op, parent);
  const auto start = Clock::now();
  const int setup_span = tracer.begin("setup", op, span);
  const std::unique_ptr<Harness> h = build_harness(scenario, policy, workload, options, out.calls);
  tracer.end(setup_span);
  noc::Network& network = *h->network;
  out.network_build_s = h->network_build_s;
  out.controller_build_s = h->controller_build_s;
  out.traffic_install_s = h->traffic_install_s;

  const auto counter = [&](const char* name) { return network.stats().counter(name); };
  const auto hops = [&] {
    return counter("noc.flits_forwarded") + counter("noc.flits_ejected_router");
  };

  // run_with_warmup, as run_experiment schedules it.
  network.set_measuring(false);
  std::int64_t calls_before = out.calls.total_ns();
  const int warmup_span = tracer.begin("noc.run.warmup", op, span);
  network.run(scenario.warmup_cycles);
  tracer.end(warmup_span, out.calls.total_ns() - calls_before);
  out.flit_hops = hops();
  out.packets_offered = counter("noc.packets_offered");
  out.packets_ejected = counter("noc.packets_ejected");
  network.stats().reset();
  network.set_measuring(true);
  calls_before = out.calls.total_ns();
  const int measure_span = tracer.begin("noc.run.measure", op, span);
  network.run(scenario.measure_cycles);
  tracer.end(measure_span, out.calls.total_ns() - calls_before);
  out.run_s = tracer.seconds(warmup_span) + tracer.seconds(measure_span);
  out.flit_hops += hops();
  out.packets_offered += counter("noc.packets_offered");
  out.packets_ejected += counter("noc.packets_ejected");

  // RunResult assembly, as run_experiment does it.
  const int result_span = tracer.begin("result", op, span);
  core::RunResult& result = out.result;
  result.scenario = scenario;
  result.policy = policy;
  for (noc::NodeId id = 0; id < network.num_routers(); ++id) {
    for (int p = 0; p < h->config.ports_per_router(); ++p) {
      const noc::Dir dir = static_cast<noc::Dir>(p);
      if (!network.router(id).has_input(dir)) continue;
      const noc::PortKey key{id, dir};
      core::PortResult port;
      port.duty_percent = network.duty_cycles_percent(id, dir);
      port.initial_vth_v = h->controller->initial_vths(key);
      port.most_degraded = h->controller->most_degraded(key);
      const auto& iu = network.router(id).input(dir);
      if (const noc::SharedBufferPool* pool = iu.pool()) {
        for (int s = 0; s < pool->num_slots(); ++s) {
          port.gate_transitions.push_back(pool->slot_gate_transitions(s));
          result.total_gate_transitions += pool->slot_gate_transitions(s);
        }
      } else {
        for (int v = 0; v < iu.num_vcs(); ++v) {
          port.gate_transitions.push_back(iu.vc(v).gate_transitions());
          result.total_gate_transitions += iu.vc(v).gate_transitions();
        }
      }
      result.ports.emplace(key, std::move(port));
    }
  }
  result.packets_offered = counter("noc.packets_offered");
  result.flits_injected = counter("noc.flits_injected");
  result.flits_ejected = counter("noc.flits_ejected");
  result.packets_ejected = counter("noc.packets_ejected");
  result.flits_forwarded = counter("noc.flits_forwarded");
  result.flits_ejected_router = counter("noc.flits_ejected_router");
  result.va_grants = counter("noc.va_grants");
  result.ni_va_grants = counter("noc.ni_va_grants");
  if (const auto* lat = network.stats().distribution("noc.packet_latency"))
    result.avg_packet_latency = lat->mean();
  result.throughput_flits_per_cycle_per_node = static_cast<double>(result.flits_ejected) /
                                               static_cast<double>(scenario.measure_cycles) /
                                               network.nodes();
  tracer.end(result_span);
  tracer.end(span, out.calls.total_ns());
  out.wall_s = seconds_between(start, Clock::now());

  // Scheduler activity: the active-set engine counts its own steps; the
  // other engines step every router and NI on each executed cycle.
  out.routers = network.num_routers();
  out.total_cycles = scenario.warmup_cycles + scenario.measure_cycles;
  out.cycles_skipped = network.skip_stats().cycles_skipped;
  if (network.scheduler_mode() == noc::SchedulerMode::kActiveSet) {
    out.router_steps = network.scheduler_stats().router_steps;
    out.ni_steps = network.scheduler_stats().ni_steps;
  } else {
    const std::uint64_t executed = out.total_cycles - out.cycles_skipped;
    out.router_steps = executed * static_cast<std::uint64_t>(network.num_routers());
    out.ni_steps = executed * static_cast<std::uint64_t>(network.nodes());
  }
  return out;
}

/// Whole-run conservation, which the window counters cannot show.
std::vector<std::string> check_traced(const TracedRun& run) {
  std::vector<std::string> problems;
  if (run.packets_ejected > run.packets_offered)
    problems.push_back("whole run: packets_ejected " + std::to_string(run.packets_ejected) +
                       " > packets_offered " + std::to_string(run.packets_offered));
  if (run.calls.packets != run.packets_offered)
    problems.push_back("sources handed out " + std::to_string(run.calls.packets) +
                       " packets, NIs counted " + std::to_string(run.packets_offered));
  return problems;
}

// --- per-layer metrics -------------------------------------------------------

struct Layers {
  double noc_self_s = 0, noc_ns_per_router_step = 0, noc_ns_per_flit_hop = 0, noc_flit_hops = 0;
  double decide_calls = 0, decide_s = 0, ns_per_decide = 0, decide_change_ratio = 0;
  double post_cycle_s = 0, controller_horizon_calls = 0, gate_transitions = 0;
  double generate_calls = 0, generate_s = 0, traffic_horizon_calls = 0, packets_offered = 0;
  double cycles_skipped = 0, skip_fraction = 0, router_steps = 0, ni_steps = 0;
  double router_active_fraction = 0, parkable_router_fraction = 0;
  double network_build_s = 0, controller_build_s = 0, traffic_install_s = 0;
  double point_s_p50 = 0, point_s_p90 = 0, worker_utilization = 0, pv_sample_s = 0;
  double forecast_calls = 0, forecast_s = 0, merge_s = 0;
  double overhead = 0;
};

std::vector<Metric> to_metrics(const Layers& l, bool valid) {
  std::vector<Metric> m{
      {"noc.self_s", l.noc_self_s, "s"},
      {"noc.ns_per_router_step", l.noc_ns_per_router_step, "ns"},
      {"noc.ns_per_flit_hop", l.noc_ns_per_flit_hop, "ns"},
      {"noc.flit_hops", l.noc_flit_hops, "count"},
      {"controller.decide_calls", l.decide_calls, "count"},
      {"controller.decide_s", l.decide_s, "s"},
      {"controller.ns_per_decide", l.ns_per_decide, "ns"},
      {"controller.decide_change_ratio", l.decide_change_ratio, "ratio"},
      {"controller.post_cycle_s", l.post_cycle_s, "s"},
      {"controller.horizon_calls", l.controller_horizon_calls, "count"},
      {"controller.gate_transitions", l.gate_transitions, "count"},
      {"traffic.generate_calls", l.generate_calls, "count"},
      {"traffic.generate_s", l.generate_s, "s"},
      {"traffic.horizon_calls", l.traffic_horizon_calls, "count"},
      {"traffic.packets_offered", l.packets_offered, "count"},
      {"sched.cycles_skipped", l.cycles_skipped, "count"},
      {"sched.skip_fraction", l.skip_fraction, "ratio"},
      {"sched.router_steps", l.router_steps, "count"},
      {"sched.ni_steps", l.ni_steps, "count"},
      {"sched.router_active_fraction", l.router_active_fraction, "ratio"},
      {"sched.parkable_router_fraction", l.parkable_router_fraction, "ratio"},
      {"setup.network_build_s", l.network_build_s, "s"},
      {"setup.controller_build_s", l.controller_build_s, "s"},
      {"setup.traffic_install_s", l.traffic_install_s, "s"},
      {"sweep.point_s_p50", l.point_s_p50, "s"},
      {"sweep.point_s_p90", l.point_s_p90, "s"},
      {"sweep.worker_utilization", l.worker_utilization, "ratio"},
      {"nbti.pv_sample_s", l.pv_sample_s, "s"},
      {"nbti.forecast_calls", l.forecast_calls, "count"},
      {"nbti.forecast_s", l.forecast_s, "s"},
      {"fleet.merge_s", l.merge_s, "s"},
      {"trace.overhead_ratio", l.overhead, "ratio"},
  };
  if (!valid)
    for (Metric& metric : m) metric.value.reset();
  return m;
}

/// Per-op samples of the traced single run; timings are reported as medians.
struct RunSamples {
  std::vector<double> self_s, decide_s, post_cycle_s, generate_s, overhead;
  std::vector<double> network_build_s, controller_build_s, traffic_install_s;
  std::optional<TracedRun> first;  ///< counts (identical on every op)
  std::string digest;              ///< of the untraced result
};

void add_sample(RunSamples& samples, const TracedRun& run, const std::string& digest,
                double untraced_wall_s, double read_ns) {
  const LayerCalls& c = run.calls;
  samples.self_s.push_back(run.run_s - (static_cast<double>(c.total_ns()) +
                                        static_cast<double>(c.total_calls()) * read_ns) *
                                           1e-9);
  samples.decide_s.push_back(net_seconds(c.decide, read_ns));
  samples.post_cycle_s.push_back(net_seconds(c.post_cycle, read_ns));
  samples.generate_s.push_back(net_seconds(c.generate, read_ns));
  samples.overhead.push_back(run.wall_s / untraced_wall_s);
  samples.network_build_s.push_back(run.network_build_s);
  samples.controller_build_s.push_back(run.controller_build_s);
  samples.traffic_install_s.push_back(run.traffic_install_s);
  if (!samples.first) samples.first = run;
  samples.digest = digest;
}

/// Fills the noc / controller / traffic / sched / setup layers.
void fill_run_layers(Layers& l, const RunSamples& s) {
  const TracedRun& r = *s.first;
  const double self = median(s.self_s);
  l.noc_self_s = self;
  l.noc_flit_hops = static_cast<double>(r.flit_hops);
  if (r.router_steps > 0) l.noc_ns_per_router_step = self * 1e9 / static_cast<double>(r.router_steps);
  if (r.flit_hops > 0) l.noc_ns_per_flit_hop = self * 1e9 / static_cast<double>(r.flit_hops);
  l.decide_calls = static_cast<double>(r.calls.decide.calls);
  l.decide_s = median(s.decide_s);
  if (r.calls.decide.calls > 0) {
    l.ns_per_decide = l.decide_s * 1e9 / l.decide_calls;
    l.decide_change_ratio = static_cast<double>(r.calls.decide_changes) / l.decide_calls;
  }
  l.post_cycle_s = median(s.post_cycle_s);
  l.controller_horizon_calls = static_cast<double>(r.calls.controller_horizon.calls);
  l.gate_transitions = static_cast<double>(r.result.total_gate_transitions);
  l.generate_calls = static_cast<double>(r.calls.generate.calls);
  l.generate_s = median(s.generate_s);
  l.traffic_horizon_calls = static_cast<double>(r.calls.source_horizon.calls);
  l.packets_offered = static_cast<double>(r.calls.packets);
  l.cycles_skipped = static_cast<double>(r.cycles_skipped);
  l.skip_fraction = static_cast<double>(r.cycles_skipped) / static_cast<double>(r.total_cycles);
  l.router_steps = static_cast<double>(r.router_steps);
  l.ni_steps = static_cast<double>(r.ni_steps);
  l.router_active_fraction = static_cast<double>(r.router_steps) /
                             (static_cast<double>(r.total_cycles) * r.routers);
  l.network_build_s = median(s.network_build_s);
  l.controller_build_s = median(s.controller_build_s);
  l.traffic_install_s = median(s.traffic_install_s);
  l.overhead = median(s.overhead);
}

double time_pv_sample(const sim::Scenario& scenario, std::uint64_t seed) {
  const auto t0 = Clock::now();
  (void)core::sample_network_vths(noc_config_of(scenario), core::pv_config_of(scenario), seed);
  return seconds_between(t0, Clock::now());
}

// --- the decomposed fleet ----------------------------------------------------

struct FleetTrace {
  std::string json;
  double wall_s = 0.0;
  double sweep_s = 0.0;
  std::vector<double> point_s;
  double pv_sample_s = 0.0;
  std::uint64_t forecast_calls = 0;
  double forecast_s = 0.0;
  double merge_s = 0.0;
  unsigned workers = 1;
};

/// The NocConfig run_fleet samples each chip's silicon on: the mesh and VC
/// shape only.
noc::NocConfig silicon_config_of(const core::FleetSpec& spec) {
  noc::NocConfig config;
  config.width = spec.scenario.mesh_width;
  config.height = spec.scenario.mesh_height;
  config.num_vcs = spec.scenario.num_vcs;
  config.num_vnets = spec.scenario.num_vnets;
  return config;
}

/// run_fleet(spec, workers) == run_fleet_shard(spec, 0, 1, workers) merged,
/// rebuilt here from the public blocks with a span around each.
FleetTrace traced_fleet(const core::FleetSpec& spec, unsigned workers, Tracer& tracer, int op) {
  FleetTrace out;
  spec.validate();
  const auto start = Clock::now();
  const int span = tracer.begin("trace.run_fleet", op);
  const std::size_t total = spec.total_points();
  const std::size_t chips = static_cast<std::size_t>(spec.chips);
  const std::size_t workload_count = spec.workloads.size();
  const noc::NocConfig net_config = silicon_config_of(spec);
  const nbti::PvConfig pv = core::pv_config_of(spec.scenario);

  core::SweepOptions sweep_options;
  sweep_options.workers = workers;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> point_intervals(total);
  sweep_options.on_progress = [&](const core::SweepProgress& p) {
    const auto end = Clock::now();
    point_intervals[p.point_index] = {
        end - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(p.point_seconds)),
        end};
  };
  core::SweepRunner sweep(sweep_options);
  for (std::size_t index = 0; index < total; ++index) {
    const std::size_t chip = index % chips;
    const std::size_t workload_index = (index / chips) % workload_count;
    const std::size_t policy_index = index / chips / workload_count;
    core::SweepPoint point;
    point.scenario = spec.scenario;
    point.policy = spec.policies[policy_index];
    point.workload = spec.workloads[workload_index].workload;
    point.label = "chip" + std::to_string(chip);
    core::RunnerOptions ropt = spec.runner;
    const auto t0 = Clock::now();
    ropt.initial_vths = core::sample_network_vths(
        net_config, pv, core::fleet_chip_seed(spec.scenario, static_cast<int>(chip)));
    out.pv_sample_s += seconds_between(t0, Clock::now());
    point.runner = std::move(ropt);
    sweep.add(std::move(point));
  }

  const int sweep_span = tracer.begin("core.sweep", op, span);
  const core::SweepResult runs = sweep.run();
  tracer.end(sweep_span);
  out.sweep_s = tracer.seconds(sweep_span);
  out.workers = sweep.effective_workers();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out.point_s.push_back(runs[i].wall_seconds);
    tracer.add("sweep.point", op, sweep_span, point_intervals[i].first, point_intervals[i].second);
  }

  const int forecast_span = tracer.begin("nbti.forecast", op, span);
  const nbti::NbtiModel model = core::calibrated_model_of(spec.scenario, spec.runner.nbti);
  const nbti::AgingForecaster forecaster(model, core::operating_point_of(spec.scenario));
  core::FleetShardResult shard;
  shard.digest = core::fleet_digest(spec);
  shard.total_points = total;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::vector<double> lifetimes;
    double worst_duty = 0.0;
    for (const auto& [key, port] : runs[i].result.ports) {
      for (std::size_t v = 0; v < port.duty_percent.size(); ++v) {
        nbti::BufferAgingInput input;
        input.initial_vth_v = port.initial_vth_v[v];
        input.alpha = port.duty_percent[v] / 100.0;
        lifetimes.push_back(forecaster.lifetime_years(input, spec.dvth_budget_v, spec.max_years));
        ++out.forecast_calls;
        worst_duty = std::max(worst_duty, port.duty_percent[v]);
      }
    }
    std::sort(lifetimes.begin(), lifetimes.end());
    const auto over = static_cast<std::size_t>(
        std::ceil(spec.failure_fraction * static_cast<double>(lifetimes.size())));
    core::FleetPointOutcome outcome;
    outcome.index = i;
    outcome.chip = static_cast<int>(i % chips);
    outcome.workload_index = (i / chips) % workload_count;
    outcome.policy_index = i / chips / workload_count;
    outcome.failure_years = lifetimes[std::max<std::size_t>(over, 1) - 1];
    outcome.worst_duty_percent = worst_duty;
    shard.outcomes.push_back(outcome);
  }
  tracer.end(forecast_span);
  out.forecast_s = tracer.seconds(forecast_span);

  const int merge_span = tracer.begin("fleet.merge", op, span);
  std::vector<core::FleetShardResult> shards;
  shards.push_back(std::move(shard));
  out.json = core::merge_fleet_shards(spec, std::move(shards)).to_json();
  tracer.end(merge_span);
  out.merge_s = tracer.seconds(merge_span);
  tracer.end(span);
  out.wall_s = seconds_between(start, Clock::now());
  return out;
}

// --- workload runners --------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Layers layers;
};

void fail(Outcome& o, const std::string& what, const std::vector<std::string>& problems) {
  ++o.failed;
  report_problems(what, problems);
}

/// One untraced/traced pair of a single run; false if the op failed. The
/// recorded digest applies only when the op is the workload's own run.
bool run_pair(const WorkloadDef& def, const Args& args, const sim::Scenario& scenario,
              const core::RunnerOptions& options, bool check_digest, Tracer& tracer, int op,
              double read_ns, RunSamples& samples, Outcome& o) {
  const std::string what = def.name + " op " + std::to_string(op);
  ++o.attempted;
  try {
    const int span = tracer.begin("untraced.run_experiment", op);
    const core::RunResult untraced = core::run_experiment(scenario, def.policy, def.workload, options);
    tracer.end(span);
    const double untraced_s = tracer.seconds(span);
    const TracedRun traced = traced_run(scenario, def.policy, def.workload, options, tracer, op, -1);
    const std::string digest = digest_of(core::to_json(untraced));
    const std::string traced_digest = digest_of(core::to_json(traced.result));
    std::cerr << "e2e_trace: " << what << ": untraced " << untraced_s << " s, traced "
              << traced.wall_s << " s, digest " << digest << "\n";
    std::vector<std::string> problems = check_traced(traced);
    if (traced_digest != digest)
      problems.push_back("traced digest " + traced_digest + " != untraced " + digest);
    for (auto& p : check_run(def, untraced)) problems.push_back(p);
    if (check_digest)
      for (auto& p : check_op(args, digest, {})) problems.push_back(p);
    if (!problems.empty()) {
      fail(o, what, problems);
      return false;
    }
    add_sample(samples, traced, digest, untraced_s, read_ns);
    return true;
  } catch (const std::exception& e) {
    fail(o, what, {e.what()});
    return false;
  }
}

/// The same run once more under the event-driven active-set engine: the
/// share of router-cycles that engine parks or skips, i.e. what the workload
/// offers a scheduler whatever the default engine is. The result must match
/// the default engine's bit for bit.
void probe_parkable(const WorkloadDef& def, const sim::Scenario& scenario,
                    core::RunnerOptions options, Tracer& tracer, int op,
                    const RunSamples& samples, Outcome& o) {
  const std::string what = def.name + " active-set probe";
  ++o.attempted;
  try {
    options.scheduler = noc::SchedulerMode::kActiveSet;
    const TracedRun run = traced_run(scenario, def.policy, def.workload, options, tracer, op, -1);
    const std::string digest = digest_of(core::to_json(run.result));
    if (digest != samples.digest) {
      fail(o, what, {"active-set digest " + digest + " != default engine's " + samples.digest});
      return;
    }
    o.layers.parkable_router_fraction =
        1.0 - static_cast<double>(run.router_steps) /
                  (static_cast<double>(run.total_cycles) * run.routers);
  } catch (const std::exception& e) {
    fail(o, what, {e.what()});
  }
}

Outcome trace_single(const WorkloadDef& def, const Args& args, Tracer& tracer, double read_ns) {
  Outcome o;
  std::vector<double> pv;
  for (int i = 0; i < 11; ++i) pv.push_back(time_pv_sample(def.scenario, def.scenario.pv_seed()));
  o.layers.pv_sample_s = median(pv);

  RunSamples samples;
  const auto start = Clock::now();
  double last = 0.0;
  int op = 0;
  bool ok = true;
  while (op < 1 || seconds_between(start, Clock::now()) + last <= args.seconds) {
    const auto t0 = Clock::now();
    ok = run_pair(def, args, def.scenario, {}, true, tracer, ++op, read_ns, samples, o) && ok;
    last = seconds_between(t0, Clock::now());
  }
  if (ok && samples.first) {
    fill_run_layers(o.layers, samples);
    probe_parkable(def, def.scenario, {}, tracer, ++op, samples, o);
  }
  return o;
}

Outcome trace_fleet(const WorkloadDef& def, const Args& args, Tracer& tracer, double read_ns) {
  Outcome o;
  const core::FleetSpec& spec = def.fleet;
  std::vector<double> point_s, utilization, pv_sample, forecast, merge, overhead;
  std::uint64_t forecast_calls = 0;
  bool ok = true;
  const auto start = Clock::now();
  double last = 0.0;
  int op = 0;
  while (op < 1 || seconds_between(start, Clock::now()) + last <= args.seconds) {
    const auto t0 = Clock::now();
    const std::string what = def.name + " op " + std::to_string(++op);
    ++o.attempted;
    try {
      const int span = tracer.begin("untraced.run_fleet", op);
      const core::FleetReport report = core::run_fleet(spec, def.workers);
      tracer.end(span);
      const std::string json = report.to_json();
      const FleetTrace traced = traced_fleet(spec, def.workers, tracer, op);
      std::cerr << "e2e_trace: " << what << ": untraced " << tracer.seconds(span)
                << " s, traced " << traced.wall_s << " s, digest " << digest_of(json) << "\n";
      std::vector<std::string> problems = check_op(args, digest_of(json), check_fleet(def, report));
      if (traced.json != json) problems.push_back("decomposed fleet report != run_fleet's");
      if (!problems.empty()) {
        ok = false;
        fail(o, what, problems);
      } else {
        point_s.insert(point_s.end(), traced.point_s.begin(), traced.point_s.end());
        double busy = 0.0;
        for (const double s : traced.point_s) busy += s;
        utilization.push_back(busy / (traced.sweep_s * traced.workers));
        pv_sample.push_back(traced.pv_sample_s);
        forecast.push_back(traced.forecast_s);
        merge.push_back(traced.merge_s);
        overhead.push_back(traced.wall_s / tracer.seconds(span));
        forecast_calls = traced.forecast_calls;
      }
    } catch (const std::exception& e) {
      ok = false;
      fail(o, what, {e.what()});
    }
    last = seconds_between(t0, Clock::now());
  }

  // One fleet point (chip 0 under the last policy) through the traced
  // single-run harness: the noc / controller / traffic layers of a point.
  core::RunnerOptions point_options = spec.runner;
  point_options.initial_vths =
      core::sample_network_vths(silicon_config_of(spec), core::pv_config_of(spec.scenario),
                                core::fleet_chip_seed(spec.scenario, 0));
  WorkloadDef point = def;
  point.policy = spec.policies.back();
  point.workload = spec.workloads.front().workload;
  RunSamples samples;
  ok = run_pair(point, args, spec.scenario, point_options, false, tracer, ++op, read_ns, samples,
                o) &&
       ok;
  if (!ok) return o;

  fill_run_layers(o.layers, samples);
  probe_parkable(point, spec.scenario, point_options, tracer, ++op, samples, o);
  o.layers.point_s_p50 = quantile(point_s, 0.5);
  o.layers.point_s_p90 = quantile(point_s, 0.9);
  o.layers.worker_utilization = median(utilization);
  o.layers.pv_sample_s = median(pv_sample);
  o.layers.forecast_calls = static_cast<double>(forecast_calls);
  o.layers.forecast_s = median(forecast);
  o.layers.merge_s = median(merge);
  o.layers.overhead = median(overhead);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadDef def;
  try {
    args = parse_args(argc, argv);
    def = make_workload(args.workload, args.seed, args.size);
  } catch (const std::exception& e) {
    std::cerr << "e2e_trace: " << e.what() << "\n";
    return 2;
  }
  Tracer tracer;
  const double read_ns = clock_read_ns();
  const Outcome o = def.is_fleet ? trace_fleet(def, args, tracer, read_ns)
                                 : trace_single(def, args, tracer, read_ns);
  if (!args.spans_path.empty()) tracer.write(args.spans_path);
  // Traced numbers count only when every traced result matched its untraced twin.
  print_result(o.failed == 0, o.attempted, o.failed, to_metrics(o.layers, o.failed == 0));
  return 0;
}
