#include "nbtinoc/core/fleet.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "nbtinoc/core/sweep.hpp"
#include "nbtinoc/util/json.hpp"
#include "nbtinoc/util/rng.hpp"
#include "nbtinoc/util/strings.hpp"
#include "nbtinoc/util/table.hpp"

namespace nbtinoc::core {

namespace {

std::string hex_bits(double v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

double bits_hex(const std::string& field, const std::string& line) {
  std::size_t used = 0;
  std::uint64_t bits = 0;
  try {
    bits = std::stoull(field, &used, 16);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != field.size() || field.empty())
    throw std::runtime_error("fleet shard: bad f64 bit pattern \"" + field + "\" in line: " + line);
  return std::bit_cast<double>(bits);
}

std::size_t parse_size(const std::string& field, const std::string& line) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(field, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != field.size() || field.empty())
    throw std::runtime_error("fleet shard: bad integer \"" + field + "\" in line: " + line);
  return static_cast<std::size_t>(v);
}

/// Nearest-rank percentile on an ascending vector: element at index
/// floor(q * n), clamped — q = 0 gives the min, q -> 1 the max.
double percentile(const std::vector<double>& ascending, double q) {
  const std::size_t n = ascending.size();
  const auto at = static_cast<std::size_t>(q * static_cast<double>(n));
  return ascending[std::min(at, n - 1)];
}

}  // namespace

void FleetSpec::validate() const {
  if (chips < 1) throw std::invalid_argument("FleetSpec: chips < 1");
  if (policies.empty()) throw std::invalid_argument("FleetSpec: no policies");
  if (workloads.empty()) throw std::invalid_argument("FleetSpec: no workloads");
  if (dvth_budget_v <= 0.0) throw std::invalid_argument("FleetSpec: dvth_budget_v <= 0");
  if (failure_fraction <= 0.0 || failure_fraction > 1.0)
    throw std::invalid_argument("FleetSpec: failure_fraction must be in (0, 1]");
  if (max_years <= 0.0) throw std::invalid_argument("FleetSpec: max_years <= 0");
  for (const auto& w : workloads)
    if (w.label.empty() || w.label.find(',') != std::string::npos)
      throw std::invalid_argument("FleetSpec: workload labels must be non-empty and comma-free");
  // Runner fields a fleet would silently override or share across points
  // (and across workers). paper_scale stays: a paper-scale run per chip is
  // meaningful.
  if (!runner.initial_vths.empty())
    throw std::invalid_argument(
        "FleetSpec: runner.initial_vths must be empty (each chip samples its own silicon)");
  if (runner.capture_trace != nullptr)
    throw std::invalid_argument(
        "FleetSpec: runner.capture_trace must be null (every point would write one trace)");
  if (runner.snapshot_out != nullptr)
    throw std::invalid_argument(
        "FleetSpec: runner.snapshot_out must be null (every point would write one snapshot)");
  if (runner.resume_from)
    throw std::invalid_argument(
        "FleetSpec: runner.resume_from must be empty (one snapshot cannot resume every point)");
}

std::uint64_t fleet_chip_seed(const sim::Scenario& scenario, int chip) {
  util::SplitMix64 stream(scenario.pv_seed());
  std::uint64_t seed = 0;
  for (int i = 0; i <= chip; ++i) seed = stream.next();
  return seed;
}

std::string fleet_digest(const FleetSpec& spec) {
  const sim::Scenario& s = spec.scenario;
  std::string d = "fleet scenario=" + s.name;
  d += " mesh=" + std::to_string(s.mesh_width) + "x" + std::to_string(s.mesh_height);
  // Emitted only off the defaults, so every mesh/partitioned digest (and
  // with it every existing shard partial) keeps its exact byte string.
  if (s.topology != "mesh") d += " topo=" + s.topology + "/" + std::to_string(s.concentration);
  d += " vcs=" + std::to_string(s.num_vcs) + " vnets=" + std::to_string(s.num_vnets);
  if (s.buffer_org != "partitioned")
    d += " org=" + s.buffer_org + "/" + std::to_string(s.shared_reserve);
  // Buffer, packet and pipeline shape: likewise named only off the
  // defaults, so a merge cannot mix fleets that differ only there.
  const sim::Scenario defaults;
  if (s.buffer_depth != defaults.buffer_depth) d += " depth=" + std::to_string(s.buffer_depth);
  if (s.packet_length != defaults.packet_length) d += " plen=" + std::to_string(s.packet_length);
  if (s.flit_width_bits != defaults.flit_width_bits)
    d += " flit_bits=" + std::to_string(s.flit_width_bits);
  if (s.link_width_bits != defaults.link_width_bits)
    d += " link_bits=" + std::to_string(s.link_width_bits);
  if (s.routing != defaults.routing) d += " routing=" + s.routing;
  if (s.router_stages != defaults.router_stages) d += " stages=" + std::to_string(s.router_stages);
  if (s.wakeup_latency != defaults.wakeup_latency)
    d += " wake=" + std::to_string(s.wakeup_latency);
  d += s.clock_and_tech_digest();
  d += " rate=" + util::digest_double(s.injection_rate);
  d += " warmup=" + std::to_string(s.warmup_cycles) + " measure=" + std::to_string(s.measure_cycles);
  d += " seeds=" + std::to_string(s.pv_seed()) + "/" + std::to_string(s.traffic_seed());
  d += " chips=" + std::to_string(spec.chips);
  d += " budget=" + util::digest_double(spec.dvth_budget_v);
  d += " fraction=" + util::digest_double(spec.failure_fraction);
  d += " max_years=" + util::digest_double(spec.max_years);
  d += " policies=";
  for (std::size_t i = 0; i < spec.policies.size(); ++i) {
    if (i > 0) d.push_back(',');
    d += to_string(spec.policies[i]);
  }
  d += " workloads=";
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    if (i > 0) d.push_back(',');
    d += spec.workloads[i].label;
    d.push_back('/');
    d += std::to_string(spec.workloads[i].workload.seed_salt);
  }
  d += " rr=" + std::to_string(spec.runner.policy.rr_rotation_period) +
       " hold=" + std::to_string(spec.runner.policy.decision_period);
  // Named only when a plan is set, so fault-free digests keep their bytes.
  if (spec.runner.faults.enabled()) d += " faults=" + spec.runner.faults.digest();
  return d;
}

FleetShardResult run_fleet_shard(const FleetSpec& spec, int shard_index, int shard_count,
                                 unsigned workers) {
  spec.validate();
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count)
    throw std::invalid_argument("run_fleet_shard: need 0 <= shard_index < shard_count, got " +
                                std::to_string(shard_index) + "/" + std::to_string(shard_count));

  const std::size_t total = spec.total_points();
  const std::size_t chips = static_cast<std::size_t>(spec.chips);
  const std::size_t workload_count = spec.workloads.size();

  // Each chip's silicon is sampled on the network the scenario builds, so
  // every topology and buffer organization gets one Vth per existing port
  // and gateable buffer — once per shard, however many groups visit it.
  const noc::NocConfig net_config = noc_config_of(spec.scenario);
  const nbti::PvConfig pv = pv_config_of(spec.scenario);
  using Silicon = std::map<noc::PortKey, std::vector<double>>;
  std::vector<Silicon> silicon(chips);

  // A sensor-less (policy, workload) group never reads its chip's silicon,
  // so every chip of the group has the same duty cycles: the group runs
  // once, on the silicon of its lowest chip in this shard, and each chip
  // reduces that run with its own Vth. A sensor-reading policy runs every
  // chip on its own silicon.
  constexpr std::size_t kNoRun = static_cast<std::size_t>(-1);
  std::vector<std::size_t> group_run(spec.policies.size() * workload_count, kNoRun);
  std::vector<std::size_t> shard_points;  // global indices, ascending
  std::vector<std::size_t> run_of_point;  // shard point -> sweep index

  SweepOptions sweep_options;
  sweep_options.workers = workers;
  SweepRunner sweep(sweep_options);
  for (std::size_t index = static_cast<std::size_t>(shard_index); index < total;
       index += static_cast<std::size_t>(shard_count)) {
    const std::size_t chip = index % chips;
    const std::size_t group = index / chips;  // policy-major, then workload
    const std::size_t workload_index = group % workload_count;
    const std::size_t policy_index = group / workload_count;
    if (silicon[chip].empty())
      silicon[chip] = sample_network_vths(net_config, pv,
                                          fleet_chip_seed(spec.scenario, static_cast<int>(chip)));

    const bool shared = !reads_sensors(spec.policies[policy_index]);
    if (!shared || group_run[group] == kNoRun) {
      SweepPoint point;
      point.scenario = spec.scenario;
      point.policy = spec.policies[policy_index];
      point.workload = spec.workloads[workload_index].workload;
      point.label = "chip" + std::to_string(chip);
      RunnerOptions ropt = spec.runner;
      ropt.initial_vths = silicon[chip];
      point.runner = std::move(ropt);
      const std::size_t run = sweep.add(std::move(point));
      if (shared) group_run[group] = run;
    }
    shard_points.push_back(index);
    run_of_point.push_back(shared ? group_run[group] : sweep.size() - 1);
  }
  const SweepResult runs = sweep.run();

  // Reduce each point to its chip failure time: per-VC lifetimes from the
  // closed-form model, then the failure_fraction order statistic. The Vth
  // comes from the chip's own silicon, never from the run, which for a
  // shared group carries another chip's.
  const nbti::NbtiModel model = calibrated_model_of(spec.scenario, spec.runner.nbti);
  const nbti::AgingForecaster forecaster(model, operating_point_of(spec.scenario));

  FleetShardResult shard;
  shard.digest = fleet_digest(spec);
  shard.total_points = total;
  shard.shard_index = shard_index;
  shard.shard_count = shard_count;
  shard.simulated_runs = runs.size();
  std::vector<double> lifetimes;
  for (std::size_t i = 0; i < shard_points.size(); ++i) {
    FleetPointOutcome outcome;
    outcome.index = shard_points[i];
    outcome.chip = static_cast<int>(outcome.index % chips);
    outcome.workload_index = (outcome.index / chips) % workload_count;
    outcome.policy_index = outcome.index / chips / workload_count;
    const Silicon& chip_vths = silicon[static_cast<std::size_t>(outcome.chip)];

    lifetimes.clear();
    double worst_duty = 0.0;
    for (const auto& [key, port] : runs[run_of_point[i]].result.ports) {
      const std::vector<double>& vths = chip_vths.at(key);
      for (std::size_t v = 0; v < port.duty_percent.size(); ++v) {
        nbti::BufferAgingInput input;
        input.initial_vth_v = vths.at(v);
        input.alpha = port.duty_percent[v] / 100.0;
        lifetimes.push_back(
            forecaster.lifetime_years(input, spec.dvth_budget_v, spec.max_years));
        worst_duty = std::max(worst_duty, port.duty_percent[v]);
      }
    }
    std::sort(lifetimes.begin(), lifetimes.end());
    const auto over = static_cast<std::size_t>(
        std::ceil(spec.failure_fraction * static_cast<double>(lifetimes.size())));
    outcome.failure_years = lifetimes[std::max<std::size_t>(over, 1) - 1];
    outcome.worst_duty_percent = worst_duty;
    shard.outcomes.push_back(outcome);
  }
  return shard;
}

std::string serialize_fleet_shard(const FleetShardResult& shard) {
  std::string out = "NBTIFLEET v1\n";
  out += "digest " + shard.digest + "\n";
  out += "points " + std::to_string(shard.total_points) + " shard " +
         std::to_string(shard.shard_index) + "/" + std::to_string(shard.shard_count) +
         " outcomes " + std::to_string(shard.outcomes.size()) + "\n";
  for (const FleetPointOutcome& o : shard.outcomes) {
    out += "O " + std::to_string(o.index) + " " + std::to_string(o.chip) + " " +
           std::to_string(o.policy_index) + " " + std::to_string(o.workload_index) + " " +
           hex_bits(o.failure_years) + " " + hex_bits(o.worst_duty_percent) + "\n";
  }
  out += "END\n";
  return out;
}

FleetShardResult parse_fleet_shard(const std::string& text) {
  const std::vector<std::string> lines = util::split(text, '\n');
  if (lines.empty() || lines[0] != "NBTIFLEET v1")
    throw std::runtime_error(
        "fleet shard: missing \"NBTIFLEET v1\" header (is this a shard partial file?)");
  if (lines.size() < 3 || !util::starts_with(lines[1], "digest "))
    throw std::runtime_error("fleet shard: missing digest line");

  FleetShardResult shard;
  shard.digest = lines[1].substr(7);

  const std::vector<std::string> meta = util::split(lines[2], ' ');
  if (meta.size() != 6 || meta[0] != "points" || meta[2] != "shard" || meta[4] != "outcomes")
    throw std::runtime_error("fleet shard: malformed meta line: " + lines[2]);
  shard.total_points = parse_size(meta[1], lines[2]);
  const std::vector<std::string> split_shard = util::split(meta[3], '/');
  if (split_shard.size() != 2)
    throw std::runtime_error("fleet shard: malformed shard i/N field: " + lines[2]);
  shard.shard_index = static_cast<int>(parse_size(split_shard[0], lines[2]));
  shard.shard_count = static_cast<int>(parse_size(split_shard[1], lines[2]));
  const std::size_t expected = parse_size(meta[5], lines[2]);

  bool terminated = false;
  for (std::size_t i = 3; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    if (lines[i] == "END") {
      terminated = true;
      continue;
    }
    if (terminated) throw std::runtime_error("fleet shard: content after END: " + lines[i]);
    const std::vector<std::string> f = util::split(lines[i], ' ');
    if (f.size() != 7 || f[0] != "O")
      throw std::runtime_error("fleet shard: malformed outcome line: " + lines[i]);
    FleetPointOutcome o;
    o.index = parse_size(f[1], lines[i]);
    o.chip = static_cast<int>(parse_size(f[2], lines[i]));
    o.policy_index = parse_size(f[3], lines[i]);
    o.workload_index = parse_size(f[4], lines[i]);
    o.failure_years = bits_hex(f[5], lines[i]);
    o.worst_duty_percent = bits_hex(f[6], lines[i]);
    shard.outcomes.push_back(o);
  }
  if (!terminated)
    throw std::runtime_error("fleet shard: truncated partial (no END line) — the producing "
                             "shard run did not finish");
  if (shard.outcomes.size() != expected)
    throw std::runtime_error("fleet shard: outcome count " + std::to_string(shard.outcomes.size()) +
                             " does not match the declared " + std::to_string(expected));
  return shard;
}

FleetReport::FleetReport(const FleetSpec& spec, std::vector<FleetGroupReport> groups)
    : spec_(spec), groups_(std::move(groups)) {}

std::string FleetReport::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("fleet").begin_object();
  w.field("scenario", spec_.scenario.name)
      .field("chips", spec_.chips)
      .field("dvth_budget_v", spec_.dvth_budget_v)
      .field("failure_fraction", spec_.failure_fraction)
      .field("max_years", spec_.max_years);
  w.end_object();
  w.key("groups").begin_array();
  for (const FleetGroupReport& g : groups_) {
    w.begin_object();
    w.field("policy", to_string(spec_.policies[g.policy_index]));
    w.field("workload", spec_.workloads[g.workload_index].label);
    w.field("mean_years", g.mean_years)
        .field("min_years", g.min_years)
        .field("p10_years", g.p10_years)
        .field("median_years", g.median_years)
        .field("p90_years", g.p90_years)
        .field("max_years", g.max_years);
    w.key("failure_years").begin_array();
    for (double y : g.failure_years) w.value(y);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string FleetReport::to_csv() const {
  std::string out = "policy,workload,chips,mean_years,min_years,p10_years,median_years,"
                    "p90_years,max_years\n";
  for (const FleetGroupReport& g : groups_) {
    out += std::string(to_string(spec_.policies[g.policy_index])) + ',' +
           spec_.workloads[g.workload_index].label + ',' +
           std::to_string(g.failure_years.size()) + ',' + util::format_double(g.mean_years, 4) +
           ',' + util::format_double(g.min_years, 4) + ',' + util::format_double(g.p10_years, 4) +
           ',' + util::format_double(g.median_years, 4) + ',' +
           util::format_double(g.p90_years, 4) + ',' + util::format_double(g.max_years, 4) + '\n';
  }
  return out;
}

FleetReport merge_fleet_shards(const FleetSpec& spec, std::vector<FleetShardResult> shards) {
  spec.validate();
  const std::string digest = fleet_digest(spec);
  const std::size_t total = spec.total_points();

  std::vector<const FleetPointOutcome*> by_index(total, nullptr);
  for (const FleetShardResult& shard : shards) {
    if (shard.digest != digest)
      throw std::runtime_error(
          "fleet merge: shard was produced under a different fleet configuration.\n  shard "
          "digest:    " +
          shard.digest + "\n  expected digest: " + digest);
    if (shard.total_points != total)
      throw std::runtime_error("fleet merge: shard declares " +
                               std::to_string(shard.total_points) + " total points, spec has " +
                               std::to_string(total));
    for (const FleetPointOutcome& o : shard.outcomes) {
      if (o.index >= total)
        throw std::runtime_error("fleet merge: stray outcome index " + std::to_string(o.index));
      if (by_index[o.index] != nullptr)
        throw std::runtime_error("fleet merge: point " + std::to_string(o.index) +
                                 " appears in more than one shard (overlapping splits?)");
      by_index[o.index] = &o;
    }
  }
  for (std::size_t i = 0; i < total; ++i) {
    if (by_index[i] == nullptr)
      throw std::runtime_error(
          "fleet merge: point " + std::to_string(i) +
          " is missing — pass every shard partial of a complete i/N split");
  }

  const std::size_t chips = static_cast<std::size_t>(spec.chips);
  std::vector<FleetGroupReport> groups;
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    for (std::size_t wl = 0; wl < spec.workloads.size(); ++wl) {
      FleetGroupReport g;
      g.policy_index = p;
      g.workload_index = wl;
      for (std::size_t chip = 0; chip < chips; ++chip) {
        const std::size_t index = (p * spec.workloads.size() + wl) * chips + chip;
        g.failure_years.push_back(by_index[index]->failure_years);
      }
      std::sort(g.failure_years.begin(), g.failure_years.end());
      double sum = 0.0;
      for (double y : g.failure_years) sum += y;
      g.mean_years = sum / static_cast<double>(g.failure_years.size());
      g.min_years = g.failure_years.front();
      g.max_years = g.failure_years.back();
      g.p10_years = percentile(g.failure_years, 0.10);
      g.median_years = percentile(g.failure_years, 0.50);
      g.p90_years = percentile(g.failure_years, 0.90);
      groups.push_back(std::move(g));
    }
  }
  return FleetReport(spec, std::move(groups));
}

FleetReport run_fleet(const FleetSpec& spec, unsigned workers) {
  std::vector<FleetShardResult> shards;
  shards.push_back(run_fleet_shard(spec, 0, 1, workers));
  return merge_fleet_shards(spec, std::move(shards));
}

}  // namespace nbtinoc::core
