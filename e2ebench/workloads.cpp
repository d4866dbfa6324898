#include "workloads.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace e2ebench {

namespace {

constexpr const char* kLoaded = "loaded-4x4";
constexpr const char* kBursty = "bursty-8x8-shared";
constexpr const char* kFleet = "fleet-4x4";

/// Paper-shaped 4x4 point: Table II's 16core-inj0.20 row (4 VCs,
/// partitioned buffers, uniform synthetic traffic).
sim::Scenario loaded_scenario(Size size) {
  sim::Scenario s = sim::Scenario::synthetic(4, 4, 0.20);
  s.warmup_cycles = size == Size::kFull ? 2'000 : 200;
  s.measure_cycles = size == Size::kFull ? 10'000 : 1'000;
  return s;
}

/// The reference kernel. It must never change: the rates are scaled by its
/// time. It mixes what the simulator does per cycle: reads and writes of
/// small records spread over a 512 KiB table, data-dependent branches, and
/// short FIFO queues that fill and drain.
std::uint64_t reference_kernel() {
  struct Record {
    std::uint64_t a, b, c, d;
  };
  constexpr std::size_t kRecords = 1 << 14;
  constexpr int kSteps = 3'000'000;
  std::vector<Record> table(kRecords, Record{0, 1, 2, 3});
  std::vector<std::deque<std::uint32_t>> queues(64);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    Record& r = table[x & (kRecords - 1)];
    if (r.a & 1) {
      r.b += x >> 11;
      r.a += r.c;
    } else {
      r.c ^= r.b;
      r.a += 3;
    }
    auto& q = queues[(x >> 20) & 63];
    if (q.size() < 8 && (x & 0x300) != 0) {
      q.push_back(static_cast<std::uint32_t>(x));
    } else if (!q.empty()) {
      acc += q.front();
      q.pop_front();
    }
    r.d += acc;
  }
  return acc;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{kLoaded, kBursty, kFleet};
  return names;
}

WorkloadDef make_workload(const std::string& name, std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  WorkloadDef def;
  def.name = name;
  if (name == kLoaded) {
    def.scenario = loaded_scenario(size);
    def.policy = core::PolicyKind::kSensorWise;
    def.workload = core::Workload::synthetic(nbtinoc::traffic::PatternKind::kUniform);
    def.workload.seed_salt = seed;
    def.check_nominal_rate = true;
  } else if (name == kBursty) {
    // 8x8 DAMQ mesh under a heavy-tailed datacenter aggregate: 20 Pareto
    // on/off users per node at 0.0025 flits/cycle while ON, ON 10% of the
    // time => ~0.005 flits/cycle/node mean offered load.
    sim::Scenario s = sim::Scenario::synthetic(8, 4, 0.005);
    s.name = "64core-datacenter-shared";
    s.buffer_org = "shared";
    s.warmup_cycles = full ? 4'000 : 500;
    s.measure_cycles = full ? 16'000 : 2'000;
    def.scenario = s;
    def.policy = core::PolicyKind::kSensorWiseSlotMd;
    nbtinoc::traffic::DatacenterProfile profile;
    profile.users_per_node = 20;
    profile.user_rate = 0.0025;
    def.workload = core::Workload::datacenter_aggregate(profile, seed);
  } else if (name == kFleet) {
    def.is_fleet = true;
    sim::Scenario s = sim::Scenario::synthetic(4, 4, 0.20);
    s.warmup_cycles = full ? 500 : 100;
    s.measure_cycles = full ? 2'500 : 500;
    def.scenario = s;
    def.fleet.scenario = s;
    def.fleet.policies = {core::PolicyKind::kBaseline, core::PolicyKind::kSensorWise};
    core::Workload uniform = core::Workload::synthetic(nbtinoc::traffic::PatternKind::kUniform);
    uniform.seed_salt = seed;
    def.fleet.workloads = {{"uniform", uniform}};
    def.fleet.chips = full ? 16 : 2;
    def.workers = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  } else {
    std::string known;
    for (const auto& n : workload_names()) known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
  }
  return def;
}

sim::Scenario setup_window(sim::Scenario scenario) {
  scenario.warmup_cycles = 0;
  scenario.measure_cycles = 1;
  return scenario;
}

core::FleetSpec setup_window(core::FleetSpec spec) {
  spec.scenario = setup_window(spec.scenario);
  return spec;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny")
        throw std::invalid_argument("--size must be full or tiny");
      args.size = value == "full" ? Size::kFull : Size::kTiny;
    } else if (flag == "--expect") {
      args.expect_digest = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--print-digest") {
      args.print_digest = value != "0";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

std::string digest_of(std::string_view json) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : json) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::vector<std::string> check_run(const WorkloadDef& def, const core::RunResult& r) {
  // The counters cover the measurement window only, so packets offered
  // during warmup may be ejected inside it: ejected <= offered holds for
  // the whole run (checked by the traced run), not for the window. Here the
  // window must drain what it offers to within 5%, plus two packets per
  // node in flight across the window edges (no growing backlog).
  std::vector<std::string> problems;
  if (r.packets_offered == 0) problems.push_back("no packets offered");
  const double offered_packets = static_cast<double>(r.packets_offered);
  const double slack = 0.05 * offered_packets + 2.0 * def.scenario.cores();
  if (std::fabs(static_cast<double>(r.packets_ejected) - offered_packets) > slack)
    problems.push_back("packets_ejected " + std::to_string(r.packets_ejected) +
                       " vs packets_offered " + std::to_string(r.packets_offered) +
                       ": backlog");
  for (const auto& [key, port] : r.ports)
    for (const double duty : port.duty_percent)
      if (!(duty >= 0.0 && duty <= 100.0)) {
        problems.push_back("duty " + std::to_string(duty) + "% outside [0, 100] at router " +
                           std::to_string(key.router));
        break;
      }
  if (def.check_nominal_rate) {
    // Below saturation the offered and the accepted load both equal the
    // scenario's nominal rate: injection_rate flits/cycle/node, i.e.
    // injection_rate * phits_per_flit in the simulator's phit units. Each
    // node draws one Bernoulli(injection_rate / packet_length) packet per
    // cycle, so the window's packet count strays from its mean by sampling
    // noise: allowed are 5 standard deviations of that count plus two
    // packets per node in flight across the window edges.
    const sim::Scenario& s = def.scenario;
    const double p = s.injection_rate / s.packet_length;
    const double draws = static_cast<double>(s.measure_cycles) * s.cores();
    const double nominal_packets = draws * p;
    const double slack_packets = 5.0 * std::sqrt(draws * p * (1.0 - p)) + 2.0 * s.cores();
    if (std::fabs(offered_packets - nominal_packets) > slack_packets)
      problems.push_back("packets_offered " + std::to_string(r.packets_offered) +
                         " vs nominal " + std::to_string(nominal_packets));
    const double phits_per_packet = static_cast<double>(s.packet_length) * s.phits_per_flit();
    const double nominal = s.injection_rate * s.phits_per_flit();
    const double accepted = r.throughput_flits_per_cycle_per_node;
    if (std::fabs(accepted - nominal) > slack_packets * phits_per_packet / draws)
      problems.push_back("accepted " + std::to_string(accepted) + " vs nominal " +
                         std::to_string(nominal) + " phits/cycle/node");
  }
  return problems;
}

std::vector<std::string> check_fleet(const WorkloadDef& def, const core::FleetReport& report) {
  std::vector<std::string> problems;
  const auto& groups = report.groups();
  if (groups.size() != def.fleet.policies.size() * def.fleet.workloads.size())
    problems.push_back("fleet report has " + std::to_string(groups.size()) + " groups");
  for (const auto& g : groups) {
    if (g.failure_years.size() != static_cast<std::size_t>(def.fleet.chips))
      problems.push_back("fleet group holds " + std::to_string(g.failure_years.size()) +
                         " chips, expected " + std::to_string(def.fleet.chips));
    for (const double y : g.failure_years)
      if (!(y > 0.0 && y <= def.fleet.max_years)) {
        problems.push_back("failure time " + std::to_string(y) + " y outside (0, max_years]");
        break;
      }
  }
  return problems;
}

std::vector<std::string> check_op(const Args& args, const std::string& digest,
                                  std::vector<std::string> problems) {
  if (!args.expect_digest.empty() && digest != args.expect_digest)
    problems.push_back("digest " + digest + " != recorded " + args.expect_digest);
  return problems;
}

namespace {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

Stopwatch::Stopwatch() : wall0_(Clock::now()), cpu0_(process_cpu_s()) {}

Elapsed Stopwatch::elapsed() const {
  return {seconds_between(wall0_, Clock::now()), process_cpu_s() - cpu0_};
}

Elapsed run_reference(unsigned threads) {
  std::vector<std::uint64_t> sums(threads);
  const Stopwatch watch;
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back([&sums, t] { sums[t] = reference_kernel(); });
  sums[0] = reference_kernel();
  for (auto& th : pool) th.join();
  const Elapsed e = watch.elapsed();
  volatile std::uint64_t sink = 0;
  for (const std::uint64_t s : sums) sink = sink + s;
  return e;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  const auto at = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return values[std::clamp<std::size_t>(at, 1, n) - 1];
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // carry the high-water mark of whatever process exec'd this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[40] = "null";
    if (m.value && std::isfinite(*m.value)) std::snprintf(value, sizeof value, "%.17g", *m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void report_problems(const std::string& what, const std::vector<std::string>& problems) {
  for (const auto& p : problems) std::cerr << "e2ebench: " << what << ": " << p << "\n";
}

}  // namespace e2ebench
