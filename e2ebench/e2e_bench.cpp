// e2e_bench: timed end-to-end runs of one workload through the public entry
// points, core::run_experiment / core::run_fleet, with default
// RunnerOptions (so a changed default is measured by that change).
//
//   e2e_bench --workload loaded-4x4 --seed 1 --seconds 20
//             [--size full|tiny] [--expect HEX] [--print-digest 1]
//
// A run repeats the full op until --seconds are spent (at least kMinOps
// times). Beside each op it times a batch of set-up calls (the same call on
// a 0-warmup / 1-measure-cycle window), then runs the reference kernel once.
// Times are CPU times scaled by the reference kernel: see kReferenceS.
// Every op's output is checked (seed-independent invariants, plus the
// recorded digest given by --expect). The last stdout line is the JSON
// result; progress goes to stderr. --print-digest 1 runs one op and prints
// only its digest (how the recorded digests are made).

#include <exception>
#include <iostream>

#include "workloads.hpp"

namespace {

using namespace e2ebench;

constexpr std::size_t kMinOps = 3;
/// How times are scaled. The work is deterministic, so only the host can
/// change an op's time, and on a shared host other tenants slow ops by up to
/// ~40%, in spikes and in phases of minutes. CPU time slows with them
/// (shared caches, memory and cores, clock speed), so it is scaled: an op's
/// scaled time is its process CPU time over the mean CPU time of the
/// reference kernel runs before and after it (on as many threads as the op
/// uses), times kReferenceS, the kernel's CPU time per thread on the host
/// the baseline was measured on. A change in the simulator's speed moves
/// the scaled time in full; a change in the host's speed slows the kernel
/// too and cancels. The reported times are medians of scaled times.
constexpr double kReferenceS = 0.0625;

struct Op {
  Elapsed time;
  std::uint64_t packets = 0;  ///< offered in the measurement window (single runs)
  std::string digest;
  std::vector<std::string> problems;
};

/// One op on the workload's full window.
Op run_op(const WorkloadDef& def) {
  Op op;
  const Stopwatch watch;
  if (def.is_fleet) {
    const core::FleetReport report = core::run_fleet(def.fleet, def.workers);
    op.time = watch.elapsed();
    op.digest = digest_of(report.to_json());
    op.problems = check_fleet(def, report);
  } else {
    const core::RunResult result = core::run_experiment(def.scenario, def.policy, def.workload);
    op.time = watch.elapsed();
    op.digest = digest_of(core::to_json(result));
    op.problems = check_run(def, result);
    op.packets = result.packets_offered;
  }
  return op;
}

/// The same call on the set-up window: everything except simulated cycles.
Elapsed time_setup(const WorkloadDef& def) {
  const Stopwatch watch;
  if (def.is_fleet)
    (void)core::run_fleet(setup_window(def.fleet), def.workers);
  else
    (void)core::run_experiment(setup_window(def.scenario), def.policy, def.workload);
  return watch.elapsed();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadDef def;
  try {
    args = parse_args(argc, argv);
    def = make_workload(args.workload, args.seed, args.size);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }

  if (args.print_digest) {
    const Op op = run_op(def);
    report_problems(def.name, op.problems);
    if (!op.problems.empty()) return 1;
    std::cout << op.digest << "\n";
    return 0;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const unsigned threads = def.is_fleet ? def.workers : 1;
  // CPU time of the latest reference kernel run, and the scaling of a time
  // measured between it and the next one.
  double kernel_before_s = run_reference(threads).cpu_s;
  const auto scaled = [&](double cpu_s, double kernel_after_s) {
    return cpu_s / (0.5 * (kernel_before_s + kernel_after_s)) * kReferenceS;
  };

  // Set-up time: one untimed call (first-touch allocation, lazy statics)
  // here, then a batch of timed calls beside every op.
  ++attempted;
  try {
    (void)time_setup(def);
  } catch (const std::exception& e) {
    ++failed;
    report_problems(def.name + " set-up", {e.what()});
  }
  const int setup_reps = def.is_fleet ? 1 : 10;
  std::vector<double> setup_scaled_s;

  // A chip point is one (chip, policy) run: a single-run op is one point.
  const double points_per_op =
      def.is_fleet ? static_cast<double>(def.fleet.total_points()) : 1.0;
  const double cycles_per_op =
      points_per_op * static_cast<double>(def.scenario.warmup_cycles + def.scenario.measure_cycles);
  std::vector<double> op_scaled_s;
  std::size_t ops = 0;
  double last_op_wall_s = 0.0;
  const auto start = Clock::now();
  while (ops < kMinOps || seconds_between(start, Clock::now()) + last_op_wall_s <= args.seconds) {
    ++ops;
    ++attempted;
    std::vector<double> setup_cpu_s;
    for (int i = 0; i < setup_reps; ++i) {
      ++attempted;
      try {
        setup_cpu_s.push_back(time_setup(def).cpu_s);
      } catch (const std::exception& e) {
        ++failed;
        report_problems(def.name + " set-up", {e.what()});
      }
    }
    try {
      const Op op = run_op(def);
      const Elapsed reference = run_reference(threads);
      const double scaled_s = scaled(op.time.cpu_s, reference.cpu_s);
      for (const double cpu_s : setup_cpu_s) setup_scaled_s.push_back(scaled(cpu_s, reference.cpu_s));
      kernel_before_s = reference.cpu_s;
      last_op_wall_s = op.time.wall_s + reference.wall_s;
      std::cerr << "e2e_bench: " << def.name << " op " << ops << ": " << op.time.wall_s
                << " s wall, " << op.time.cpu_s << " s CPU (kernel " << reference.cpu_s
                << " s), scaled " << scaled_s << " s, " << op.packets << " packets, digest "
                << op.digest << "\n";
      std::vector<std::string> problems = check_op(args, op.digest, op.problems);
      if (!problems.empty()) {
        ++failed;
        report_problems(def.name + " op " + std::to_string(ops), problems);
        continue;
      }
      op_scaled_s.push_back(scaled_s);
    } catch (const std::exception& e) {
      ++failed;
      report_problems(def.name + " op " + std::to_string(ops), {e.what()});
    }
  }

  std::optional<double> op_time;
  if (!op_scaled_s.empty()) op_time = median(op_scaled_s);
  std::optional<double> setup_time;
  if (!setup_scaled_s.empty()) setup_time = median(setup_scaled_s);
  std::vector<Metric> metrics;
  metrics.push_back(
      {"sim_cycles_per_s", op_time ? std::optional(cycles_per_op / *op_time) : std::nullopt, "1/s"});
  metrics.push_back({"chip_points_per_s",
                     op_time ? std::optional(points_per_op / *op_time) : std::nullopt, "1/s"});
  metrics.push_back({"setup_s", setup_time, "s"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
