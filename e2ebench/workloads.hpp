#pragma once
// Shared pieces of the end-to-end benchmark: the named workloads, argument
// parsing, output checks, result digests and the one-line JSON result.
//
// Every workload is open loop in simulated time (sources are never
// back-pressured; the NI source queue is unbounded) and a batch job on the
// host. The benchmark seed reaches the simulator only as Workload::seed_salt;
// the silicon (process-variation seed) comes from the scenario.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/core/fleet.hpp"

namespace e2ebench {

namespace core = nbtinoc::core;
namespace sim = nbtinoc::sim;

/// "full" is the measured size; "tiny" is the smoke-test size.
enum class Size { kFull, kTiny };

struct WorkloadDef {
  std::string name;
  bool is_fleet = false;
  /// Single-run workloads: one run_experiment call per op.
  sim::Scenario scenario;
  core::PolicyKind policy = core::PolicyKind::kSensorWise;
  core::Workload workload;
  /// Fleet workload: one run_fleet call per op.
  core::FleetSpec fleet;
  unsigned workers = 1;
  /// loaded-4x4 only: offered and accepted load must match the nominal rate.
  bool check_nominal_rate = false;
};

const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument naming the known workloads on a bad name.
WorkloadDef make_workload(const std::string& name, std::uint64_t seed, Size size);

/// The same scenario with a 0-warmup / 1-measure-cycle window: a run of it
/// costs everything except the simulated cycles (setup_s).
sim::Scenario setup_window(sim::Scenario scenario);
/// The fleet spec with every point on the setup window.
core::FleetSpec setup_window(core::FleetSpec spec);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  Size size = Size::kFull;
  /// Recorded digest of the op's output for this (workload, size, seed);
  /// empty when none is recorded.
  std::string expect_digest;
  /// Traced runs: where to write the spans (empty: not written).
  std::string spans_path;
  /// e2e_bench: run one op and print only its digest.
  bool print_digest = false;
};
/// Parses --workload --seed --seconds [--size full|tiny] [--expect HEX]
/// [--spans FILE] [--print-digest 0|1]; throws std::invalid_argument on
/// anything else.
Args parse_args(int argc, char** argv);

/// FNV-1a 64 of a result's canonical JSON, as 16 hex digits.
std::string digest_of(std::string_view json);

/// Seed-independent checks of one op's output; empty when it passes.
std::vector<std::string> check_run(const WorkloadDef& def, const core::RunResult& result);
std::vector<std::string> check_fleet(const WorkloadDef& def, const core::FleetReport& report);

/// Adds a digest mismatch against the recorded one (if any) to the
/// seed-independent problems; empty = the op is correct.
std::vector<std::string> check_op(const Args& args, const std::string& digest,
                                  std::vector<std::string> problems);

using Clock = std::chrono::steady_clock;
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Wall time and process CPU time (every thread, ended ones included) of
/// one timed call.
struct Elapsed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
class Stopwatch {
 public:
  Stopwatch();
  Elapsed elapsed() const;

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// Runs the reference kernel once on each of `threads` threads at once: a
/// fixed piece of work that gauges the host's current speed (the rates are
/// scaled by its time, see e2e_bench.cpp).
Elapsed run_reference(unsigned threads);

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
double peak_rss_mb();

struct Metric {
  std::string name;
  std::optional<double> value;  ///< nullopt: discarded (printed as null)
  std::string unit;
};
/// Prints the result object as the last line of stdout.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// Reports a failed op on stderr.
void report_problems(const std::string& what, const std::vector<std::string>& problems);

}  // namespace e2ebench
