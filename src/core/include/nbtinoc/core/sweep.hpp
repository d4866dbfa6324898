#pragma once
// Parallel experiment sweep engine. Every result in the paper is a sweep —
// {mesh size x VC count x injection rate x pattern x policy} grids executed
// one run_experiment() call at a time. SweepRunner shards such a grid across
// a fixed-size thread pool while preserving the paper's determinism
// contract: each point's PV and traffic seeds derive from its Scenario
// alone (never from the worker, schedule, or completion order), so the
// result grid is bit-identical for any worker count — a pool of size 1
// produces exactly the serial path's bytes.
//
// Results come back in *grid order* (the order points were added), each
// with its own wall-clock time, and export to JSON/CSV mirroring
// core::to_json for downstream plotting.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "nbtinoc/core/experiment.hpp"

namespace nbtinoc::core {

/// One cell of the sweep grid: a full experiment specification.
struct SweepPoint {
  sim::Scenario scenario;
  PolicyKind policy = PolicyKind::kBaseline;
  Workload workload;
  std::string label;  ///< free-form tag carried through to the result/export
  /// Per-point RunnerOptions, overriding SweepOptions::runner for this cell
  /// only — how a grid sweeps runner-level knobs (sensor noise, fault
  /// rates) alongside scenario knobs. Determinism is unaffected: the
  /// override is part of the point, not of the schedule.
  std::optional<RunnerOptions> runner;

  /// "scenario-name/policy[/label]" — the default row identifier.
  std::string describe() const;
};

/// One completed cell: the point, its RunResult, and how long it took.
struct SweepPointResult {
  SweepPoint point;
  RunResult result;
  double wall_seconds = 0.0;  ///< this point's own wall-clock time
};

/// Progress snapshot handed to the callback after each point completes.
/// Callbacks are serialized (never concurrent) but arrive in *completion*
/// order, which under >1 worker is not grid order.
struct SweepProgress {
  std::size_t completed = 0;     ///< points finished so far
  std::size_t total = 0;         ///< grid size
  std::size_t point_index = 0;   ///< grid index of the point that just finished
  double point_seconds = 0.0;    ///< wall time of that point
  double elapsed_seconds = 0.0;  ///< since run() started
  double eta_seconds = 0.0;      ///< naive linear estimate of time remaining
  const SweepPoint* point = nullptr;  ///< the point that just finished
};

struct SweepOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). A value of 1
  /// runs every point inline on the calling thread (no pool), the reference
  /// serial path.
  unsigned workers = 0;
  RunnerOptions runner;  ///< forwarded to every run_experiment call
  /// Invoked (serialized, under a lock) after each point completes.
  std::function<void(const SweepProgress&)> on_progress;
};

/// The completed grid, in the exact order points were added.
class SweepResult {
 public:
  explicit SweepResult(std::vector<SweepPointResult> points);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const SweepPointResult& at(std::size_t i) const { return points_.at(i); }
  const SweepPointResult& operator[](std::size_t i) const { return points_[i]; }
  auto begin() const { return points_.begin(); }
  auto end() const { return points_.end(); }

  /// Sum of per-point wall times (= CPU-ish cost; wall time of the whole
  /// sweep is lower under >1 worker).
  double total_point_seconds() const;

  /// JSON document: {"points": [{"label", "wall_seconds", "result": <core::to_json>}...]}.
  std::string to_json() const;

  /// One CSV row per point: identity, headline counters, wall time.
  /// Mirrors the fields of core::to_json's "counters" block.
  std::string to_csv() const;
  void write_csv(const std::string& path) const;
  void write_json(const std::string& path) const;

 private:
  std::vector<SweepPointResult> points_;
};

/// Builds a grid of experiment points and executes them on a thread pool.
///
///   SweepRunner sweep(options);
///   for (...) sweep.add(scenario, policy, workload);
///   SweepResult r = sweep.run();   // r[i] corresponds to the i-th add()
///
/// Determinism guarantee: SweepResult content (everything except the
/// wall-time fields) depends only on the added points and
/// options.runner — not on options.workers, hardware, or scheduling.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Appends one grid point; returns its grid index.
  std::size_t add(SweepPoint point);
  std::size_t add(sim::Scenario scenario, PolicyKind policy, Workload workload,
                  std::string label = {});

  /// Appends the full cross product scenarios x policies (synthetic
  /// workload with the given pattern), in scenario-major order.
  void add_grid(const std::vector<sim::Scenario>& scenarios,
                const std::vector<PolicyKind>& policies,
                traffic::PatternKind pattern = traffic::PatternKind::kUniform);

  std::size_t size() const { return points_.size(); }
  const SweepPoint& point(std::size_t i) const { return points_.at(i); }

  /// Number of worker threads run() will actually use.
  unsigned effective_workers() const;

  /// Runs fn(0), ..., fn(count-1) on the pool run() uses: up to
  /// options.workers threads (never more than `count`), inline on the
  /// calling thread when one suffices — the reference serial path. For
  /// point-shaped work that is not one run_experiment per cell (e.g. a
  /// multi-epoch lifetime study per policy). fn must be safe to call
  /// concurrently for distinct indices and should write into a per-index
  /// slot; determinism is then automatic because slot i never depends on
  /// the schedule. The first exception thrown by any index is rethrown
  /// after all workers finish.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) const;

  /// Executes every added point and returns the grid-ordered results.
  /// May be called repeatedly (e.g. to re-run the same grid).
  SweepResult run() const;

 private:
  SweepOptions options_;
  std::vector<SweepPoint> points_;
};

}  // namespace nbtinoc::core
