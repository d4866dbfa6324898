// SweepRunner determinism harness: the engine's core promise is that the
// result grid depends only on the added points — never on worker count,
// scheduling, or completion order. These tests pin that contract with
// bit-identical comparisons across pool sizes, plus the grid-ordering,
// progress and export behavior the benches rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "nbtinoc/core/sweep.hpp"

namespace nbtinoc::core {
namespace {

sim::Scenario tiny(int width, int vcs, double rate) {
  sim::Scenario s = sim::Scenario::synthetic(width, vcs, rate);
  s.warmup_cycles = 1'000;
  s.measure_cycles = 5'000;
  return s;
}

/// The paper-shaped 12-point grid: 4 scenarios x 3 policies.
SweepRunner make_grid(SweepOptions options) {
  SweepRunner sweep(std::move(options));
  sweep.add_grid({tiny(2, 2, 0.05), tiny(2, 2, 0.15), tiny(2, 4, 0.10), tiny(3, 2, 0.10)},
                 {PolicyKind::kRrNoSensor, PolicyKind::kSensorWiseNoTraffic,
                  PolicyKind::kSensorWise});
  return sweep;
}

/// Bit-identical comparison of everything the determinism contract covers:
/// per-port duty cycles, PV-sampled Vth vectors, gate-transition counts,
/// and the whole-run counters.
void expect_identical(const SweepResult& a, const SweepResult& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(what + ": point " + std::to_string(i) + " (" + a[i].point.describe() + ")");
    const RunResult& ra = a[i].result;
    const RunResult& rb = b[i].result;
    EXPECT_EQ(ra.policy, rb.policy);
    EXPECT_EQ(ra.scenario.name, rb.scenario.name);
    ASSERT_EQ(ra.ports.size(), rb.ports.size());
    auto ita = ra.ports.begin();
    auto itb = rb.ports.begin();
    for (; ita != ra.ports.end(); ++ita, ++itb) {
      EXPECT_TRUE(ita->first == itb->first);
      // operator== on doubles: the contract is *bit*-identical, not close.
      EXPECT_TRUE(ita->second.duty_percent == itb->second.duty_percent);
      EXPECT_TRUE(ita->second.initial_vth_v == itb->second.initial_vth_v);
      EXPECT_TRUE(ita->second.gate_transitions == itb->second.gate_transitions);
      EXPECT_EQ(ita->second.most_degraded, itb->second.most_degraded);
    }
    EXPECT_EQ(ra.packets_offered, rb.packets_offered);
    EXPECT_EQ(ra.flits_injected, rb.flits_injected);
    EXPECT_EQ(ra.flits_ejected, rb.flits_ejected);
    EXPECT_EQ(ra.total_gate_transitions, rb.total_gate_transitions);
    EXPECT_EQ(ra.avg_packet_latency, rb.avg_packet_latency);
    EXPECT_EQ(ra.throughput_flits_per_cycle_per_node, rb.throughput_flits_per_cycle_per_node);
  }
}

SweepResult run_with_workers(unsigned workers) {
  SweepOptions options;
  options.workers = workers;
  return make_grid(std::move(options)).run();
}

TEST(SweepRunner, WorkerCountDoesNotChangeResults) {
  const SweepResult serial = run_with_workers(1);
  const SweepResult two = run_with_workers(2);
  const SweepResult eight = run_with_workers(8);
  expect_identical(serial, two, "1 vs 2 workers");
  expect_identical(serial, eight, "1 vs 8 workers");
}

TEST(SweepRunner, RepeatedParallelRunsAgree) {
  const SweepResult first = run_with_workers(8);
  const SweepResult second = run_with_workers(8);
  expect_identical(first, second, "8 workers, run twice");
}

TEST(SweepRunner, SerialPathMatchesDirectRunExperiment) {
  // Pool size 1 must be byte-identical to calling run_experiment in a loop.
  const SweepRunner sweep = make_grid({});
  const SweepResult serial = run_with_workers(1);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep.point(i);
    const RunResult direct = run_experiment(p.scenario, p.policy, p.workload);
    SCOPED_TRACE("point " + std::to_string(i));
    const RunResult& via_sweep = serial[i].result;
    ASSERT_EQ(direct.ports.size(), via_sweep.ports.size());
    for (const auto& [key, port] : direct.ports) {
      EXPECT_TRUE(port.duty_percent == via_sweep.ports.at(key).duty_percent);
      EXPECT_TRUE(port.initial_vth_v == via_sweep.ports.at(key).initial_vth_v);
      EXPECT_TRUE(port.gate_transitions == via_sweep.ports.at(key).gate_transitions);
    }
    EXPECT_EQ(direct.flits_ejected, via_sweep.flits_ejected);
  }
}

TEST(SweepRunner, ResultsComeBackInGridOrder) {
  const SweepRunner sweep = make_grid({});
  const SweepResult results = run_with_workers(8);
  ASSERT_EQ(results.size(), sweep.size());
  ASSERT_EQ(results.size(), 12u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].point.scenario.name, sweep.point(i).scenario.name) << "index " << i;
    EXPECT_EQ(results[i].point.policy, sweep.point(i).policy) << "index " << i;
    EXPECT_EQ(results[i].result.policy, sweep.point(i).policy) << "index " << i;
    EXPECT_GE(results[i].wall_seconds, 0.0);
  }
}

TEST(SweepRunner, ProgressReportsEveryPointExactlyOnce) {
  for (unsigned workers : {1u, 4u}) {
    SweepOptions options;
    options.workers = workers;
    std::vector<std::size_t> completed_counts;
    std::set<std::size_t> point_indices;
    std::size_t total_seen = 0;
    options.on_progress = [&](const SweepProgress& p) {
      completed_counts.push_back(p.completed);
      point_indices.insert(p.point_index);
      total_seen = p.total;
      EXPECT_NE(p.point, nullptr);
      EXPECT_GE(p.elapsed_seconds, 0.0);
      EXPECT_GE(p.eta_seconds, 0.0);
    };
    const SweepResult results = make_grid(std::move(options)).run();
    EXPECT_EQ(total_seen, results.size()) << workers << " workers";
    // Callbacks are serialized, so `completed` must hit 1..N exactly once
    // (in completion order, which may differ from grid order).
    ASSERT_EQ(completed_counts.size(), results.size()) << workers << " workers";
    std::set<std::size_t> unique(completed_counts.begin(), completed_counts.end());
    EXPECT_EQ(unique.size(), results.size()) << workers << " workers";
    EXPECT_EQ(*unique.begin(), 1u);
    EXPECT_EQ(*unique.rbegin(), results.size());
    // And every grid index must be reported exactly once.
    EXPECT_EQ(point_indices.size(), results.size()) << workers << " workers";
  }
}

// Points are claimed longest-first by (warmup + measure) × routers, ties
// in grid order; the serial path's progress order shows the claim order,
// and the results stay in grid order whatever the claim order.
TEST(SweepRunner, ClaimsLongestPointsFirst) {
  sim::Scenario longer = tiny(2, 2, 0.10);
  longer.measure_cycles = 9'000;
  SweepOptions options;
  options.workers = 1;
  std::vector<std::size_t> claimed;
  options.on_progress = [&](const SweepProgress& p) { claimed.push_back(p.point_index); };
  SweepRunner sweep(std::move(options));
  sweep.add(tiny(2, 2, 0.05), PolicyKind::kSensorWise, Workload::synthetic(), "a");  // 4 x 6k
  sweep.add(tiny(3, 2, 0.05), PolicyKind::kSensorWise, Workload::synthetic(), "b");  // 9 x 6k
  sweep.add(longer, PolicyKind::kSensorWise, Workload::synthetic(), "c");            // 4 x 10k
  sweep.add(tiny(2, 4, 0.05), PolicyKind::kSensorWise, Workload::synthetic(), "d");  // 4 x 6k
  sweep.add(tiny(3, 2, 0.10), PolicyKind::kRrNoSensor, Workload::synthetic(), "e");  // 9 x 6k
  const SweepResult results = sweep.run();
  EXPECT_EQ(claimed, (std::vector<std::size_t>{1, 4, 2, 0, 3}));
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].point.label, std::string(1, static_cast<char>('a' + i)));
}

TEST(SweepRunner, EffectiveWorkersClampsToGridAndHardware) {
  SweepOptions options;
  options.workers = 64;
  SweepRunner sweep(std::move(options));
  sweep.add(tiny(2, 2, 0.1), PolicyKind::kBaseline, Workload::synthetic());
  sweep.add(tiny(2, 2, 0.2), PolicyKind::kBaseline, Workload::synthetic());
  EXPECT_EQ(sweep.effective_workers(), 2u);  // never more workers than points

  SweepRunner empty_default{SweepOptions{}};
  EXPECT_GE(empty_default.effective_workers(), 1u);
}

TEST(SweepRunner, EmptyGridRunsToEmptyResult) {
  SweepRunner sweep{SweepOptions{}};
  const SweepResult results = sweep.run();
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(results.to_csv().find('\n'), results.to_csv().size() - 1);  // header only
}

TEST(SweepRunner, ErrorsInWorkerThreadsPropagate) {
  SweepOptions options;
  options.workers = 4;
  SweepRunner sweep(std::move(options));
  for (int i = 0; i < 4; ++i)
    sweep.add(tiny(2, 2, 0.1), PolicyKind::kBaseline, Workload::synthetic());
  sim::Scenario bad = tiny(2, 2, 0.1);
  bad.router_stages = 1;  // run_experiment throws on < 3
  sweep.add(bad, PolicyKind::kBaseline, Workload::synthetic());
  EXPECT_THROW(sweep.run(), std::invalid_argument);
}

SweepRunner runner_with_workers(unsigned workers) {
  SweepOptions options;
  options.workers = workers;
  return SweepRunner(std::move(options));
}

TEST(SweepRunnerForEach, CoversEveryIndexExactlyOnceAtAnyWorkerCount) {
  for (unsigned workers : {1u, 2u, 7u, 32u}) {
    constexpr std::size_t kCount = 100;
    std::vector<std::atomic<int>> hits(kCount);
    runner_with_workers(workers).for_each(kCount, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << workers << " workers";
  }
}

TEST(SweepRunnerForEach, ZeroCountIsANoOpAndErrorsPropagate) {
  runner_with_workers(4).for_each(0, [](std::size_t) { FAIL() << "fn called for empty range"; });
  EXPECT_THROW(runner_with_workers(4).for_each(8,
                                               [](std::size_t i) {
                                                 if (i == 3) throw std::runtime_error("boom");
                                               }),
               std::runtime_error);
  // The serial path (one worker) propagates too, at the failing index.
  EXPECT_THROW(runner_with_workers(1).for_each(
                   2, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(SweepResult, JsonAndCsvExportCoverEveryPoint) {
  SweepOptions options;
  options.workers = 2;
  SweepRunner sweep(std::move(options));
  sweep.add(tiny(2, 2, 0.1), PolicyKind::kSensorWise, Workload::synthetic(), "pt-a");
  sweep.add(tiny(2, 2, 0.2), PolicyKind::kRrNoSensor, Workload::synthetic(), "pt-b");
  const SweepResult results = sweep.run();

  const std::string json = results.to_json();
  EXPECT_NE(json.find("\"points\""), std::string::npos);
  EXPECT_NE(json.find("\"pt-a\""), std::string::npos);
  EXPECT_NE(json.find("\"pt-b\""), std::string::npos);
  EXPECT_NE(json.find("\"duty_percent\""), std::string::npos);  // mirrors core::to_json

  const std::string csv = results.to_csv();
  std::size_t rows = 0;
  for (char c : csv) rows += c == '\n';
  EXPECT_EQ(rows, 3u);  // header + 2 points
  EXPECT_NE(csv.find("pt-a"), std::string::npos);
  EXPECT_NE(csv.find("rr-no-sensor"), std::string::npos);
}

}  // namespace
}  // namespace nbtinoc::core
