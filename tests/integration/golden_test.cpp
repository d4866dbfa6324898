// Golden regression harness: one fixed scenario per policy, with the
// per-port duty cycles / MD VC / gate-transition counts checked in as a
// golden JSON file. Any refactor that silently changes the reproduction
// fails here with a line-level diff instead of slipping through.
//
// To regenerate after an *intentional* behavior change:
//   NBTINOC_UPDATE_GOLDEN=1 ./build/tests/nbtinoc_tests --gtest_filter='Golden*'
// then review the diff of tests/integration/golden/duty_cycles.json.
//
// Only integer counters and duty percentages (exact IEEE ratios of cycle
// counts) go into the golden file — not the PV Vth samples, whose libm
// paths could differ in the last ulp across toolchains.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nbtinoc/core/sweep.hpp"

#ifndef NBTINOC_TEST_DATA_DIR
#error "NBTINOC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace nbtinoc::core {
namespace {

const char* kGoldenPath = NBTINOC_TEST_DATA_DIR "/integration/golden/duty_cycles.json";

sim::Scenario golden_scenario() {
  sim::Scenario s = sim::Scenario::synthetic(2, 2, 0.1);
  s.name = "golden-4core-2vc-inj0.10";
  s.warmup_cycles = 2'000;
  s.measure_cycles = 10'000;
  return s;
}

std::string fmt(double v) {
  char buf[64];
  // %.12g: duty cycles are count/window ratios — exact IEEE arithmetic —
  // so 12 significant digits catch any real drift without ulp noise.
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Renders the runs as a stable, line-oriented JSON document: one line per
/// port so a drift shows up as a small, readable diff.
std::string render(const std::vector<SweepPointResult>& runs) {
  std::ostringstream out;
  out << "{\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i].result;
    out << "  \"" << to_string(r.policy) << "\": {\n";
    std::size_t p = 0;
    for (const auto& [key, port] : r.ports) {
      out << "    \"r" << key.router << ":" << noc::dir_letter(key.port) << "\": {\"md\": "
          << port.most_degraded << ", \"duty\": [";
      for (std::size_t v = 0; v < port.duty_percent.size(); ++v)
        out << (v ? ", " : "") << fmt(port.duty_percent[v]);
      out << "], \"gate_transitions\": [";
      for (std::size_t v = 0; v < port.gate_transitions.size(); ++v)
        out << (v ? ", " : "") << port.gate_transitions[v];
      out << "]}" << (++p < r.ports.size() ? "," : "") << "\n";
    }
    out << "  }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "}\n";
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Golden, DutyCyclesMatchCheckedInGolden) {
  const std::vector<PolicyKind> policies = {PolicyKind::kBaseline, PolicyKind::kRrNoSensor,
                                            PolicyKind::kSensorWiseNoTraffic,
                                            PolicyKind::kSensorWise};
  SweepRunner sweep{SweepOptions{}};
  sweep.add_grid({golden_scenario()}, policies);
  const SweepResult results = sweep.run();
  const std::string actual = render({results.begin(), results.end()});

  if (std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath << " — review and commit it";
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << " — regenerate with NBTINOC_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();

  if (actual == expected) return;

  // Readable diff: report every drifted line with both values.
  const std::vector<std::string> want = lines_of(expected);
  const std::vector<std::string> got = lines_of(actual);
  std::ostringstream diff;
  const std::size_t n = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& w = i < want.size() ? want[i] : "<missing>";
    const std::string& g = i < got.size() ? got[i] : "<missing>";
    if (w != g) diff << "  line " << (i + 1) << ":\n    golden: " << w << "\n    actual: " << g << "\n";
  }
  FAIL() << "duty cycles drifted from " << kGoldenPath << "\n"
         << diff.str()
         << "If this change is intentional, regenerate with NBTINOC_UPDATE_GOLDEN=1 and commit.";
}

TEST(Golden, FastForwardOffMatchesGolden) {
  // The skipping engine's hard guarantee, pinned from the other side:
  // DutyCyclesMatchCheckedInGolden runs with fast_forward on (the
  // RunnerOptions default, the active-set engine), so re-running the same
  // grid with the literal per-cycle loop must reproduce the same golden
  // bytes.
  if (std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "golden file being regenerated by DutyCyclesMatchCheckedInGolden";
  SweepOptions options;
  options.runner.fast_forward = false;
  SweepRunner sweep{options};
  sweep.add_grid({golden_scenario()},
                 {PolicyKind::kBaseline, PolicyKind::kRrNoSensor,
                  PolicyKind::kSensorWiseNoTraffic, PolicyKind::kSensorWise});
  const SweepResult results = sweep.run();
  const std::string actual = render({results.begin(), results.end()});

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str())
      << "fast_forward=false must be bit-identical to the fast-forwarded golden run";
}

TEST(Golden, ZeroRateFaultPlanMatchesGolden) {
  // The fault subsystem's no-op guarantee, pinned to the golden file: a
  // plan whose rates are all zero constructs no injector, so the run is
  // byte-identical to one from a build without the subsystem.
  if (std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "golden file being regenerated by DutyCyclesMatchCheckedInGolden";
  SweepOptions options;
  options.runner.faults = sim::FaultPlan::uniform(0.0);
  ASSERT_FALSE(options.runner.faults.enabled());
  SweepRunner sweep{options};
  sweep.add_grid({golden_scenario()},
                 {PolicyKind::kBaseline, PolicyKind::kRrNoSensor,
                  PolicyKind::kSensorWiseNoTraffic, PolicyKind::kSensorWise});
  const SweepResult results = sweep.run();
  for (const auto& point : results) {
    EXPECT_TRUE(point.result.fault_counters.empty());
    EXPECT_EQ(to_json(point.result).find("fault_counters"), std::string::npos);
  }
  const std::string actual = render({results.begin(), results.end()});

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str())
      << "a zero-rate FaultPlan must be a provable no-op against the golden run";
}

}  // namespace
}  // namespace nbtinoc::core
