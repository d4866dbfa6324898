#include "nbtinoc/core/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "nbtinoc/util/json.hpp"
#include "nbtinoc/util/table.hpp"

namespace nbtinoc::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Threads a pool of `requested` workers (0 = hardware concurrency) would
/// use for `count` tasks: never more than the tasks, never fewer than one.
unsigned resolve_workers(unsigned requested, std::size_t count) {
  unsigned n = requested;
  if (n == 0) n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;  // hardware_concurrency() may be unknowable
  if (count < static_cast<std::size_t>(n)) n = static_cast<unsigned>(count == 0 ? 1 : count);
  return n;
}

/// The sweep's one worker pool: runs fn(0), ..., fn(count-1) across
/// resolve_workers(workers, count) threads, inline on the calling thread
/// when one suffices — the reference serial path, with no pool. Workers
/// claim indices from a shared counter; the first exception thrown by any
/// index is rethrown after all workers finish.
void parallel_for(std::size_t count, unsigned workers,
                  const std::function<void(std::size_t)>& fn) {
  const unsigned n = resolve_workers(workers, count);
  if (n <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker_loop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;  // stop this worker; others drain their claimed indices
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned w = 0; w < n; ++w) pool.emplace_back(worker_loop);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

std::string SweepPoint::describe() const {
  std::string s = scenario.name + "/" + to_string(policy);
  if (!label.empty()) s += "/" + label;
  return s;
}

SweepResult::SweepResult(std::vector<SweepPointResult> points) : points_(std::move(points)) {}

double SweepResult::total_point_seconds() const {
  double total = 0.0;
  for (const auto& p : points_) total += p.wall_seconds;
  return total;
}

std::string SweepResult::to_json() const {
  // core::to_json already emits a complete object per run; splice those
  // documents into a wrapper array rather than re-serializing the result.
  std::string out = "{\"points\": [";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const auto& p = points_[i];
    if (i > 0) out += ", ";
    out += "{\"index\": " + std::to_string(i);
    out += ", \"label\": \"" + util::JsonWriter::escape(p.point.label) + "\"";
    out += ", \"wall_seconds\": " + std::to_string(p.wall_seconds);
    out += ", \"result\": " + core::to_json(p.result) + "}";
  }
  out += "]}";
  return out;
}

std::string SweepResult::to_csv() const {
  std::string out =
      "index,label,scenario,policy,mesh_width,mesh_height,num_vcs,injection_rate,"
      "packets_offered,flits_injected,flits_ejected,packets_ejected,avg_packet_latency,"
      "throughput_flits_per_cycle_per_node,total_gate_transitions,wall_seconds\n";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const auto& p = points_[i];
    const auto& s = p.result.scenario;
    out += std::to_string(i) + ',' + p.point.label + ',' + s.name + ',' +
           to_string(p.result.policy) + ',' + std::to_string(s.mesh_width) + ',' +
           std::to_string(s.mesh_height) + ',' + std::to_string(s.num_vcs) + ',' +
           util::format_double(s.injection_rate, 4) + ',' +
           std::to_string(p.result.packets_offered) + ',' +
           std::to_string(p.result.flits_injected) + ',' +
           std::to_string(p.result.flits_ejected) + ',' +
           std::to_string(p.result.packets_ejected) + ',' +
           util::format_double(p.result.avg_packet_latency, 4) + ',' +
           util::format_double(p.result.throughput_flits_per_cycle_per_node, 6) + ',' +
           std::to_string(p.result.total_gate_transitions) + ',' +
           util::format_double(p.wall_seconds, 4) + '\n';
  }
  return out;
}

void SweepResult::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SweepResult::write_csv: cannot open " + path);
  out << to_csv();
}

void SweepResult::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SweepResult::write_json: cannot open " + path);
  out << to_json();
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

std::size_t SweepRunner::add(SweepPoint point) {
  points_.push_back(std::move(point));
  return points_.size() - 1;
}

std::size_t SweepRunner::add(sim::Scenario scenario, PolicyKind policy, Workload workload,
                             std::string label) {
  SweepPoint p;
  p.scenario = std::move(scenario);
  p.policy = policy;
  p.workload = std::move(workload);
  p.label = std::move(label);
  return add(std::move(p));
}

void SweepRunner::add_grid(const std::vector<sim::Scenario>& scenarios,
                           const std::vector<PolicyKind>& policies,
                           traffic::PatternKind pattern) {
  for (const auto& scenario : scenarios)
    for (const auto policy : policies) add(scenario, policy, Workload::synthetic(pattern));
}

unsigned SweepRunner::effective_workers() const {
  return resolve_workers(options_.workers, points_.size());
}

void SweepRunner::for_each(std::size_t count,
                           const std::function<void(std::size_t)>& fn) const {
  parallel_for(count, options_.workers, fn);
}

SweepResult SweepRunner::run() const {
  const auto start = std::chrono::steady_clock::now();
  std::vector<SweepPointResult> results(points_.size());

  // Each point is an independent pure function of its SweepPoint (PV and
  // traffic seeds derive from the scenario inside run_experiment), so
  // workers may claim indices in any order: the write goes to the point's
  // own grid slot and carries no cross-point state. At one worker this is
  // byte-identical to calling run_experiment in a loop.
  std::mutex progress_mutex;
  std::size_t completed = 0;
  parallel_for(points_.size(), options_.workers, [&](std::size_t i) {
    const auto point_start = std::chrono::steady_clock::now();
    SweepPointResult& slot = results[i];
    slot.point = points_[i];
    slot.result = run_experiment(points_[i].scenario, points_[i].policy, points_[i].workload,
                                 points_[i].runner ? *points_[i].runner : options_.runner);
    slot.wall_seconds = seconds_since(point_start);
    if (!options_.on_progress) return;
    // Counted under the lock, so `completed` rises by one per callback in
    // the order the callbacks fire.
    std::lock_guard<std::mutex> lock(progress_mutex);
    SweepProgress prog;
    prog.completed = ++completed;
    prog.total = points_.size();
    prog.point_index = i;
    prog.point_seconds = slot.wall_seconds;
    prog.elapsed_seconds = seconds_since(start);
    prog.eta_seconds = prog.elapsed_seconds / static_cast<double>(prog.completed) *
                       static_cast<double>(prog.total - prog.completed);
    prog.point = &points_[i];
    options_.on_progress(prog);
  });
  return SweepResult(std::move(results));
}

}  // namespace nbtinoc::core
