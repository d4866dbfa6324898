#pragma once
// Versioned binary checkpoint format for mid-run save/restore.
//
// A snapshot captures every bit of observable simulation state — RNG
// streams, per-transistor Vth, duty-cycle accumulators, controller state,
// buffers, credits, in-flight channel payloads — so that a run resumed at
// cycle N is bit-identical to one that never stopped (ARCHITECTURE.md §13).
//
// Layout: the 8-byte magic "NBTISNAP", a u32 format version, a
// config-digest string (canonical textual encoding of every knob that
// shapes the simulated object graph), then class-by-class payload in a
// fixed order. All integers are little-endian; doubles are IEEE-754 bit
// patterns moved through u64. Strings are u32 length + raw bytes.
//
// Stateful classes implement
//     void save(sim::SnapshotWriter&) const;
//     void load(sim::SnapshotReader&);
// `load` is only called on an object freshly constructed from the *same*
// Scenario/policy/workload as the saved run (the digest enforces this), so
// loaders restore dynamic fields only and trust structural ones.
//
// Every decode error throws sim::SnapshotError with an actionable message
// (what was expected, what was found, at which byte offset).

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "nbtinoc/util/rng.hpp"
#include "nbtinoc/util/stats.hpp"

namespace nbtinoc::sim {

/// Raised on malformed, truncated, version- or config-mismatched snapshots.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// First 8 bytes of every snapshot file.
inline constexpr std::string_view kSnapshotMagic = "NBTISNAP";
/// Bump on any layout change; readers reject other versions outright.
/// v2: GateCommand slot_form flag + shared-pool port state (ARCHITECTURE §15).
/// v3: flit/credit channels save only their in-flight queue (no dropped
/// counter); each Up_Down link saves only its dropped count.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Appends primitives to a growing byte buffer (little-endian).
class SnapshotWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v);
  void str(std::string_view v);

  /// Convenience for the common vector<double> payloads (Vth banks).
  void f64_vec(const std::vector<double>& v);

  const std::string& data() const { return data_; }
  std::string take() { return std::move(data_); }

 private:
  std::string data_;
};

/// Sequential decoder over a snapshot byte buffer. Throws SnapshotError on
/// truncation; offsets in messages are absolute byte positions.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  bool b() { return u8() != 0; }
  double f64();
  std::string str();
  std::vector<double> f64_vec();

  /// Checked variant: reads a u64 and throws (with `what` in the message)
  /// unless it equals `expected`. Used for structural counts that the
  /// fresh object graph already determines.
  std::uint64_t expect_u64(std::uint64_t expected, std::string_view what);

  std::size_t offset() const { return offset_; }
  bool at_end() const { return offset_ == data_.size(); }
  /// Throws unless the whole buffer was consumed (guards against silently
  /// ignoring trailing state from a mismatched build).
  void expect_end() const;

 private:
  void need(std::size_t bytes, std::string_view what) const;

  std::string_view data_;
  std::size_t offset_ = 0;
};

/// Frames a payload with magic + version + config digest.
/// `config_digest` must be a deterministic encoding of everything that
/// shapes the saved object graph (scenario, policy, workload, faults...).
std::string frame_snapshot(std::string_view config_digest, std::string_view payload);

/// Validates magic/version/digest and returns a reader positioned at the
/// payload. Mismatches throw SnapshotError naming both sides.
SnapshotReader open_snapshot(std::string_view file_bytes, std::string_view expected_digest);

/// Reads only the embedded config digest (for tooling/error messages).
std::string snapshot_digest(std::string_view file_bytes);

// --- helpers for the two util types every layer serializes -------------------

inline void save_rng(SnapshotWriter& w, const util::Xoshiro256& rng) {
  const auto st = rng.state();
  for (std::uint64_t word : st.s) w.u64(word);
  w.b(st.has_cached_gaussian);
  w.f64(st.cached_gaussian);
}

inline void load_rng(SnapshotReader& r, util::Xoshiro256& rng) {
  util::Xoshiro256::State st;
  for (std::uint64_t& word : st.s) word = r.u64();
  st.has_cached_gaussian = r.b();
  st.cached_gaussian = r.f64();
  rng.set_state(st);
}

inline void save_stats(SnapshotWriter& w, const util::RunningStats& stats) {
  const auto st = stats.state();
  w.u64(st.count);
  w.f64(st.mean);
  w.f64(st.m2);
  w.f64(st.sum);
  w.f64(st.min);
  w.f64(st.max);
}

inline void load_stats(SnapshotReader& r, util::RunningStats& stats) {
  util::RunningStats::State st;
  st.count = static_cast<std::size_t>(r.u64());
  st.mean = r.f64();
  st.m2 = r.f64();
  st.sum = r.f64();
  st.min = r.f64();
  st.max = r.f64();
  stats.set_state(st);
}

}  // namespace nbtinoc::sim
