#pragma once
// Scenario descriptor: the knobs of one simulated experiment, mirroring the
// paper's Table I (processor/router micro-architecture and technology
// parameters). A Scenario fully determines a run — including the
// process-variation seed, which is derived from the scenario label so that
// every policy evaluated on the same {architecture, injection} pair sees the
// same sampled silicon (paper §IV-A).

#include <map>
#include <cstdint>
#include <string>

#include "nbtinoc/sim/clock.hpp"

namespace nbtinoc::sim {

/// Technology node parameters from Table I.
struct Technology {
  double vth_nominal_v = 0.180;  ///< nominal |Vth| (0.180 V @45nm, 0.160 V @32nm)
  double vth_sigma_v = 0.005;    ///< within-die Gaussian sigma [25]
  double vdd_v = 1.2;
  double temperature_k = 350.0;  ///< representative on-die operating temperature
  int node_nm = 45;

  static Technology node_45nm();
  static Technology node_32nm();
};

struct Scenario {
  std::string name;          ///< e.g. "4core-inj0.10"
  int mesh_width = 2;        ///< 2 -> 4-core, 4 -> 16-core
  int mesh_height = 2;
  /// Network shape: "mesh" (default), "torus", "ring", or "cmesh". Torus
  /// and ring need num_vcs >= 2 (dateline VC classes); see noc::TopologyKind.
  std::string topology = "mesh";
  /// NIs per router, "cmesh" only (must divide mesh_width); 1 otherwise.
  int concentration = 1;
  /// Routing mode: "dor" (dimension-order, the default; alias "xy"), "yx",
  /// or the mesh-only turn-model adaptive modes "west-first" / "odd-even"
  /// (escape-VC + least-stressed adaptive class; need num_vcs >= 2).
  std::string routing = "dor";
  int num_vcs = 4;           ///< virtual channels per vnet per input port (2 or 4 in the paper)
  int num_vnets = 1;         ///< virtual networks (Table I: 2/6; 1 = single-protocol study)
  int buffer_depth = 4;      ///< flits per VC buffer (Table I / §III-D)
  /// Input-port buffer organization: "partitioned" (per-VC banks, the
  /// paper's router) or "shared" (one DAMQ slot pool per port; VCs become
  /// descriptors and gating happens at slot granularity).
  std::string buffer_org = "partitioned";
  /// Shared organization only: flit slots reserved per VC (never gated
  /// away; >= 1 for deadlock safety). Must stay 1 under "partitioned".
  int shared_reserve = 1;
  int flit_width_bits = 64;  ///< flit size (area model, §III-D)
  int link_width_bits = 32;  ///< physical link width (Table I): 64b flits move as 2 phits
  int packet_length = 9;     ///< flits per packet: 64B line + 8B header over 64b flits
  double injection_rate = 0.1;  ///< flits/cycle/port for synthetic traffic
  Cycle wakeup_latency = 0;     ///< buffer wake-up delay; 0 = paper's instant set_idle
  int router_stages = 3;        ///< router pipeline depth; 3 = paper, 4/5 = Garnet-classic
  Cycle warmup_cycles = 60'000;
  Cycle measure_cycles = 240'000;
  double clock_period_s = 1e-9;  ///< 1 GHz (Table I)
  Technology tech = Technology::node_45nm();

  int cores() const { return mesh_width * mesh_height; }
  Cycle total_cycles() const { return warmup_cycles + measure_cycles; }

  /// Link-level serialization factor: a 64b flit crosses a 32b link as two
  /// phits. The cycle-accurate simulation runs in phit units (the quantum
  /// the link and buffers actually move per cycle), so packet length,
  /// buffer depth and injection rate are scaled by this factor.
  int phits_per_flit() const {
    return (flit_width_bits + link_width_bits - 1) / link_width_bits;
  }

  /// Seed for the process-variation Vth sampling: depends only on the
  /// architecture and traffic level, NOT on the policy, matching the paper's
  /// "same Vth values on the same simulated architecture and traffic level".
  std::uint64_t pv_seed() const;
  /// Seed for traffic generation; also policy-independent so that every
  /// policy replays an identical offered load.
  std::uint64_t traffic_seed() const;
  /// Seed for the fault-injection stream (xored with FaultPlan::seed_salt):
  /// policy-independent, so every policy faces the *same* fault storm on
  /// the same scenario.
  std::uint64_t fault_seed() const;

  /// Rejects impossible configurations with an actionable message
  /// (std::invalid_argument). Called by scenario_from_properties and by
  /// run_experiment before any simulation state is built.
  void validate() const;

  /// Scales warmup/measure to the paper's full 30e6-cycle runs (warmup 6e6
  /// for 4-core, 9e6 for 16-core).
  void use_paper_scale();

  /// Human-readable Table-I-style setup block.
  std::string describe() const;

  /// The clock period and technology, named only where they are off their
  /// defaults (" clock_s=..." / " tech=..."; empty at the defaults), with
  /// every double printed in %.17g so distinct values print distinctly.
  /// The snapshot and fleet config digests append it, so every default
  /// digest keeps its bytes.
  std::string clock_and_tech_digest() const;

  /// Canonical synthetic scenario used throughout Tables II/III.
  static Scenario synthetic(int mesh_width, int num_vcs, double injection_rate);
};

/// Builds a Scenario from a properties map (see util::load_properties).
/// Recognized keys (all optional, defaults as in Scenario):
///   name, mesh_width, mesh_height, topology (mesh|torus|ring|cmesh),
///   routing (dor|xy|yx|west-first|odd-even),
///   concentration, num_vcs, num_vnets, buffer_depth,
///   buffer_org (partitioned|shared), shared_reserve, flit_width_bits,
///   link_width_bits, packet_length, injection_rate, wakeup_latency,
///   warmup_cycles, measure_cycles, clock_ghz, technology_nm (45 or 32),
///   vth_sigma_v, temperature_k, vdd_v
/// Unknown keys throw std::invalid_argument (typo protection).
Scenario scenario_from_properties(const std::map<std::string, std::string>& props);

}  // namespace nbtinoc::sim
