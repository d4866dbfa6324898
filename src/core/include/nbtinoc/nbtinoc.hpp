#pragma once
// Umbrella header for the nbtinoc library: a reproduction of
// "Sensor-wise methodology to face NBTI stress of NoC buffers"
// (Zoni & Fornaciari, DATE 2013).
//
// Quick tour:
//   sim::Scenario            — experiment setup (Table I)
//   noc::Network             — cycle-accurate 2D-mesh VC-router NoC
//   traffic::*               — synthetic patterns + application models
//   nbti::NbtiModel          — long-term Vth-shift closed form (Eq. 1)
//   nbti::NbtiSensorBank     — per-buffer degradation sensors
//   core::PolicyKind         — baseline / rr-no-sensor / sensor-wise[-no-traffic]
//   core::run_experiment     — scenario + policy + workload -> duty cycles
//   core::noc_config_of      — the one Scenario -> NocConfig mapping
//   core::SweepRunner        — parallel grid sweeps over run_experiment
//   core::run_lifetime_study — multi-year measure/extrapolate aging loop
//   core::run_fleet          — sharded Monte-Carlo fleet reliability
//   power::AreaModel         — ORION-style overhead analysis (paper §III-D)

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/core/fleet.hpp"
#include "nbtinoc/core/lifetime.hpp"
#include "nbtinoc/core/policy.hpp"
#include "nbtinoc/core/sweep.hpp"
#include "nbtinoc/nbti/aging.hpp"
#include "nbtinoc/nbti/duty_cycle.hpp"
#include "nbtinoc/nbti/model.hpp"
#include "nbtinoc/nbti/process_variation.hpp"
#include "nbtinoc/nbti/sensor.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/power/area_model.hpp"
#include "nbtinoc/power/power_model.hpp"
#include "nbtinoc/sim/scenario.hpp"
#include "nbtinoc/traffic/benchmarks.hpp"
#include "nbtinoc/traffic/datacenter.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/traffic/trace.hpp"
