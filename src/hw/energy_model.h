// Ground-truth energy model driving the RAPL counters.
//
// The kernel's advance loop reports per-core activity for every tick; this
// model converts activity into joules per domain. It is the *simulated
// hardware*, deliberately richer than (and hidden from) the defense's
// regression model in src/defense, which must approximate it from
// perf-event observations alone.
#pragma once

#include "hw/spec.h"
#include "util/sim_time.h"

namespace cleaks::hw {

/// Activity of one core during one scheduler tick.
struct TickActivity {
  double active_seconds = 0.0;   ///< busy time within the tick (s)
  double idle_seconds = 0.0;     ///< idle time within the tick (s)
  double instructions = 0.0;     ///< retired instructions
  double cycles = 0.0;           ///< unhalted cycles
  double cache_misses = 0.0;     ///< LLC misses
  double branch_misses = 0.0;    ///< branch mispredictions
};

/// Energy (J) attributed to each domain for a tick of activity.
struct TickEnergy {
  double core_j = 0.0;
  double dram_j = 0.0;
  double package_j = 0.0;  ///< core + dram + uncore share
};

class EnergyModel {
 public:
  explicit EnergyModel(const EnergyModelParams& params) : p_(params) {}

  /// Energy for one core's activity. The uncore/idle-DRAM shares are charged
  /// separately via background_energy() once per package per tick.
  [[nodiscard]] TickEnergy core_activity_energy(const TickActivity& a) const noexcept {
    constexpr double kNanojoule = 1e-9;
    TickEnergy e;
    const double busy_idle_j =
        p_.p_core_idle_w * (a.active_seconds + a.idle_seconds);
    e.core_j = busy_idle_j + kNanojoule * (p_.e_inst_nj * a.instructions +
                                           p_.e_cmiss_core_nj * a.cache_misses +
                                           p_.e_bmiss_nj * a.branch_misses);
    e.dram_j = kNanojoule * p_.e_cmiss_dram_nj * a.cache_misses;
    e.package_j = e.core_j + e.dram_j;
    return e;
  }

  /// Per-package background energy for `dt` of simulated time: uncore power
  /// and DRAM standby power.
  [[nodiscard]] TickEnergy background_energy(double dt_seconds) const noexcept {
    TickEnergy e;
    e.dram_j = p_.p_dram_idle_w * dt_seconds;
    e.package_j = p_.p_uncore_w * dt_seconds + e.dram_j;
    return e;
  }

  /// Instantaneous power (W) implied by a tick's total energy.
  [[nodiscard]] static double power_w(const TickEnergy& e, double dt_seconds) noexcept {
    return dt_seconds > 0.0 ? e.package_j / dt_seconds : 0.0;
  }

  [[nodiscard]] const EnergyModelParams& params() const noexcept { return p_; }

 private:
  EnergyModelParams p_;
};

}  // namespace cleaks::hw
