// perf_event subsystem (§V-B1).
//
// The power-based namespace creates, at container start, one event per
// (cpu, event type) bound to the container's perf_event cgroup, with the
// owner set to TASK_TOMBSTONE so accounting is decoupled from any user
// process. The scheduler invokes on_context_switch() for every switch; when
// the previous and next tasks belong to different perf cgroups the PMU
// context must be saved and restored — the measurable cost behind the
// pipe-based context-switching row of Table III.
#pragma once

#include <cstdint>

#include "kernel/cgroup.h"

namespace cleaks::kernel {

/// Performance deltas for one task over one tick slice.
struct PerfSample {
  double instructions = 0.0;
  double cache_misses = 0.0;
  double branch_misses = 0.0;
  double cycles = 0.0;
};

class PerfEventSubsystem {
 public:
  static constexpr int kEventsPerCpu = 4;
  /// Sentinel owner meaning "kernel-owned accounting, no user process".
  static constexpr std::uint64_t kTaskTombstone = ~std::uint64_t{0};

  /// Program per-cpu events for the cgroup and enable accounting.
  void create_cgroup_events(Cgroup& cgroup, int num_cpus);

  /// Tear down the events and disable accounting.
  void destroy_cgroup_events(Cgroup& cgroup);

  [[nodiscard]] static bool has_events(const Cgroup& cgroup) noexcept {
    return cgroup.perf.accounting_enabled;
  }

  /// Context-switch hook. Cheap no-op for intra-cgroup switches; PMU
  /// save/restore for inter-cgroup switches when either side has events.
  void on_context_switch(Cgroup* prev, Cgroup* next, int cpu) noexcept;

  /// Fork hook: a new task entering a monitored cgroup inherits the
  /// cgroup's event context (the per-fork cost behind the execl/process-
  /// creation rows of Table III). No-op for unmonitored cgroups.
  void on_task_fork(Cgroup* cgroup, int cpu) noexcept;

  /// Charge a tick sample to the cgroup's counters (only when enabled).
  /// Inline: the scheduler charges every share of every tick.
  static void charge(Cgroup& cgroup, int cpu, const PerfSample& sample) noexcept {
    auto& perf = cgroup.perf;
    if (!perf.accounting_enabled) return;
    perf.counters.instructions += static_cast<std::uint64_t>(sample.instructions);
    perf.counters.cache_misses += static_cast<std::uint64_t>(sample.cache_misses);
    perf.counters.branch_misses +=
        static_cast<std::uint64_t>(sample.branch_misses);
    perf.counters.cycles += static_cast<std::uint64_t>(sample.cycles);
    const std::size_t base = static_cast<std::size_t>(cpu) * kEventsPerCpu;
    if (base + kEventsPerCpu <= perf.events.size()) {
      perf.events[base + 0].accumulated +=
          static_cast<std::uint64_t>(sample.instructions);
      perf.events[base + 1].accumulated +=
          static_cast<std::uint64_t>(sample.cache_misses);
      perf.events[base + 2].accumulated +=
          static_cast<std::uint64_t>(sample.branch_misses);
      perf.events[base + 3].accumulated +=
          static_cast<std::uint64_t>(sample.cycles);
    }
  }

  [[nodiscard]] static PerfCounters read(const Cgroup& cgroup) noexcept {
    return cgroup.perf.counters;
  }

  /// Number of inter-cgroup PMU save/restore operations performed
  /// (test/bench observability).
  [[nodiscard]] std::uint64_t pmu_switches() const noexcept {
    return pmu_switches_;
  }

 private:
  static void save_events(Cgroup& cgroup, int cpu) noexcept;
  static void restore_events(Cgroup& cgroup, int cpu) noexcept;

  std::uint64_t pmu_switches_ = 0;
};

}  // namespace cleaks::kernel
