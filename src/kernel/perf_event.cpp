#include "kernel/perf_event.h"

namespace cleaks::kernel {
namespace {

// PMU register mixing: models the MSR read-modify-write a real save/restore
// performs. Marked volatile-equivalent by feeding the result back into state
// so the compiler cannot elide the work.
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

void PerfEventSubsystem::create_cgroup_events(Cgroup& cgroup, int num_cpus) {
  auto& perf = cgroup.perf;
  perf.events.assign(
      static_cast<std::size_t>(num_cpus) * kEventsPerCpu, PerfEventInstance{});
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    for (int type = 0; type < kEventsPerCpu; ++type) {
      auto& ev = perf.events[static_cast<std::size_t>(cpu) * kEventsPerCpu +
                             static_cast<std::size_t>(type)];
      ev.event_type = type;
      ev.enabled = true;
      // The owner of every created event is TASK_TOMBSTONE (see header).
      ev.pmu_state = kTaskTombstone;
    }
  }
  perf.accounting_enabled = true;
}

void PerfEventSubsystem::destroy_cgroup_events(Cgroup& cgroup) {
  cgroup.perf.events.clear();
  cgroup.perf.accounting_enabled = false;
}

void PerfEventSubsystem::save_events(Cgroup& cgroup, int cpu) noexcept {
  auto& events = cgroup.perf.events;
  const std::size_t base = static_cast<std::size_t>(cpu) * kEventsPerCpu;
  if (base + kEventsPerCpu > events.size()) return;
  for (int type = 0; type < kEventsPerCpu; ++type) {
    auto& ev = events[base + static_cast<std::size_t>(type)];
    ev.pmu_state = mix(ev.pmu_state + ev.accumulated);
    ev.enabled = false;
  }
}

void PerfEventSubsystem::restore_events(Cgroup& cgroup, int cpu) noexcept {
  auto& events = cgroup.perf.events;
  const std::size_t base = static_cast<std::size_t>(cpu) * kEventsPerCpu;
  if (base + kEventsPerCpu > events.size()) return;
  for (int type = 0; type < kEventsPerCpu; ++type) {
    auto& ev = events[base + static_cast<std::size_t>(type)];
    ev.pmu_state = mix(ev.pmu_state ^ (static_cast<std::uint64_t>(cpu) << 8));
    ev.enabled = true;
  }
}

void PerfEventSubsystem::on_context_switch(Cgroup* prev, Cgroup* next,
                                           int cpu) noexcept {
  if (prev == next) return;  // intra-cgroup: no PMU work
  const bool prev_active = prev != nullptr && prev->perf.accounting_enabled;
  const bool next_active = next != nullptr && next->perf.accounting_enabled;
  if (!prev_active && !next_active) return;
  if (prev_active) save_events(*prev, cpu);
  if (next_active) restore_events(*next, cpu);
  ++pmu_switches_;
}

void PerfEventSubsystem::on_task_fork(Cgroup* cgroup, int cpu) noexcept {
  if (cgroup == nullptr || !cgroup->perf.accounting_enabled) return;
  // Inheritance: perf_event_init_task attaches the child to the event
  // contexts of its cpu; each attach is a few context writes.
  auto& events = cgroup->perf.events;
  const std::size_t base = static_cast<std::size_t>(cpu) * kEventsPerCpu;
  if (base + kEventsPerCpu > events.size()) return;
  for (int type = 0; type < kEventsPerCpu; ++type) {
    auto& event = events[base + static_cast<std::size_t>(type)];
    event.pmu_state = mix(event.pmu_state ^ event.accumulated);
    event.pmu_state = mix(event.pmu_state + static_cast<std::uint64_t>(type));
    event.pmu_state = mix(event.pmu_state ^ kTaskTombstone);
  }
}

}  // namespace cleaks::kernel
