#include "kernel/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cleaks::kernel {

Scheduler::Scheduler(int num_cores, SimDuration quantum)
    : num_cores_(num_cores), quantum_(quantum) {
  if (num_cores <= 0) throw std::invalid_argument("Scheduler: cores <= 0");
  if (quantum == 0) throw std::invalid_argument("Scheduler: zero quantum");
  core_activity_.resize(static_cast<std::size_t>(num_cores));
  runnable_per_core_.resize(static_cast<std::size_t>(num_cores), 0);
  core_begin_.resize(static_cast<std::size_t>(num_cores) + 1, 0);
}

double Scheduler::effective_duty(const Task& task) noexcept {
  double duty = std::clamp(task.behavior.duty_cycle, 0.0, 1.0);
  if (task.cgroup && task.cgroup->cpu_quota >= 0.0) {
    duty = std::min(duty, task.cgroup->cpu_quota);
  }
  return duty;
}

void Scheduler::index_runnable(
    const std::vector<std::shared_ptr<Task>>& tasks) {
  unsorted_.clear();
  std::fill(runnable_per_core_.begin(), runnable_per_core_.end(), 0);
  for (const auto& task : tasks) {
    if (!task || !task->running) continue;
    if (task->cpu < 0 || task->cpu >= num_cores_) continue;
    const double duty = effective_duty(*task);
    if (duty <= 0.0) continue;
    unsorted_.push_back({task.get(), duty});
    ++runnable_per_core_[static_cast<std::size_t>(task->cpu)];
  }
  // Stable counting sort by core: core_begin_[c + 1] starts as core c's
  // first slot and ends as its one-past-last, i.e. core c + 1's start.
  core_begin_[0] = 0;
  core_begin_[1] = 0;
  for (int core = 1; core < num_cores_; ++core) {
    const auto c = static_cast<std::size_t>(core);
    core_begin_[c + 1] = core_begin_[c] + runnable_per_core_[c - 1];
  }
  runnable_.resize(unsorted_.size());
  for (const Indexed& entry : unsorted_) {
    const auto slot = core_begin_[static_cast<std::size_t>(entry.task->cpu) + 1]++;
    Runnable& runnable = runnable_[static_cast<std::size_t>(slot)];
    runnable.task = entry.task;
    runnable.duty = entry.duty;
  }
}

void Scheduler::tick(const std::vector<std::shared_ptr<Task>>& tasks,
                     double freq_hz, SimDuration dt, PerfEventSubsystem& perf,
                     Cgroup& idle_cgroup, Rng& rng,
                     bool closed_form_switches) {
  const double dt_sec = to_seconds(dt);
  index_runnable(tasks);
  const auto quanta = static_cast<std::uint64_t>(
      std::max<double>(1.0, static_cast<double>(dt) /
                                static_cast<double>(quantum_)));

  for (int core = 0; core < num_cores_; ++core) {
    Runnable* const queue =
        runnable_.data() + core_begin_[static_cast<std::size_t>(core)];
    const auto n = static_cast<std::size_t>(
        core_begin_[static_cast<std::size_t>(core) + 1] -
        core_begin_[static_cast<std::size_t>(core)]);
    auto& activity = core_activity_[static_cast<std::size_t>(core)];
    activity = hw::TickActivity{};

    double total_demand = 0.0;
    bool monitored = false;
    for (std::size_t i = 0; i < n; ++i) {
      total_demand += queue[i].duty;
      const Cgroup* cgroup = queue[i].task->cgroup.get();
      monitored = monitored || (cgroup && cgroup->perf.accounting_enabled);
    }
    const double scale = total_demand > 1.0 ? 1.0 / total_demand : 1.0;

    double busy_sec = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      Runnable& share = queue[i];
      const TaskBehavior& behavior = share.task->behavior;
      const double jitter = std::clamp(rng.gaussian(1.0, 0.01), 0.9, 1.1);
      const double active = share.duty * scale * dt_sec * jitter;
      share.active_seconds = active;
      share.sample.cycles = active * freq_hz;
      share.sample.instructions =
          share.sample.cycles * behavior.ipc *
          std::clamp(rng.gaussian(1.0, 0.01), 0.9, 1.1);
      share.sample.cache_misses =
          share.sample.instructions * behavior.cache_miss_per_kinst / 1000.0;
      share.sample.branch_misses =
          share.sample.instructions * behavior.branch_miss_per_kinst / 1000.0;
      busy_sec += active;
      activity.instructions += share.sample.instructions;
      activity.cycles += share.sample.cycles;
      activity.cache_misses += share.sample.cache_misses;
      activity.branch_misses += share.sample.branch_misses;
    }
    busy_sec = std::min(busy_sec, dt_sec);
    activity.active_seconds = busy_sec;
    activity.idle_seconds = dt_sec - busy_sec;

    // Context switches. With n > 1 runnable tasks the core round-robins at
    // quantum granularity between them; with exactly one partially-busy
    // task the switches are to/from the idle task (swapper), which lives in
    // the root cgroup — the inter-cgroup case that makes the power-based
    // namespace's switch hook expensive for single-copy workloads
    // (Table III, pipe-based context switching).
    std::uint64_t switches = 0;
    if (n > 1) {
      switches = quanta;
      // With no monitored cgroup on this core the switch hook no-ops for
      // every pair, so the per-quantum loop reduces to its stats update:
      // prev cycles through the queue, giving task i one switch per
      // s ≡ i (mod n) — i.e. quanta/n each plus one for the first
      // quanta%n tasks. Same integers, no 2·quanta virtual calls.
      if (closed_form_switches && !monitored) {
        const std::uint64_t each = quanta / n;
        const std::uint64_t extra = quanta % n;
        for (std::size_t i = 0; i < n; ++i) {
          queue[i].task->stats.ctx_switches += each + (i < extra ? 1 : 0);
        }
      } else {
        for (std::uint64_t s = 0; s < switches; ++s) {
          Task* prev = queue[s % n].task;
          Task* next = queue[(s + 1) % n].task;
          perf.on_context_switch(prev->cgroup.get(), next->cgroup.get(), core);
          ++prev->stats.ctx_switches;
        }
      }
    } else if (n == 1 && busy_sec < dt_sec * 0.97) {
      // A genuinely saturated solo task never leaves the cpu; the small
      // per-tick jitter must not be mistaken for sleep/wake cycles.
      // Sleep/wake pairs against the idle task.
      switches = quanta;
      Task* task = queue[0].task;
      // The sleep/wake hook pair no-ops when the task lives in the idle
      // (root) cgroup itself, or when neither side is monitored.
      const bool closed =
          closed_form_switches &&
          (task->cgroup.get() == &idle_cgroup ||
           (!monitored && !idle_cgroup.perf.accounting_enabled));
      if (closed) {
        task->stats.ctx_switches += quanta;
      } else {
        for (std::uint64_t s = 0; s < switches; ++s) {
          perf.on_context_switch(task->cgroup.get(), &idle_cgroup, core);
          perf.on_context_switch(&idle_cgroup, task->cgroup.get(), core);
          ++task->stats.ctx_switches;
        }
      }
      switches *= 2;
    }
    total_ctx_switches_ += switches;

    // Commit each share to its task and charge its cgroup.
    for (std::size_t i = 0; i < n; ++i) {
      const Runnable& share = queue[i];
      Task& task = *share.task;
      const auto active_ns =
          static_cast<std::uint64_t>(share.active_seconds * 1e9);
      task.stats.runtime_ns += active_ns;
      task.stats.cycles += share.sample.cycles;
      task.stats.instructions += share.sample.instructions;
      task.stats.cache_misses += share.sample.cache_misses;
      task.stats.branch_misses += share.sample.branch_misses;
      Cgroup* cgroup = task.cgroup.get();
      if (cgroup == nullptr) continue;
      if (cgroup != &idle_cgroup) ++total_nonroot_charges_;
      cgroup->cpuacct.ensure_cpus(num_cores_);
      cgroup->cpuacct.usage_ns_per_cpu[static_cast<std::size_t>(core)] +=
          active_ns;
      cgroup->cpuacct.total_cycles += share.sample.cycles;
      PerfEventSubsystem::charge(*cgroup, core, share.sample);
    }
  }
}

int Scheduler::place_task(const std::vector<int>& allowed_cpus) const {
  int best_core = -1;
  int best_load = 0;
  auto consider = [&](int core) {
    if (core < 0 || core >= num_cores_) return;
    const int load = runnable_per_core_[static_cast<std::size_t>(core)];
    if (best_core < 0 || load < best_load) {
      best_core = core;
      best_load = load;
    }
  };
  if (allowed_cpus.empty()) {
    for (int core = 0; core < num_cores_; ++core) consider(core);
  } else {
    for (int core : allowed_cpus) consider(core);
  }
  return best_core < 0 ? 0 : best_core;
}

int Scheduler::rebalance(const std::vector<std::shared_ptr<Task>>& tasks) {
  // Current load per core.
  std::vector<int>& load = balance_load_;
  load.assign(static_cast<std::size_t>(num_cores_), 0);
  for (const auto& task : tasks) {
    if (task && task->running && task->cpu >= 0 && task->cpu < num_cores_ &&
        effective_duty(*task) > 0.0) {
      ++load[static_cast<std::size_t>(task->cpu)];
    }
  }
  int migrations = 0;
  static const std::vector<int> kAnyCore;
  for (const auto& task : tasks) {
    if (!task || !task->running || effective_duty(*task) <= 0.0) continue;
    const auto& allowed =
        !task->allowed_cpus.empty()
            ? task->allowed_cpus
            : (task->cgroup ? task->cgroup->cpuset.cpus : kAnyCore);
    int best = task->cpu;
    int best_load = load[static_cast<std::size_t>(task->cpu)];
    auto consider = [&](int core) {
      if (core < 0 || core >= num_cores_) return;
      if (load[static_cast<std::size_t>(core)] < best_load - 1) {
        best = core;
        best_load = load[static_cast<std::size_t>(core)];
      }
    };
    if (allowed.empty()) {
      for (int core = 0; core < num_cores_; ++core) consider(core);
    } else {
      for (int core : allowed) consider(core);
    }
    if (best != task->cpu) {
      --load[static_cast<std::size_t>(task->cpu)];
      ++load[static_cast<std::size_t>(best)];
      task->cpu = best;
      ++task->stats.migrations;
      ++total_migrations_;
      ++migrations;
    }
  }
  return migrations;
}

}  // namespace cleaks::kernel
