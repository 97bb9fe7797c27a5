#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "kernel/host.h"
#include "util/rng.h"

namespace cleaks::kernel {
namespace {

std::unique_ptr<Host> make_host(std::uint64_t seed = 1) {
  auto host = std::make_unique<Host>("test-host", hw::testbed_i7_6700(), seed);
  host->set_tick_duration(100 * kMillisecond);
  return host;
}

TaskBehavior busy_behavior(double duty = 1.0) {
  TaskBehavior behavior;
  behavior.duty_cycle = duty;
  behavior.ipc = 2.0;
  behavior.cache_miss_per_kinst = 2.0;
  behavior.branch_miss_per_kinst = 3.0;
  return behavior;
}

// ---------- namespaces ----------

TEST(Namespaces, InitSetSharesAcrossHostTasks) {
  auto host = make_host();
  const auto& init = host->init_ns();
  EXPECT_EQ(init.uts->hostname, "test-host");
  EXPECT_TRUE(init.in_init_ns(NsType::kNet, init));
  EXPECT_GE(init.net->devices.size(), 3u);  // lo + nics
}

TEST(Namespaces, CloneCreatesFreshNamespaces) {
  auto host = make_host();
  auto cloned = host->namespaces().clone_for_container(
      host->init_ns(), "c1", "/docker/c1");
  EXPECT_FALSE(cloned.in_init_ns(NsType::kUts, host->init_ns()));
  EXPECT_FALSE(cloned.in_init_ns(NsType::kPid, host->init_ns()));
  EXPECT_FALSE(cloned.in_init_ns(NsType::kNet, host->init_ns()));
  EXPECT_EQ(cloned.uts->hostname, "c1");
  EXPECT_EQ(cloned.pid->level, 1);
  // Default 2016 Docker: user/cgroup namespaces NOT cloned.
  EXPECT_TRUE(cloned.in_init_ns(NsType::kUser, host->init_ns()));
  EXPECT_TRUE(cloned.in_init_ns(NsType::kCgroup, host->init_ns()));
}

TEST(Namespaces, CloneFlagsEnableUserAndCgroup) {
  auto host = make_host();
  CloneFlags flags;
  flags.new_user = true;
  flags.new_cgroup = true;
  auto cloned = host->namespaces().clone_for_container(
      host->init_ns(), "c2", "/docker/c2", flags);
  EXPECT_FALSE(cloned.in_init_ns(NsType::kUser, host->init_ns()));
  EXPECT_EQ(cloned.user->host_uid_base, 100000);
  EXPECT_EQ(cloned.cgroup->root_path, "/docker/c2");
}

TEST(Namespaces, ContainerNetHasVethAndLoOnly) {
  auto host = make_host();
  auto cloned = host->namespaces().clone_for_container(
      host->init_ns(), "c3", "/docker/c3");
  ASSERT_EQ(cloned.net->devices.size(), 2u);
  EXPECT_EQ(cloned.net->devices[0].name, "lo");
  EXPECT_EQ(cloned.net->devices[1].name, "eth0");
}

TEST(Namespaces, IdsAreDistinct) {
  auto host = make_host();
  auto a = host->namespaces().clone_for_container(host->init_ns(), "a", "/a");
  auto b = host->namespaces().clone_for_container(host->init_ns(), "b", "/b");
  EXPECT_NE(a.pid->id, b.pid->id);
  EXPECT_NE(a.uts->id, b.uts->id);
}

TEST(Namespaces, PidAllocationPerNamespace) {
  PidNamespace ns{1, 1, 1};
  EXPECT_EQ(ns.allocate_pid(), 1);
  EXPECT_EQ(ns.allocate_pid(), 2);
}

// ---------- cgroups ----------

TEST(Cgroups, RootExists) {
  CgroupManager manager;
  EXPECT_TRUE(manager.root()->is_root());
  EXPECT_EQ(manager.find("/"), manager.root());
}

TEST(Cgroups, CreateFindRemove) {
  CgroupManager manager;
  auto group = manager.create("/docker/abc");
  EXPECT_EQ(manager.find("/docker/abc"), group);
  EXPECT_EQ(manager.create("/docker/abc"), group);  // idempotent
  EXPECT_TRUE(manager.remove("/docker/abc"));
  EXPECT_EQ(manager.find("/docker/abc"), nullptr);
  EXPECT_FALSE(manager.remove("/docker/abc"));
}

TEST(Cgroups, RootCannotBeRemoved) {
  CgroupManager manager;
  EXPECT_FALSE(manager.remove("/"));
}

TEST(Cgroups, CpuacctTotals) {
  CpuacctState acct;
  acct.ensure_cpus(4);
  acct.usage_ns_per_cpu[0] = 100;
  acct.usage_ns_per_cpu[3] = 50;
  EXPECT_EQ(acct.total_usage_ns(), 150u);
}

// ---------- perf_event ----------

TEST(PerfEvent, CreateInstallsTombstoneOwnedEvents) {
  auto host = make_host();
  auto cgroup = host->cgroups().create("/docker/x");
  host->perf().create_cgroup_events(*cgroup, 8);
  EXPECT_TRUE(PerfEventSubsystem::has_events(*cgroup));
  EXPECT_EQ(cgroup->perf.events.size(),
            8u * PerfEventSubsystem::kEventsPerCpu);
  for (const auto& event : cgroup->perf.events) {
    EXPECT_TRUE(event.enabled);
    EXPECT_EQ(event.pmu_state, PerfEventSubsystem::kTaskTombstone);
  }
}

TEST(PerfEvent, ChargeAccumulatesOnlyWhenEnabled) {
  auto host = make_host();
  auto cgroup = host->cgroups().create("/docker/x");
  PerfSample sample;
  sample.instructions = 1000;
  sample.cycles = 500;
  PerfEventSubsystem::charge(*cgroup, 0, sample);
  EXPECT_EQ(PerfEventSubsystem::read(*cgroup).instructions, 0u);
  host->perf().create_cgroup_events(*cgroup, 8);
  PerfEventSubsystem::charge(*cgroup, 0, sample);
  EXPECT_EQ(PerfEventSubsystem::read(*cgroup).instructions, 1000u);
  EXPECT_EQ(PerfEventSubsystem::read(*cgroup).cycles, 500u);
}

TEST(PerfEvent, IntraCgroupSwitchIsFree) {
  auto host = make_host();
  auto cgroup = host->cgroups().create("/docker/x");
  host->perf().create_cgroup_events(*cgroup, 8);
  const auto before = host->perf().pmu_switches();
  host->perf().on_context_switch(cgroup.get(), cgroup.get(), 0);
  EXPECT_EQ(host->perf().pmu_switches(), before);
}

TEST(PerfEvent, InterCgroupSwitchDoesPmuWork) {
  auto host = make_host();
  auto a = host->cgroups().create("/docker/a");
  auto b = host->cgroups().create("/docker/b");
  host->perf().create_cgroup_events(*a, 8);
  const auto before = host->perf().pmu_switches();
  host->perf().on_context_switch(a.get(), b.get(), 0);
  EXPECT_EQ(host->perf().pmu_switches(), before + 1);
}

TEST(PerfEvent, SwitchBetweenUnmonitoredCgroupsIsFree) {
  auto host = make_host();
  auto a = host->cgroups().create("/docker/a");
  auto b = host->cgroups().create("/docker/b");
  const auto before = host->perf().pmu_switches();
  host->perf().on_context_switch(a.get(), b.get(), 0);
  EXPECT_EQ(host->perf().pmu_switches(), before);
}

TEST(PerfEvent, DestroyDisablesAccounting) {
  auto host = make_host();
  auto cgroup = host->cgroups().create("/docker/x");
  host->perf().create_cgroup_events(*cgroup, 8);
  host->perf().destroy_cgroup_events(*cgroup);
  EXPECT_FALSE(PerfEventSubsystem::has_events(*cgroup));
  EXPECT_TRUE(cgroup->perf.events.empty());
}

// ---------- scheduler via Host ----------

TEST(Scheduler, FullDutyTaskConsumesOneCore) {
  auto host = make_host();
  auto task = host->spawn_task({.comm = "busy", .behavior = busy_behavior()});
  host->advance(kSecond);
  EXPECT_NEAR(static_cast<double>(task->stats.runtime_ns), 1e9, 5e7);
}

TEST(Scheduler, OversubscribedCoreSharesFairly) {
  auto host = make_host();
  std::vector<std::shared_ptr<Task>> tasks;
  for (int i = 0; i < 2; ++i) {
    Host::SpawnOptions options;
    options.comm = "share-" + std::to_string(i);
    options.behavior = busy_behavior();
    options.allowed_cpus = {0};
    tasks.push_back(host->spawn_task(options));
  }
  host->advance(2 * kSecond);
  const double r0 = static_cast<double>(tasks[0]->stats.runtime_ns);
  const double r1 = static_cast<double>(tasks[1]->stats.runtime_ns);
  EXPECT_NEAR(r0 / (r0 + r1), 0.5, 0.05);        // fair split
  EXPECT_NEAR((r0 + r1) / 2e9, 1.0, 0.05);        // one core total
}

TEST(Scheduler, CpuQuotaCapsDuty) {
  auto host = make_host();
  auto cgroup = host->cgroups().create("/docker/q");
  cgroup->cpu_quota = 0.25;
  Host::SpawnOptions options;
  options.comm = "capped";
  options.behavior = busy_behavior();
  options.cgroup = cgroup;
  auto task = host->spawn_task(options);
  host->advance(2 * kSecond);
  EXPECT_NEAR(static_cast<double>(task->stats.runtime_ns), 0.5e9, 1e8);
}

TEST(Scheduler, InstructionsFollowIpc) {
  auto host = make_host();
  auto behavior = busy_behavior();
  behavior.ipc = 2.0;
  auto task = host->spawn_task({.comm = "ipc", .behavior = behavior});
  host->advance(kSecond);
  // cycles ~ 3.4e9, instructions ~ 6.8e9 (1% jitter).
  EXPECT_NEAR(task->stats.instructions / task->stats.cycles, 2.0, 0.1);
  EXPECT_NEAR(task->stats.cache_misses / task->stats.instructions * 1000.0,
              2.0, 0.2);
}

TEST(Scheduler, ContextSwitchesCountedForSharedCore) {
  auto host = make_host();
  for (int i = 0; i < 2; ++i) {
    Host::SpawnOptions options;
    options.comm = "sw";
    options.behavior = busy_behavior();
    options.allowed_cpus = {0};
    host->spawn_task(options);
  }
  const auto before = host->scheduler().total_context_switches();
  host->advance(kSecond);
  EXPECT_GT(host->scheduler().total_context_switches(), before + 50);
}

TEST(Scheduler, SpawnBurstSpreadsAcrossCores) {
  auto host = make_host();
  std::set<int> cores;
  for (int i = 0; i < 8; ++i) {
    cores.insert(
        host->spawn_task({.comm = "spread", .behavior = busy_behavior()})
            ->cpu);
  }
  EXPECT_GE(cores.size(), 7u);
}

// ---------- host ----------

TEST(Host, AdvanceMovesClockAndUptime) {
  auto host = make_host();
  const auto before_uptime = host->state().uptime_ns;
  host->advance(3 * kSecond);
  EXPECT_EQ(host->now(), 3 * kSecond);
  EXPECT_EQ(host->state().uptime_ns - before_uptime, 3 * kSecond);
}

// ---------- advance rounding contract (see Host::advance doc) ----------

TEST(AdvanceContract, NonTickMultipleLandsExactly) {
  auto host = make_host();  // 100 ms tick
  host->advance(250 * kMillisecond);  // two whole ticks + one 50 ms partial
  EXPECT_EQ(host->now(), 250 * kMillisecond);  // never rounded up to 300 ms
  EXPECT_EQ(host->state().uptime_ns, 250 * kMillisecond);
}

TEST(AdvanceContract, DurationBelowOneTickRunsOnePartialTick) {
  auto host = make_host();
  host->advance(30 * kMillisecond);  // less than one 100 ms tick
  EXPECT_EQ(host->now(), 30 * kMillisecond);
  EXPECT_GT(host->rapl()[0].package().lifetime_energy_j(), 0.0);  // physics really ran
}

TEST(AdvanceContract, SplitAdvanceMatchesWholeAdvanceBitwise) {
  // advance(250ms) decomposes into ticks of 100/100/50 ms; issuing the same
  // decomposition as separate calls must integrate identically.
  auto whole = make_host(9);
  auto split = make_host(9);
  whole->advance(250 * kMillisecond);
  split->advance(100 * kMillisecond);
  split->advance(100 * kMillisecond);
  split->advance(50 * kMillisecond);
  EXPECT_EQ(whole->now(), split->now());
  EXPECT_EQ(whole->state().uptime_ns, split->state().uptime_ns);
  EXPECT_EQ(whole->rapl()[0].package().lifetime_energy_j(),
            split->rapl()[0].package().lifetime_energy_j());  // bitwise, not approx
  EXPECT_EQ(whole->rapl()[0].package().energy_uj(),
            split->rapl()[0].package().energy_uj());
}

TEST(AdvanceContract, ZeroDurationIsANoOp) {
  auto host = make_host();
  host->advance(kSecond);
  const auto now = host->now();
  const auto joules = host->rapl()[0].package().lifetime_energy_j();
  host->advance(0);
  EXPECT_EQ(host->now(), now);
  EXPECT_EQ(host->rapl()[0].package().lifetime_energy_j(), joules);
}

TEST(Host, DeterministicForSameSeed) {
  auto a = make_host(99);
  auto b = make_host(99);
  a->spawn_task({.comm = "x", .behavior = busy_behavior()});
  b->spawn_task({.comm = "x", .behavior = busy_behavior()});
  a->advance(5 * kSecond);
  b->advance(5 * kSecond);
  EXPECT_DOUBLE_EQ(a->lifetime_energy_j(), b->lifetime_energy_j());
  EXPECT_EQ(a->state().boot_id, b->state().boot_id);
  EXPECT_EQ(a->state().total_ctxt_switches, b->state().total_ctxt_switches);
}

TEST(Host, DifferentSeedsGiveDifferentBootIds) {
  EXPECT_NE(make_host(1)->state().boot_id, make_host(2)->state().boot_id);
}

TEST(Host, SpawnAssignsMonotonicPids) {
  auto host = make_host();
  auto t1 = host->spawn_task({.comm = "a"});
  auto t2 = host->spawn_task({.comm = "b"});
  EXPECT_GT(t2->host_pid, t1->host_pid);
  EXPECT_EQ(host->find_task(t1->host_pid), t1);
}

TEST(Host, KillRemovesTask) {
  auto host = make_host();
  auto task = host->spawn_task({.comm = "victim"});
  EXPECT_TRUE(host->kill_task(task->host_pid));
  EXPECT_EQ(host->find_task(task->host_pid), nullptr);
  EXPECT_FALSE(host->kill_task(task->host_pid));
}

TEST(Host, IdlePowerNearSpecFloor) {
  auto host = make_host();
  host->advance(10 * kSecond);
  const auto& e = host->spec().energy;
  const double idle_floor = e.p_core_idle_w * host->spec().num_cores +
                            e.p_uncore_w + e.p_dram_idle_w;
  EXPECT_NEAR(host->last_tick_power_w(), idle_floor, idle_floor * 0.2);
}

TEST(Host, BusyPowerExceedsIdle) {
  auto host = make_host();
  host->advance(kSecond);
  const double idle_power = host->last_tick_power_w();
  for (int i = 0; i < 8; ++i) {
    host->spawn_task({.comm = "burn", .behavior = busy_behavior()});
  }
  host->advance(2 * kSecond);
  EXPECT_GT(host->last_tick_power_w(), idle_power * 2.5);
}

TEST(Host, EnergyCountersMonotone) {
  auto host = make_host();
  std::uint64_t last = host->rapl()[0].package().energy_uj();
  for (int i = 0; i < 10; ++i) {
    host->advance(kSecond);
    const auto now = host->rapl()[0].package().energy_uj();
    EXPECT_GT(now, last);  // far from wrap in this test
    last = now;
  }
}

TEST(Host, RaplCappingThrottlesFrequency) {
  auto spec = hw::testbed_i7_6700();
  spec.rapl_power_cap_w = 20.0;
  Host host("capped", spec, 5);
  host.set_tick_duration(100 * kMillisecond);
  for (int i = 0; i < 8; ++i) {
    host.spawn_task({.comm = "burn", .behavior = busy_behavior()});
  }
  host.advance(10 * kSecond);
  // The throttle bottoms out at 50% of nominal frequency; with 8 busy
  // cores that halves the dynamic power but cannot reach a 20 W cap.
  EXPECT_NEAR(host.effective_freq_hz(), 1.7e9, 0.1e9);
  host.advance(kSecond);
  const double floor_w = host.last_tick_power_w();
  host.set_power_cap_w(0.0);
  host.advance(20 * kSecond);
  EXPECT_GT(host.last_tick_power_w(), floor_w * 1.3);  // throttle released
}

TEST(Host, SetPowerCapAtRuntime) {
  auto host = make_host();
  for (int i = 0; i < 8; ++i) {
    host->spawn_task({.comm = "burn", .behavior = busy_behavior()});
  }
  host->advance(2 * kSecond);
  const double uncapped = host->last_tick_power_w();
  host->set_power_cap_w(uncapped / 2);
  host->advance(20 * kSecond);
  EXPECT_LT(host->last_tick_power_w(), uncapped * 0.8);
  host->set_power_cap_w(0.0);
  host->advance(30 * kSecond);
  EXPECT_GT(host->last_tick_power_w(), uncapped * 0.9);
}

TEST(Host, LoadavgTracksRunnableTasks) {
  auto host = make_host();
  for (int i = 0; i < 4; ++i) {
    host->spawn_task({.comm = "load", .behavior = busy_behavior()});
  }
  host->advance(3 * kMinute);
  EXPECT_NEAR(host->state().load1, 4.0, 1.0);
  EXPECT_GT(host->state().load1, host->state().load15);
}

TEST(Host, SeedPriorUptimeSetsAccumulators) {
  auto host = make_host(3);
  host->seed_prior_uptime(30 * kDay);
  EXPECT_EQ(host->state().uptime_ns, 30 * kDay);
  EXPECT_GT(host->state().idle_time_ns, 0u);
  EXPECT_GT(host->state().total_interrupts, 1000000u);
  EXPECT_GT(host->rapl()[0].package().lifetime_energy_j(), 1e6);
  EXPECT_GT(host->cpuidle().usage(0, host->cpuidle().num_states() - 1), 0u);
}

TEST(Host, ForkCountsIncrease) {
  auto host = make_host();
  const auto before = host->state().processes_forked;
  host->spawn_task({.comm = "child"});
  EXPECT_EQ(host->state().processes_forked, before + 1);
}

TEST(Host, MemFreeDropsWithRss) {
  auto host = make_host();
  const auto before = host->state().mem_free_kb;
  TaskBehavior behavior;
  behavior.rss_bytes = 4ULL << 30;
  host->spawn_task({.comm = "hog", .behavior = behavior});
  EXPECT_LT(host->state().mem_free_kb, before - (3ULL << 20));
}

TEST(Host, InterruptCountersGrowWithIo) {
  auto host = make_host();
  TaskBehavior io_behavior;
  io_behavior.duty_cycle = 0.2;
  io_behavior.io_rate_per_s = 1000.0;
  host->spawn_task({.comm = "io", .behavior = io_behavior});
  const auto before = host->state().total_interrupts;
  host->advance(5 * kSecond);
  EXPECT_GT(host->state().total_interrupts, before + 1000);
}

TEST(Host, TemperatureRisesUnderLoad) {
  auto host = make_host();
  host->advance(5 * kSecond);
  const double cool = host->thermal().temp_c(0);
  Host::SpawnOptions options;
  options.comm = "hot";
  options.behavior = busy_behavior();
  options.allowed_cpus = {0};
  host->spawn_task(options);
  host->advance(30 * kSecond);
  EXPECT_GT(host->thermal().temp_c(0), cool + 5.0);
}


// ---------- host-tick golden ----------

// FNV digest of everything one host's ticks write: every KernelState
// counter, every task's TaskStats, each cgroup's cpuacct and perf counters
// (PMU save/restore state included), RAPL, temperatures, cpuidle, the
// scheduler's totals and the tick RNG's next draw (a witness of how many
// draws the ticks consumed).
std::uint64_t host_tick_digest(const Host& host) {
  std::uint64_t h = kDigestSeed;
  const auto u = [&h](std::uint64_t v) { fnv1a64_mix(h, v); };
  const auto d = [&h](double v) { fnv1a64_mix(h, std::bit_cast<std::uint64_t>(v)); };
  const auto i = [&h](std::int64_t v) {
    fnv1a64_mix(h, static_cast<std::uint64_t>(v));
  };

  const KernelState& ks = host.state();
  u(ks.uptime_ns);
  u(ks.idle_time_ns);
  for (const auto& t : ks.cpu_times) {
    for (auto v : {t.user, t.nice, t.system, t.idle, t.iowait, t.irq,
                   t.softirq, t.steal}) {
      u(v);
    }
  }
  for (const auto& line : ks.irqs) {
    for (auto v : line.per_cpu) u(v);
  }
  for (const auto& per_cpu : ks.softirqs) {
    for (auto v : per_cpu) u(v);
  }
  u(ks.total_interrupts);
  u(ks.total_ctxt_switches);
  u(ks.processes_forked);
  i(ks.procs_running);
  i(ks.procs_blocked);
  for (const auto& s : ks.schedstat) {
    for (auto v : {s.sched_yield, s.schedule_called, s.sched_goidle,
                   s.ttwu_count, s.ttwu_local, s.run_time_ns, s.wait_time_ns,
                   s.timeslices}) {
      u(v);
    }
  }
  for (const auto& n : ks.numa) {
    for (auto v : {n.numa_hit, n.numa_miss, n.numa_foreign, n.interleave_hit,
                   n.local_node, n.other_node}) {
      u(v);
    }
  }
  for (auto v : {ks.mem_total_kb, ks.mem_free_kb, ks.buffers_kb, ks.cached_kb,
                 ks.slab_kb, ks.active_kb, ks.inactive_kb, ks.dirty_kb}) {
    u(v);
  }
  d(ks.load1);
  d(ks.load5);
  d(ks.load15);
  i(ks.entropy_avail);
  for (auto v : {ks.file_nr, ks.inode_nr, ks.dentry_nr, ks.dentry_unused}) {
    u(v);
  }
  for (auto v : ks.ext4_group_free_blocks) u(v);
  for (const auto& costs : ks.sched_domain_lb_cost) {
    u(costs[0]);
    u(costs[1]);
  }

  for (const auto& task : host.tasks()) {
    i(task->host_pid);
    i(task->cpu);
    const TaskStats& s = task->stats;
    u(s.runtime_ns);
    d(s.cycles);
    d(s.instructions);
    d(s.cache_misses);
    d(s.branch_misses);
    u(s.ctx_switches);
    u(s.migrations);
  }
  for (const auto& cgroup : host.cgroups().all()) {
    for (auto v : cgroup->cpuacct.usage_ns_per_cpu) u(v);
    d(cgroup->cpuacct.total_cycles);
    const PerfCounters& c = cgroup->perf.counters;
    for (auto v : {c.instructions, c.cache_misses, c.branch_misses, c.cycles}) {
      u(v);
    }
    for (const auto& ev : cgroup->perf.events) {
      u(ev.pmu_state);
      u(ev.accumulated);
      u(ev.enabled ? 1 : 0);
    }
  }

  for (const auto& pkg : host.rapl()) {
    for (const hw::RaplDomain* domain :
         {&pkg.package(), &pkg.core(), &pkg.dram()}) {
      u(domain->energy_uj());
      d(domain->lifetime_energy_j());
    }
  }
  const int cores = host.spec().num_cores;
  for (int core = 0; core < cores; ++core) {
    d(host.thermal().temp_c(core));
    for (int state = 0; state < host.cpuidle().num_states(); ++state) {
      u(host.cpuidle().usage(core, state));
      u(host.cpuidle().time_us(core, state));
    }
  }
  d(host.last_tick_power_w());
  d(host.effective_freq_hz());
  u(host.nonroot_usage_marker());
  u(host.scheduler().total_context_switches());
  u(host.scheduler().total_migrations());
  for (int runnable : host.scheduler().runnable_per_core()) i(runnable);
  u(host.state_generation());
  Rng witness = host.tick_rng();
  u(witness());
  return h;
}

// One host through every tick path: a quota'd cgroup on a cpuset, a
// perf-monitored cgroup (shared core and a solo sleeper, so the per-quantum
// hook loop runs), IO tasks (ext4 churn, iowait, device interrupts), tasks
// stacked on one core for rebalance to spread, a RAPL cap's throttle and
// recovery, a kill, and 100 ms, 5 s and partial ticks.
std::uint64_t run_host_tick_scenario(hw::HardwareSpec spec, std::uint64_t seed) {
  Host host("tick-golden", std::move(spec), seed);
  host.set_tick_duration(100 * kMillisecond);
  host.seed_prior_uptime(3 * kDay);
  const int cores = host.spec().num_cores;

  auto quota = host.cgroups().create("/docker/quota");
  quota->cpu_quota = 0.3;
  quota->cpuset.cpus = {cores - 2, cores - 1};
  for (int t = 0; t < 3; ++t) {
    host.spawn_task({.comm = "quota", .behavior = busy_behavior(0.9),
                     .container_id = "quota", .cgroup = quota});
  }

  auto monitored = host.cgroups().create("/docker/perf");
  host.perf().create_cgroup_events(*monitored, cores);
  for (int t = 0; t < 2; ++t) {
    host.spawn_task({.comm = "perf-shared", .behavior = busy_behavior(0.6),
                     .container_id = "perf", .cgroup = monitored,
                     .allowed_cpus = {1}});
  }
  host.spawn_task({.comm = "perf-solo", .behavior = busy_behavior(0.4),
                   .container_id = "perf", .cgroup = monitored,
                   .allowed_cpus = {2}});
  // A root task on the monitored shared core: inter-cgroup switches in
  // the hook loop.
  host.spawn_task({.comm = "root-mixed", .behavior = busy_behavior(0.5),
                   .allowed_cpus = {1}});

  TaskBehavior io;
  io.duty_cycle = 0.1;
  io.io_rate_per_s = 600.0;
  io.rss_bytes = 512ULL << 20;
  const HostPid io_pid =
      host.spawn_task({.comm = "io-a", .behavior = io})->host_pid;
  host.spawn_task({.comm = "io-b", .behavior = io});

  // Spawned idle, all land on one core; woken, rebalance must spread them.
  std::vector<std::shared_ptr<Task>> stacked;
  for (int t = 0; t < 5; ++t) {
    stacked.push_back(host.spawn_task({.comm = "stacked"}));
  }
  for (auto& task : stacked) task->behavior = busy_behavior(0.7);

  const double nominal_hz = host.effective_freq_hz();
  host.advance(3 * kSecond);
  host.set_power_cap_w(host.last_tick_power_w() * 0.6);
  host.advance(4 * kSecond);
  EXPECT_LT(host.effective_freq_hz(), nominal_hz);  // throttled
  host.set_power_cap_w(0.0);
  host.advance(3 * kSecond);
  EXPECT_EQ(host.effective_freq_hz(), nominal_hz);  // recovered
  EXPECT_GT(host.scheduler().total_migrations(), 0u);
  EXPECT_GT(host.perf().pmu_switches(), 0u);
  host.kill_task(io_pid);
  host.set_tick_duration(5 * kSecond);
  host.advance(40 * kSecond);
  host.advance(2 * kSecond + 30 * kMillisecond);  // one partial tick
  return host_tick_digest(host);
}

// Recorded before the tick's one-pass rewrite: every counter above must
// keep its bits and the tick must draw exactly as many numbers.
TEST(HostTickGolden, TestbedDigestMatchesRecording) {
  const std::uint64_t digest = run_host_tick_scenario(hw::testbed_i7_6700(), 41);
  EXPECT_EQ(digest, 0xb9bd756583afd7b8ull)
      << "actual digest 0x" << std::hex << digest;
}

TEST(HostTickGolden, TwoPackageServerDigestMatchesRecording) {
  const std::uint64_t digest = run_host_tick_scenario(hw::cloud_xeon_server(), 43);
  EXPECT_EQ(digest, 0x17e97b1bdf6bba86ull)
      << "actual digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace cleaks::kernel
