// Equivalence contract of the batched SoA physics plane. The legacy
// object-at-a-time reference path is gone (the plane is the only
// implementation), so the contract is pinned three ways instead of by a
// live A/B run: (1) a recorded golden digest of a 200-step facility —
// captured while the dual-path build still existed, when both modes
// produced this exact value; (2) bound-vs-unbound invariance — a Host
// that never binds onto a plane uses its own storage but the identical
// arithmetic, so it must agree bitwise; (3) the scheduler's closed-form
// context-switch shortcut driven directly against the per-quantum hook
// loop. Plus the plane's mechanics: bind-time state migration, geometry
// validation, and the bound PerCpuNs growth rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cloud/datacenter.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "hw/batched_physics.h"
#include "kernel/cgroup.h"
#include "kernel/perf_event.h"
#include "kernel/scheduler.h"
#include "kernel/task.h"
#include "leakage/detector.h"
#include "obs/metrics.h"
#include "scan_digest.h"
#include "util/rng.h"

namespace cleaks {
namespace {

cloud::DatacenterConfig facility(int threads) {
  cloud::DatacenterConfig config;
  config.num_racks = 3;
  config.servers_per_rack = 4;
  config.rack_breaker.rated_w = 4000.0;
  config.rack_power_cap_w = 3200.0;
  config.seed = 7;
  config.num_threads = threads;
  return config;
}

hw::BatchedGeometry geometry_of(const cloud::CloudServiceProfile& profile) {
  return hw::BatchedGeometry{
      profile.hardware.num_cores, profile.hardware.num_packages,
      static_cast<int>(profile.hardware.cpuidle_states.size())};
}

struct FacilityTrace {
  std::vector<double> total_power;    ///< per-step facility power (bitwise)
  std::vector<std::uint64_t> rapl_uj; ///< final energy_uj, every domain
  std::vector<double> rapl_j;         ///< final unwrapped totals, every domain
  std::uint64_t sim_digest = 0;       ///< obs registry digest (Scope::kSim)

  bool operator==(const FacilityTrace& other) const {
    return total_power == other.total_power && rapl_uj == other.rapl_uj &&
           rapl_j == other.rapl_j && sim_digest == other.sim_digest;
  }
};

FacilityTrace run_facility(int threads, int steps = 200) {
  obs::Registry::global().reset();
  cloud::Datacenter dc(facility(threads));
  FacilityTrace trace;
  for (int tick = 0; tick < steps; ++tick) {
    dc.step(kSecond);
    trace.total_power.push_back(dc.total_power_w());
  }
  for (int s = 0; s < dc.num_servers(); ++s) {
    for (const auto& pkg : dc.server(s).host().rapl()) {
      for (const hw::RaplDomain* domain :
           {&pkg.package(), &pkg.core(), &pkg.dram()}) {
        trace.rapl_uj.push_back(domain->energy_uj());
        trace.rapl_j.push_back(domain->lifetime_energy_j());
      }
    }
  }
  trace.sim_digest =
      obs::Registry::global().snapshot().digest(obs::Scope::kSim);
  return trace;
}

// Recorded at the PR that deleted the scalar reference path; re-recorded at
// the sparse-stepping PR, which added the engine_active_server_steps_total /
// engine_idle_coasted_sim_seconds_total counters to the kSim registry (the
// power and RAPL traces themselves were bit-for-bit unchanged, and the new
// digest is identical under CLEAKS_SPARSE=0 and 1 at every lane count —
// tests/sparse_test.cpp pins that equality directly). Any arithmetic drift
// in the unconditional fast path shows up here.
constexpr std::uint64_t kFacilityGoldenDigest = 0x82f12a74f3b07e98ull;

TEST(BatchedEquivalence, FacilityBitwiseIdenticalAcrossLanesAndGolden) {
  const FacilityTrace reference = run_facility(1);
  for (int lanes : {2, 4, 8}) {
    EXPECT_EQ(run_facility(lanes), reference) << lanes << " lanes";
  }
  EXPECT_EQ(reference.sim_digest, kFacilityGoldenDigest)
      << "actual digest 0x" << std::hex << reference.sim_digest;
}

TEST(BoundPhysics, ScanFindingsIdenticalBoundVsUnbound) {
  // Table 1: the cross-validation scan must classify every channel path
  // identically whether the probed host's hardware state lives on a plane
  // lane or in its own vectors — and both must match the recorded findings.
  auto scan = [](bool bound) {
    // Plane declared before the server so bound slices outlive the Host.
    std::unique_ptr<hw::BatchedPhysics> plane;
    const auto profile = cloud::local_testbed();
    if (bound) {
      plane = std::make_unique<hw::BatchedPhysics>(geometry_of(profile), 1);
    }
    cloud::Server server("scan-host", profile, 77, 40 * kDay);
    if (plane) server.bind_physics(*plane, 0);
    leakage::CrossValidator validator(server);
    return findings_digest(validator.scan());
  };
  EXPECT_EQ(scan(/*bound=*/false), kTable1FindingsDigest) << "unbound";
  EXPECT_EQ(scan(/*bound=*/true), kTable1FindingsDigest) << "bound";
}

// ---------- scheduler closed-form fast path ----------

struct SchedObservation {
  std::vector<std::uint64_t> ctx_switches;  ///< per task
  std::uint64_t total_switches = 0;
  /// Summed pmu_state over the cgroup's perf event instances: the direct
  /// footprint of the context-switch hook (cgroup counters are charged by
  /// the Host after the tick, not in Scheduler::tick itself).
  std::uint64_t pmu_state = 0;
  double active_seconds = 0.0;

  bool operator==(const SchedObservation& other) const {
    return ctx_switches == other.ctx_switches &&
           total_switches == other.total_switches &&
           pmu_state == other.pmu_state &&
           active_seconds == other.active_seconds;
  }
};

// Drive Scheduler::tick directly: 6 busy tasks on 4 cores, 50 ticks. With
// an unmonitored cgroup the closed-form arithmetic must match the
// per-quantum hook loop bitwise (every hook is a no-op there); with a
// monitored cgroup the scheduler internally falls back to the loop on the
// involved cores, so the flag must not matter either way.
SchedObservation run_sched(bool closed_form, bool monitored) {
  kernel::Scheduler sched(4);
  kernel::PerfEventSubsystem perf;
  auto root = std::make_shared<kernel::Cgroup>("/");
  auto cgroup = std::make_shared<kernel::Cgroup>("/docker/sched");
  if (monitored) perf.create_cgroup_events(*cgroup, 4);

  std::vector<std::shared_ptr<kernel::Task>> tasks;
  for (int i = 0; i < 6; ++i) {
    auto task = std::make_shared<kernel::Task>();
    task->host_pid = i + 2;
    task->comm = "sched-busy";
    task->container_id = "sched";
    task->cgroup = cgroup;
    task->cpu = i % 4;
    task->behavior.duty_cycle = 1.0;
    task->behavior.ipc = 1.5;
    tasks.push_back(std::move(task));
  }

  Rng rng(1199);
  SchedObservation obs;
  for (int tick = 0; tick < 50; ++tick) {
    sched.tick(tasks, 2.4e9, 100 * kMillisecond, perf, *root, rng,
               closed_form);
    for (const auto& activity : sched.core_activity()) {
      obs.active_seconds += activity.active_seconds;
    }
  }
  for (const auto& task : tasks) {
    obs.ctx_switches.push_back(task->stats.ctx_switches);
  }
  obs.total_switches = sched.total_context_switches();
  for (const auto& instance : cgroup->perf.events) {
    obs.pmu_state += instance.pmu_state;
  }
  return obs;
}

TEST(BatchedScheduler, ClosedFormMatchesHookLoopWhenUnmonitored) {
  const auto loop = run_sched(/*closed_form=*/false, /*monitored=*/false);
  const auto closed = run_sched(true, false);
  EXPECT_EQ(closed, loop);
  // Sanity: the busy queue actually context-switched.
  EXPECT_GT(loop.total_switches, 0u);
}

TEST(BatchedScheduler, MonitoredCgroupFallsBackToHookLoop) {
  const auto loop = run_sched(/*closed_form=*/false, /*monitored=*/true);
  const auto closed = run_sched(true, true);
  EXPECT_EQ(closed, loop);
  EXPECT_GT(loop.pmu_state, 0u);  // the switch hook really ran
}

// ---------- bind-time migration ----------

TEST(BatchedPhysics, BindAfterWarmupMigratesStateBitwise) {
  // Three identically-seeded servers: never bound, bound from the start,
  // and bound only after 5 s of unbound stepping. All three must produce
  // the same power trace and final RAPL counters.
  const auto profile = cloud::local_testbed();
  std::unique_ptr<hw::BatchedPhysics> plane_b =
      std::make_unique<hw::BatchedPhysics>(geometry_of(profile), 1);
  std::unique_ptr<hw::BatchedPhysics> plane_c =
      std::make_unique<hw::BatchedPhysics>(geometry_of(profile), 1);
  cloud::Server a("host", profile, 23);
  cloud::Server b("host", profile, 23);
  cloud::Server c("host", profile, 23);
  b.bind_physics(*plane_b, 0);
  EXPECT_TRUE(b.host().batched());
  EXPECT_FALSE(a.host().batched());
  for (int tick = 0; tick < 10; ++tick) {
    if (tick == 5) c.bind_physics(*plane_c, 0);  // mid-run migration
    a.step(kSecond);
    b.step(kSecond);
    c.step(kSecond);
    ASSERT_EQ(a.power_w(), b.power_w()) << "tick " << tick;
    ASSERT_EQ(a.power_w(), c.power_w()) << "tick " << tick;
  }
  const auto& pkgs_a = a.host().rapl();
  const auto& pkgs_b = b.host().rapl();
  const auto& pkgs_c = c.host().rapl();
  ASSERT_EQ(pkgs_a.size(), pkgs_b.size());
  for (std::size_t p = 0; p < pkgs_a.size(); ++p) {
    EXPECT_EQ(pkgs_a[p].package().energy_uj(), pkgs_b[p].package().energy_uj());
    EXPECT_EQ(pkgs_a[p].package().energy_uj(), pkgs_c[p].package().energy_uj());
    EXPECT_EQ(pkgs_a[p].core().lifetime_energy_j(), pkgs_b[p].core().lifetime_energy_j());
    EXPECT_EQ(pkgs_a[p].dram().lifetime_energy_j(), pkgs_c[p].dram().lifetime_energy_j());
  }
}

TEST(BatchedPhysics, GeometryIsValidated) {
  EXPECT_THROW(hw::BatchedPhysics(hw::BatchedGeometry{0, 1, 2}, 1),
               std::invalid_argument);
  EXPECT_THROW(hw::BatchedPhysics(hw::BatchedGeometry{4, 0, 2}, 1),
               std::invalid_argument);

  const auto profile = cloud::local_testbed();
  hw::BatchedPhysics plane(geometry_of(profile), 2);
  cloud::Server server("host", profile, 1);
  EXPECT_THROW(server.bind_physics(plane, 2), std::invalid_argument);

  auto wrong = geometry_of(profile);
  wrong.num_cores += 1;
  hw::BatchedPhysics mismatched(wrong, 1);
  EXPECT_THROW(server.bind_physics(mismatched, 0), std::invalid_argument);
}

// ---------- bound per-cpu storage ----------

TEST(PerCpuNs, BindMigratesValuesAndCapsGrowth) {
  kernel::PerCpuNs cpus;
  cpus.ensure_cpus(3);
  cpus[0] = 100;
  cpus[1] = 200;
  cpus[2] = 300;

  std::uint64_t slab[6] = {9, 9, 9, 9, 9, 9};
  cpus.bind(slab, 6);
  EXPECT_EQ(cpus.size(), 6u);      // bound storage exposes full capacity
  EXPECT_EQ(cpus[0], 100u);        // values migrated
  EXPECT_EQ(cpus[2], 300u);
  EXPECT_EQ(cpus[3], 0u);          // tail zero-filled, not leftover bytes
  cpus[4] = 42;
  EXPECT_EQ(slab[4], 42u);         // writes land in the external slab

  cpus.ensure_cpus(6);                                  // within capacity: ok
  EXPECT_THROW(cpus.ensure_cpus(7), std::length_error); // beyond: refuses
  kernel::PerCpuNs big;
  big.ensure_cpus(8);
  std::uint64_t small[4];
  EXPECT_THROW(big.bind(small, 4), std::length_error);  // would truncate
}

TEST(PerCpuNs, CopyDetachesFromBoundStorage) {
  kernel::PerCpuNs cpus;
  std::uint64_t slab[2] = {0, 0};
  cpus.bind(slab, 2);
  cpus[0] = 7;
  kernel::PerCpuNs copy = cpus;  // snapshot, not an alias
  copy[0] = 99;
  EXPECT_EQ(cpus[0], 7u);
  EXPECT_EQ(slab[0], 7u);
  EXPECT_EQ(copy[0], 99u);
}

}  // namespace
}  // namespace cleaks
