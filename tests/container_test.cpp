#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "container/container.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cleaks::container {
namespace {

struct Fixture {
  Fixture()
      : host("c-host", hw::testbed_i7_6700(), 31),
        filesystem(host),
        runtime(host, filesystem) {
    host.set_tick_duration(100 * kMillisecond);
  }

  kernel::Host host;
  fs::PseudoFs filesystem;
  ContainerRuntime runtime;
};

TEST(Container, CreateSetsUpNamespacesAndCgroup) {
  Fixture fixture;
  auto instance = fixture.runtime.create({});
  EXPECT_EQ(instance->id().size(), 12u);
  EXPECT_EQ(instance->cgroup()->path(), "/docker/" + instance->id());
  EXPECT_FALSE(
      instance->ns().in_init_ns(kernel::NsType::kPid, fixture.host.init_ns()));
  EXPECT_EQ(instance->ns().uts->hostname, instance->id());
}

TEST(Container, InitTaskIsPidOneInItsNamespace) {
  Fixture fixture;
  auto instance = fixture.runtime.create({});
  ASSERT_NE(instance->init_task(), nullptr);
  EXPECT_EQ(instance->init_task()->ns_pid, 1);
  EXPECT_GT(instance->init_task()->host_pid, 1);  // not pid 1 on the host
}

TEST(Container, RunAssignsNamespacePids) {
  Fixture fixture;
  auto instance = fixture.runtime.create({});
  auto first = instance->run("app", {});
  auto second = instance->run("worker", {});
  EXPECT_EQ(first->ns_pid, 2);
  EXPECT_EQ(second->ns_pid, 3);
  EXPECT_EQ(first->container_id, instance->id());
}

TEST(Container, CpusetAllocationRespectsSize) {
  Fixture fixture;
  ContainerConfig config;
  config.num_cpus = 3;
  auto instance = fixture.runtime.create(config);
  EXPECT_EQ(instance->cpuset().size(), 3u);
}

TEST(Container, CpusetsSpreadAcrossCores) {
  Fixture fixture;
  ContainerConfig config;
  config.num_cpus = 4;
  auto a = fixture.runtime.create(config);
  auto b = fixture.runtime.create(config);
  // 8 cores, two 4-core containers: the allocator avoids overlap.
  std::set<int> combined(a->cpuset().begin(), a->cpuset().end());
  combined.insert(b->cpuset().begin(), b->cpuset().end());
  EXPECT_EQ(combined.size(), 8u);
}

TEST(Container, ZeroCpusMeansAllCores) {
  Fixture fixture;
  auto instance = fixture.runtime.create({});
  EXPECT_TRUE(instance->cpuset().empty());
}

TEST(Container, TasksConfinedToCpuset) {
  Fixture fixture;
  ContainerConfig config;
  config.num_cpus = 2;
  auto instance = fixture.runtime.create(config);
  kernel::TaskBehavior busy;
  busy.duty_cycle = 1.0;
  for (int i = 0; i < 4; ++i) instance->run("pin", busy);
  fixture.host.advance(5 * kSecond);
  for (const auto& task : instance->tasks()) {
    EXPECT_TRUE(std::find(instance->cpuset().begin(), instance->cpuset().end(),
                          task->cpu) != instance->cpuset().end());
  }
}

TEST(Container, MemoryUsageTracksTasks) {
  Fixture fixture;
  auto instance = fixture.runtime.create({});
  const auto base = instance->cgroup()->memory.usage_bytes;
  kernel::TaskBehavior behavior;
  behavior.rss_bytes = 256ULL << 20;
  auto task = instance->run("mem", behavior);
  EXPECT_EQ(instance->cgroup()->memory.usage_bytes, base + (256ULL << 20));
  instance->kill(task->host_pid);
  EXPECT_EQ(instance->cgroup()->memory.usage_bytes, base);
}

TEST(Container, DestroyKillsTasksAndRemovesCgroup) {
  Fixture fixture;
  auto instance = fixture.runtime.create({});
  auto task = instance->run("app", {});
  const auto id = instance->id();
  EXPECT_TRUE(fixture.runtime.destroy(id));
  EXPECT_EQ(fixture.host.find_task(task->host_pid), nullptr);
  EXPECT_EQ(fixture.host.cgroups().find("/docker/" + id), nullptr);
  EXPECT_EQ(fixture.runtime.find(id), nullptr);
  EXPECT_FALSE(fixture.runtime.destroy(id));
}

TEST(Container, DestroyedContainerRefusesReads) {
  Fixture fixture;
  auto instance = fixture.runtime.create({});
  fixture.runtime.destroy(instance->id());
  // Matches pins the *reason*: kUnavailable also covers injected
  // transients, but this one must be the lifecycle refusal.
  EXPECT_TRUE(instance->read_file("/proc/uptime")
                  .status()
                  .Matches(StatusCode::kUnavailable, "not running"));
}

TEST(Container, VethAppearsAndDisappearsOnHost) {
  Fixture fixture;
  const auto base_devices = fixture.host.init_ns().net->devices.size();
  auto instance = fixture.runtime.create({});
  EXPECT_EQ(fixture.host.init_ns().net->devices.size(), base_devices + 1);
  const std::string veth = "veth" + instance->id().substr(0, 7);
  bool found = false;
  for (const auto& device : fixture.host.init_ns().net->devices) {
    if (device.name == veth) found = true;
  }
  EXPECT_TRUE(found);
  fixture.runtime.destroy(instance->id());
  EXPECT_EQ(fixture.host.init_ns().net->devices.size(), base_devices);
}

TEST(Container, DestroyErasesOnlyItsOwnVeth) {
  // Two live containers whose ids share the 7-hex prefix share a veth
  // name. Plant the twin's device: destroying the container must leave it.
  Fixture fixture;
  auto& devices = fixture.host.mutable_init_ns().net->devices;
  auto instance = fixture.runtime.create({});
  const std::string veth = "veth" + instance->id().substr(0, 7);
  devices.push_back({veth, true});
  const auto count_veth = [&] {
    return std::count_if(devices.begin(), devices.end(),
                         [&](const auto& device) { return device.name == veth; });
  };
  ASSERT_EQ(count_veth(), 2);
  fixture.runtime.destroy(instance->id());
  EXPECT_EQ(count_veth(), 1);
}

TEST(Container, DestroyKeepsTwinVethInCreationOrder) {
  // Host seed 202's id stream repeats a 7-hex prefix: containers #301 and
  // #1628 share a veth name. Keep them and #302 live, so init_net lists
  // twin, other, twin. Destroying the newer twin must remove the last of
  // the three, leaving the list as if it had never been created.
  kernel::Host host("c-host", hw::testbed_i7_6700(), 202);
  fs::PseudoFs filesystem(host);
  ContainerRuntime runtime(host, filesystem);
  const auto& devices = host.init_ns().net->devices;
  const std::size_t base = devices.size();
  std::shared_ptr<Container> older, other, newer;
  for (int i = 0; i <= 1628; ++i) {
    auto instance = runtime.create({});
    if (i == 301) older = instance;
    else if (i == 302) other = instance;
    else if (i == 1628) newer = instance;
    else runtime.destroy(instance->id());
  }
  ASSERT_EQ(newer->id().substr(0, 7), older->id().substr(0, 7));
  ASSERT_NE(newer->id(), older->id());
  ASSERT_EQ(devices.size(), base + 3);
  runtime.destroy(newer->id());
  ASSERT_EQ(devices.size(), base + 2);
  EXPECT_EQ(devices[base].name, "veth" + older->id().substr(0, 7));
  EXPECT_EQ(devices[base + 1].name, "veth" + other->id().substr(0, 7));
}

TEST(Container, CpusetCountsMatchRecountUnderChurn) {
  Fixture fixture;
  const int total = fixture.host.spec().num_cores;
  // Oracle: the allocation as it was computed before the runtime kept
  // per-core counts, by walking every live container's cpuset.
  const auto recount_pick = [&](int count) {
    if (count <= 0 || count >= total) return std::vector<int>{};
    std::vector<int> load(static_cast<std::size_t>(total), 0);
    for (const auto& existing : fixture.runtime.containers()) {
      for (int cpu : existing->cpuset()) ++load[static_cast<std::size_t>(cpu)];
    }
    std::vector<int> order(static_cast<std::size_t>(total));
    for (int c = 0; c < total; ++c) order[static_cast<std::size_t>(c)] = c;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return load[static_cast<std::size_t>(a)] <
             load[static_cast<std::size_t>(b)];
    });
    order.resize(static_cast<std::size_t>(count));
    std::sort(order.begin(), order.end());
    return order;
  };

  Rng rng(0xc0ffee);
  int creates = 0;
  int pinned = 0;
  for (int op = 0; op < 600; ++op) {
    const auto& live = fixture.runtime.containers();
    if (!live.empty() && (live.size() >= 24 || rng.bernoulli(0.45))) {
      const auto victim = rng.uniform_u64(0, live.size() - 1);
      ASSERT_TRUE(fixture.runtime.destroy(live[victim]->id()));
      continue;
    }
    ContainerConfig config;
    config.num_cpus = static_cast<int>(rng.uniform_i64(0, total + 1));
    const std::vector<int> expected = recount_pick(config.num_cpus);
    auto instance = fixture.runtime.create(config);
    ASSERT_EQ(instance->cpuset(), expected) << "op " << op;
    ++creates;
    if (!expected.empty()) ++pinned;
  }
  EXPECT_GT(creates, 300);
  EXPECT_GT(pinned, 200);
}

TEST(Container, LifecycleHookFires) {
  Fixture fixture;
  int created = 0;
  int destroyed = 0;
  fixture.runtime.set_lifecycle_hook(
      [&](Container&, bool is_create) { is_create ? ++created : ++destroyed; });
  auto instance = fixture.runtime.create({});
  EXPECT_EQ(created, 1);
  fixture.runtime.destroy(instance->id());
  EXPECT_EQ(destroyed, 1);
}

TEST(Container, PolicySwapAffectsExistingContainers) {
  Fixture fixture;
  auto instance = fixture.runtime.create({});
  EXPECT_TRUE(instance->read_file("/proc/uptime").is_ok());
  fixture.runtime.set_policy(fs::MaskingPolicy::paper_stage1());
  EXPECT_EQ(instance->read_file("/proc/uptime").code(),
            StatusCode::kPermissionDenied);
}

TEST(Container, IdsAreUniqueAndDeterministic) {
  Fixture a;
  Fixture b;
  EXPECT_EQ(a.runtime.create({})->id(), b.runtime.create({})->id());
  EXPECT_NE(a.runtime.create({})->id(), a.runtime.containers()[0]->id());
}

TEST(Container, CpuQuotaAppliedFromConfig) {
  Fixture fixture;
  ContainerConfig config;
  config.cpu_quota = 0.5;
  auto instance = fixture.runtime.create(config);
  EXPECT_DOUBLE_EQ(instance->cgroup()->cpu_quota, 0.5);
}

}  // namespace
}  // namespace cleaks::container
