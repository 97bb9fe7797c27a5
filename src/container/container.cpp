#include "container/container.h"

#include <algorithm>

#include "obs/events.h"

namespace cleaks::container {

std::shared_ptr<kernel::Task> Container::run(
    const std::string& comm, const kernel::TaskBehavior& behavior) {
  kernel::Host::SpawnOptions options;
  options.comm = comm;
  options.behavior = behavior;
  options.container_id = id_;
  options.cgroup = cgroup_;
  options.ns = &ns_;
  options.allowed_cpus = cgroup_->cpuset.cpus;
  auto task = host_->spawn_task(options);
  tasks_.push_back(task);
  cgroup_->memory.usage_bytes += behavior.rss_bytes;
  return task;
}

bool Container::kill(kernel::HostPid pid) {
  auto it = std::find_if(tasks_.begin(), tasks_.end(), [&](const auto& task) {
    return task->host_pid == pid;
  });
  if (it == tasks_.end()) return false;
  const std::uint64_t rss = (*it)->behavior.rss_bytes;
  cgroup_->memory.usage_bytes =
      cgroup_->memory.usage_bytes > rss ? cgroup_->memory.usage_bytes - rss : 0;
  tasks_.erase(it);
  return host_->kill_task(pid);
}

Result<std::string> Container::read_file(const std::string& path) const {
  if (!alive_) {
    return {StatusCode::kUnavailable, "container is not running"};
  }
  fs::ViewContext ctx;
  ctx.viewer = init_task_.get();
  ctx.policy = policy_;
  return fs_->read(path, ctx);
}

StatusCode Container::read_file_into(std::string_view path,
                                     std::string& out) const {
  if (!alive_) {
    out.clear();
    return StatusCode::kUnavailable;
  }
  fs::ViewContext ctx;
  ctx.viewer = init_task_.get();
  ctx.policy = policy_;
  return fs_->read_into(path, ctx, out);
}

ContainerRuntime::ContainerRuntime(kernel::Host& host, fs::PseudoFs& fs,
                                   fs::MaskingPolicy policy)
    : host_(&host),
      fs_(&fs),
      policy_(std::move(policy)),
      core_load_(static_cast<std::size_t>(host.spec().num_cores), 0),
      id_rng_(host.fork_rng("container-ids")) {}

std::vector<int> ContainerRuntime::allocate_cpuset(int count) const {
  const int total = host_->spec().num_cores;
  if (count <= 0 || count >= total) return {};  // empty = all cores
  std::vector<int> order(static_cast<std::size_t>(total));
  for (int c = 0; c < total; ++c) order[static_cast<std::size_t>(c)] = c;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return core_load_[static_cast<std::size_t>(a)] <
           core_load_[static_cast<std::size_t>(b)];
  });
  order.resize(static_cast<std::size_t>(count));
  std::sort(order.begin(), order.end());
  return order;
}

std::shared_ptr<Container> ContainerRuntime::create(
    const ContainerConfig& config) {
  auto instance = std::make_shared<Container>();
  instance->id_ = id_rng_.hex_string(12);
  instance->host_ = host_;
  instance->fs_ = fs_;
  instance->policy_ = &policy_;

  const std::string cgroup_path = "/docker/" + instance->id_;
  instance->cgroup_ = host_->cgroups().create(cgroup_path);
  instance->cgroup_->cpuset.cpus = allocate_cpuset(config.num_cpus);
  for (int cpu : instance->cgroup_->cpuset.cpus) {
    ++core_load_[static_cast<std::size_t>(cpu)];
  }
  instance->cgroup_->memory.limit_bytes = config.memory_limit_bytes;
  instance->cgroup_->cpu_quota = config.cpu_quota;
  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    const SimTime t = host_->now();
    const std::uint32_t source = host_->event_source();
    bus.emit(obs::EventKind::kCgroupMutation, t, source,
             static_cast<std::uint64_t>(obs::CgroupField::kCpusetCpus),
             instance->cgroup_->cpuset.cpus.size());
    bus.emit(obs::EventKind::kCgroupMutation, t, source,
             static_cast<std::uint64_t>(obs::CgroupField::kMemoryLimit),
             instance->cgroup_->memory.limit_bytes);
    // Quota is a fraction (-1 = unlimited); encode as milli-cores with
    // ~0 for unlimited so the payload stays an unsigned integer.
    const double quota = instance->cgroup_->cpu_quota;
    bus.emit(obs::EventKind::kCgroupMutation, t, source,
             static_cast<std::uint64_t>(obs::CgroupField::kCpuQuota),
             quota < 0.0 ? ~0ULL
                         : static_cast<std::uint64_t>(quota * 1000.0));
  }

  instance->ns_ = host_->namespaces().clone_for_container(
      host_->init_ns(), instance->id_, cgroup_path, config.clone_flags);

  // Host side of the veth pair shows up in init_net — and therefore in the
  // leaking net_prio.ifpriomap, whose random per-host device names make the
  // channel a unique host fingerprint (Table II rank 2).
  host_->mutable_init_ns().net->devices.push_back(
      {"veth" + instance->id_.substr(0, 7), true});

  // The init process (pid 1 inside the PID namespace): an idle shell.
  kernel::Host::SpawnOptions init_options;
  init_options.comm = "sh";
  init_options.behavior.duty_cycle = 0.0;
  init_options.behavior.rss_bytes = 4ULL << 20;
  init_options.container_id = instance->id_;
  init_options.cgroup = instance->cgroup_;
  init_options.ns = &instance->ns_;
  init_options.allowed_cpus = instance->cgroup_->cpuset.cpus;
  instance->init_task_ = host_->spawn_task(init_options);
  instance->tasks_.push_back(instance->init_task_);
  instance->cgroup_->memory.usage_bytes +=
      init_options.behavior.rss_bytes;

  containers_.push_back(instance);
  if (hook_) hook_(*instance, true);
  return instance;
}

bool ContainerRuntime::destroy(const std::string& id) {
  auto it = std::find_if(
      containers_.begin(), containers_.end(),
      [&](const auto& instance) { return instance->id() == id; });
  if (it == containers_.end()) return false;
  auto instance = *it;
  if (hook_) hook_(*instance, false);
  for (int cpu : instance->cgroup_->cpuset.cpus) {
    --core_load_[static_cast<std::size_t>(cpu)];
  }
  // Kill every task, then remove the cgroup.
  while (!instance->tasks_.empty()) {
    instance->kill(instance->tasks_.back()->host_pid);
  }
  host_->cgroups().remove(instance->cgroup_->path());
  // Erase exactly this container's veth. Live containers whose ids share
  // the 7-hex prefix share the device name, and their devices sit in
  // creation order, so skip one match per such container created earlier.
  auto& devices = host_->mutable_init_ns().net->devices;
  const std::string veth_name = "veth" + instance->id_.substr(0, 7);
  auto earlier = std::count_if(
      containers_.begin(), it, [&](const auto& other) {
        return other->id_.compare(0, 7, instance->id_, 0, 7) == 0;
      });
  for (auto device = devices.begin(); device != devices.end(); ++device) {
    if (device->name == veth_name && earlier-- == 0) {
      devices.erase(device);
      break;
    }
  }
  // Release the destroyed viewer's cached renders. Hygiene, not
  // correctness: its PID-namespace id is incarnation-unique, so no future
  // viewer could ever match the stale slots anyway.
  if (instance->ns_.pid != nullptr) {
    fs_->drop_viewer_entries(instance->ns_.pid->id);
  }
  instance->alive_ = false;
  containers_.erase(it);
  return true;
}

std::shared_ptr<Container> ContainerRuntime::find(const std::string& id) const {
  auto it = std::find_if(
      containers_.begin(), containers_.end(),
      [&](const auto& instance) { return instance->id() == id; });
  return it == containers_.end() ? nullptr : *it;
}

}  // namespace cleaks::container
