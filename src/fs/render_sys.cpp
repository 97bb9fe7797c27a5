#include <algorithm>
#include <charconv>
#include <cstdint>

#include "fs/render.h"
#include "util/strings.h"

namespace cleaks::fs::render {

void ifpriomap(const RenderContext& ctx, std::string& out) {
  // Case study I (§III-B1): the read handler of net_prio.ifpriomap calls
  // for_each_netdev_rcu(&init_net, ...) — it iterates the *host's* device
  // list regardless of the reader's NET namespace. We reproduce the bug by
  // rendering the init namespace's devices even for containerized viewers.
  const auto& init_net = *ctx.host.init_ns().net;
  const auto* prio_map =
      ctx.viewer != nullptr && ctx.viewer->cgroup != nullptr
          ? &ctx.viewer->cgroup->net_prio.ifpriomap
          : nullptr;
  for (const auto& device : init_net.devices) {
    int priority = 0;
    if (prio_map != nullptr) {
      if (auto it = prio_map->find(device.name); it != prio_map->end()) {
        priority = it->second;
      }
    }
    strappendf(out, "%s %d\n", device.name.c_str(), priority);
  }
}

void numastat(const RenderContext& ctx, int node, std::string& out) {
  const auto& numa_nodes = ctx.host.state().numa;
  if (node < 0 || static_cast<std::size_t>(node) >= numa_nodes.size()) {
    return;
  }
  const auto& n = numa_nodes[static_cast<std::size_t>(node)];
  strappendf(out,
             "numa_hit %llu\nnuma_miss %llu\nnuma_foreign %llu\n"
             "interleave_hit %llu\nlocal_node %llu\nother_node %llu\n",
             (unsigned long long)n.numa_hit, (unsigned long long)n.numa_miss,
             (unsigned long long)n.numa_foreign,
             (unsigned long long)n.interleave_hit,
             (unsigned long long)n.local_node,
             (unsigned long long)n.other_node);
}

void node_vmstat(const RenderContext& ctx, int node, std::string& out) {
  const auto& ks = ctx.host.state();
  const int nodes = std::max(1, ctx.host.spec().numa_nodes);
  if (node < 0 || node >= nodes) return;
  strappendf(out,
             "nr_free_pages %llu\nnr_active_anon %llu\nnr_inactive_anon %llu\n"
             "nr_dirty %llu\nnr_writeback 0\n",
             (unsigned long long)(ks.mem_free_kb / 4 / nodes),
             (unsigned long long)(ks.active_kb / 4 / nodes),
             (unsigned long long)(ks.inactive_kb / 4 / nodes),
             (unsigned long long)(ks.dirty_kb / 4 / nodes));
}

void node_meminfo(const RenderContext& ctx, int node, std::string& out) {
  const auto& ks = ctx.host.state();
  const int nodes = std::max(1, ctx.host.spec().numa_nodes);
  if (node < 0 || node >= nodes) return;
  strappendf(out,
             "Node %d MemTotal:       %8llu kB\n"
             "Node %d MemFree:        %8llu kB\n"
             "Node %d MemUsed:        %8llu kB\n"
             "Node %d Active:         %8llu kB\n"
             "Node %d Inactive:       %8llu kB\n",
             node, (unsigned long long)(ks.mem_total_kb / nodes), node,
             (unsigned long long)(ks.mem_free_kb / nodes), node,
             (unsigned long long)((ks.mem_total_kb - ks.mem_free_kb) / nodes),
             node, (unsigned long long)(ks.active_kb / nodes), node,
             (unsigned long long)(ks.inactive_kb / nodes));
}

void cpuidle_name(const RenderContext& ctx, int cpu, int state,
                  std::string& out) {
  (void)cpu;
  if (state < 0 || state >= ctx.host.cpuidle().num_states()) return;
  out += ctx.host.cpuidle().state_spec(state).name;
  out += '\n';
}

void cpuidle_usage(const RenderContext& ctx, int cpu, int state,
                   std::string& out) {
  strappendf(out, "%llu\n",
             (unsigned long long)ctx.host.cpuidle().usage(cpu, state));
}

void cpuidle_time(const RenderContext& ctx, int cpu, int state,
                  std::string& out) {
  strappendf(out, "%llu\n",
             (unsigned long long)ctx.host.cpuidle().time_us(cpu, state));
}

void coretemp_input(const RenderContext& ctx, int sensor, std::string& out) {
  const auto& thermal = ctx.host.thermal();
  if (sensor <= 1) {
    // Package sensor: the hottest core.
    std::int64_t max_temp = 0;
    for (int core = 0; core < thermal.num_cores(); ++core) {
      max_temp = std::max(max_temp, thermal.temp_millic(core));
    }
    strappendf(out, "%lld\n", (long long)max_temp);
    return;
  }
  const int core = sensor - 2;
  if (core >= thermal.num_cores()) return;
  strappendf(out, "%lld\n", (long long)thermal.temp_millic(core));
}

void rapl_domain_name(const RenderContext& ctx, int package,
                      hw::RaplDomainKind domain, std::string& out) {
  (void)ctx;
  switch (domain) {
    case hw::RaplDomainKind::kPackage:
      strappendf(out, "package-%d\n", package);
      return;
    case hw::RaplDomainKind::kCore:
      out += "core\n";
      return;
    case hw::RaplDomainKind::kDram:
      out += "dram\n";
      return;
  }
}

namespace {

/// The "%llu\n" line energy_uj reads back, without a printf call: every
/// attacker sample renders one.
void append_counter_line(std::string& out, std::uint64_t value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  out.append(digits, end);
  out.push_back('\n');
}

}  // namespace

void rapl_energy_uj(const RenderContext& ctx, int package,
                    hw::RaplDomainKind domain, std::string& out) {
  // The defense's power-based namespace interposes here; without it the
  // host-wide counter leaks into every container (§III-B case study II).
  if (ctx.rapl != nullptr) {
    append_counter_line(
        out, ctx.rapl->energy_uj(ctx.host, ctx.viewer, package, domain));
    return;
  }
  const auto& packages = ctx.host.rapl();
  if (package < 0 || static_cast<std::size_t>(package) >= packages.size()) {
    return;
  }
  const auto& pkg = packages[static_cast<std::size_t>(package)];
  std::uint64_t value = 0;
  switch (domain) {
    case hw::RaplDomainKind::kPackage:
      value = pkg.package().energy_uj();
      break;
    case hw::RaplDomainKind::kCore:
      value = pkg.core().energy_uj();
      break;
    case hw::RaplDomainKind::kDram:
      value = pkg.dram().energy_uj();
      break;
  }
  append_counter_line(out, value);
}

void rapl_max_energy_range_uj(const RenderContext& ctx, int package,
                              hw::RaplDomainKind domain, std::string& out) {
  (void)domain;
  const auto& packages = ctx.host.rapl();
  if (package < 0 || static_cast<std::size_t>(package) >= packages.size()) {
    return;
  }
  strappendf(out, "%llu\n",
             (unsigned long long)packages[static_cast<std::size_t>(package)]
                 .package()
                 .max_energy_range_uj());
}

}  // namespace cleaks::fs::render
