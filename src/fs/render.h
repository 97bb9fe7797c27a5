// Pseudo-file content generators. Each function renders one file from host
// kernel state given a RenderContext. Generators are *pure*: the same state
// and context always produce the same bytes (the differential analyzer
// depends on this, just as real procfs reads are deterministic snapshots),
// and they never mutate host state — which is what makes concurrent reads
// of a quiescent host safe.
//
// Generators *append* to a caller-provided buffer instead of returning a
// fresh string: the cross-validation scanner reads hundreds of paths per
// pass and reuses one buffer for all of them, so the render fast path
// performs no per-line or per-file temporary allocations.
#pragma once

#include <string>
#include <string_view>

#include "fs/view.h"

namespace cleaks::fs::render {

// ---- procfs: leaking channels of Table I ----
void uptime(const RenderContext& ctx, std::string& out);
void version(const RenderContext& ctx, std::string& out);
void stat(const RenderContext& ctx, std::string& out);
void meminfo(const RenderContext& ctx, std::string& out);
void loadavg(const RenderContext& ctx, std::string& out);
void interrupts(const RenderContext& ctx, std::string& out);
void softirqs(const RenderContext& ctx, std::string& out);
void cpuinfo(const RenderContext& ctx, std::string& out);
void schedstat(const RenderContext& ctx, std::string& out);
void zoneinfo(const RenderContext& ctx, std::string& out);
void locks(const RenderContext& ctx, std::string& out);
void timer_list(const RenderContext& ctx, std::string& out);
void sched_debug(const RenderContext& ctx, std::string& out);
void modules(const RenderContext& ctx, std::string& out);
void boot_id(const RenderContext& ctx, std::string& out);
void entropy_avail(const RenderContext& ctx, std::string& out);
void random_poolsize(const RenderContext& ctx, std::string& out);
void fs_file_nr(const RenderContext& ctx, std::string& out);
void fs_inode_nr(const RenderContext& ctx, std::string& out);
void fs_dentry_state(const RenderContext& ctx, std::string& out);
void max_newidle_lb_cost(const RenderContext& ctx, int cpu, int domain,
                         std::string& out);
void ext4_mb_groups(const RenderContext& ctx, std::string& out);

// ---- procfs: properly namespaced files (isolation contrast cases) ----
/// /proc/<pid>/{status,stat,cmdline,sched} for a resolved task. The pid
/// shown is always the viewer's PID-namespace pid.
void pid_file(const RenderContext& ctx, const kernel::Task& task,
              std::string_view leaf, std::string& out);
void self_cgroup(const RenderContext& ctx, std::string& out);
void sys_hostname(const RenderContext& ctx, std::string& out);
void net_dev(const RenderContext& ctx, std::string& out);
void self_status(const RenderContext& ctx, std::string& out);

// ---- sysfs ----
void ifpriomap(const RenderContext& ctx, std::string& out);  ///< case study I bug
void numastat(const RenderContext& ctx, int node, std::string& out);
void node_vmstat(const RenderContext& ctx, int node, std::string& out);
void node_meminfo(const RenderContext& ctx, int node, std::string& out);
void cpuidle_name(const RenderContext& ctx, int cpu, int state,
                  std::string& out);
void cpuidle_usage(const RenderContext& ctx, int cpu, int state,
                   std::string& out);
void cpuidle_time(const RenderContext& ctx, int cpu, int state,
                  std::string& out);
/// sensor 1 = package, sensor k>=2 = core k-2.
void coretemp_input(const RenderContext& ctx, int sensor, std::string& out);
void rapl_domain_name(const RenderContext& ctx, int package,
                      hw::RaplDomainKind domain, std::string& out);
void rapl_energy_uj(const RenderContext& ctx, int package,
                    hw::RaplDomainKind domain, std::string& out);
void rapl_max_energy_range_uj(const RenderContext& ctx, int package,
                              hw::RaplDomainKind domain, std::string& out);

}  // namespace cleaks::fs::render
