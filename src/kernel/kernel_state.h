// Global (non-namespaced) kernel state.
//
// Everything in this struct is system-wide: it is the data that the Table I
// leakage channels read. The fs module renders it into procfs/sysfs text;
// whether a given pseudo file filters it by the viewer's namespaces is
// exactly what the leakage detector tests.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace cleaks::kernel {

/// Per-cpu time accounting in USER_HZ jiffies, as /proc/stat reports.
struct CpuTimes {
  std::uint64_t user = 0;
  std::uint64_t nice = 0;
  std::uint64_t system = 0;
  std::uint64_t idle = 0;
  std::uint64_t iowait = 0;
  std::uint64_t irq = 0;
  std::uint64_t softirq = 0;
  std::uint64_t steal = 0;

  [[nodiscard]] CpuTimes operator+(const CpuTimes& o) const noexcept {
    return {user + o.user, nice + o.nice,       system + o.system,
            idle + o.idle, iowait + o.iowait,   irq + o.irq,
            softirq + o.softirq, steal + o.steal};
  }
};

/// Behavioural class of an interrupt line, precomputed at construction so
/// the per-tick counter update dispatches on an enum instead of re-comparing
/// label strings every tick (same counters, colder strings).
enum class IrqKind {
  kLocalTimer,  ///< "LOC" and the IO-APIC timer "0": one per cpu per jiffy
  kNic,         ///< "25": events scale with IO rate, land on cpu0
  kDisk,        ///< "27": likewise
  kResched,     ///< "RES": follows scheduler migrations
  kOther,       ///< static lines (ehci, CAL, TLB)
};

/// One interrupt line of /proc/interrupts.
struct IrqLine {
  std::string label;  ///< "0", "LOC", "RES", ...
  std::string description;
  std::vector<std::uint64_t> per_cpu;
  IrqKind kind = IrqKind::kOther;
};

/// Softirq kinds in /proc/softirqs order.
constexpr std::array<const char*, 10> kSoftirqNames = {
    "HI",        "TIMER", "NET_TX",  "NET_RX", "BLOCK",
    "IRQ_POLL",  "TASKLET", "SCHED", "HRTIMER", "RCU"};

/// What drives a softirq counter, the softirq analogue of IrqKind.
enum class SoftirqKind {
  kStatic,      ///< HI, NET_TX, IRQ_POLL, TASKLET: never raised here
  kJiffy,       ///< TIMER, SCHED: one per cpu per jiffy
  kHalfJiffy,   ///< RCU: one per cpu per two jiffies
  kTenthJiffy,  ///< HRTIMER: one per cpu per ten jiffies
  kNetRx,       ///< NET_RX: one per NIC event, on cpu0
  kBlock,       ///< BLOCK: one per disk event, on cpu0
};

/// The kind of each softirq, in kSoftirqNames order.
constexpr std::array<SoftirqKind, kSoftirqNames.size()> kSoftirqKinds = {
    SoftirqKind::kStatic,    SoftirqKind::kJiffy,  SoftirqKind::kStatic,
    SoftirqKind::kNetRx,     SoftirqKind::kBlock,  SoftirqKind::kStatic,
    SoftirqKind::kStatic,    SoftirqKind::kJiffy,  SoftirqKind::kTenthJiffy,
    SoftirqKind::kHalfJiffy};

struct Module {
  std::string name;
  std::uint64_t size = 0;
  int refcount = 0;
};

/// NUMA counters per node (/sys/devices/system/node/node#/numastat).
struct NumaStats {
  std::uint64_t numa_hit = 0;
  std::uint64_t numa_miss = 0;
  std::uint64_t numa_foreign = 0;
  std::uint64_t interleave_hit = 0;
  std::uint64_t local_node = 0;
  std::uint64_t other_node = 0;
};

/// Scheduler statistics per cpu (/proc/schedstat).
struct SchedStat {
  std::uint64_t sched_yield = 0;
  std::uint64_t schedule_called = 0;
  std::uint64_t sched_goidle = 0;
  std::uint64_t ttwu_count = 0;
  std::uint64_t ttwu_local = 0;
  std::uint64_t run_time_ns = 0;
  std::uint64_t wait_time_ns = 0;
  std::uint64_t timeslices = 0;
};

struct KernelState {
  // --- identity / static ---
  std::string boot_id;          ///< /proc/sys/kernel/random/boot_id
  std::string kernel_version = "4.7.0";
  std::string distribution = "Ubuntu 16.04";
  std::string gcc_version = "5.4.0 20160609";
  SimTime boot_time = 0;        ///< simulated instant this host booted
  std::vector<Module> modules;

  // --- accumulators ---
  std::uint64_t uptime_ns = 0;
  std::uint64_t idle_time_ns = 0;  ///< summed over all cores
  std::vector<CpuTimes> cpu_times; ///< per core
  std::vector<IrqLine> irqs;
  /// softirqs[type][cpu]
  std::vector<std::vector<std::uint64_t>> softirqs;
  std::uint64_t total_interrupts = 0;
  std::uint64_t total_ctxt_switches = 0;
  std::uint64_t processes_forked = 0;
  int procs_running = 0;
  int procs_blocked = 0;
  std::vector<SchedStat> schedstat;  ///< per core
  std::vector<NumaStats> numa;       ///< per node

  // --- memory (kB) ---
  std::uint64_t mem_total_kb = 0;
  std::uint64_t mem_free_kb = 0;
  std::uint64_t buffers_kb = 0;
  std::uint64_t cached_kb = 0;
  std::uint64_t slab_kb = 0;
  std::uint64_t active_kb = 0;
  std::uint64_t inactive_kb = 0;
  std::uint64_t dirty_kb = 0;

  // --- loadavg ---
  double load1 = 0.0;
  double load5 = 0.0;
  double load15 = 0.0;

  // --- RNG subsystem ---
  int entropy_avail = 3000;
  int poolsize = 4096;

  // --- VFS counters ---
  std::uint64_t file_nr = 1216;
  std::uint64_t file_max = 1620437;
  std::uint64_t inode_nr = 180000;
  std::uint64_t inode_free = 2000;
  std::uint64_t dentry_nr = 210000;
  std::uint64_t dentry_unused = 190000;
  int dentry_age_limit = 45;

  // --- ext4 (per block group free extents, backing mb_groups) ---
  std::vector<std::uint64_t> ext4_group_free_blocks;

  // --- scheduler domain tuning (/proc/sys/kernel/sched_domain) ---
  /// max_newidle_lb_cost per (cpu, domain); updated by load balancing.
  std::vector<std::array<std::uint64_t, 2>> sched_domain_lb_cost;

  /// Standard module list for an Ubuntu 16.04 / 4.7 host.
  static std::vector<Module> default_modules(bool has_rapl, bool has_coretemp);
};

}  // namespace cleaks::kernel
