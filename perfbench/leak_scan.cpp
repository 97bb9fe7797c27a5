// leak_scan: one CC1 server with more tenant containers (kTenants) than the
// pseudo-fs keeps per-viewer cache slots. Each round steps the server 1 s
// (the world moves, which invalidates caches), every tenant reads the
// Table II co-residence channels present in its view through
// Container::read_file_into, and one incremental CrossValidator::scan runs
// on 4 lanes. The read side of fs and leakage does the work, on a working
// set larger than the viewer cache.
//
// Each pass of the timed phase builds a fresh world (server + tenants + the
// cold scan: the set-up, whose median is reported) and runs kRoundsPerPass
// rounds on it, so every pass does the same work. The world step is
// Server::step, a request is one tenant read, and the scans count in the
// pass time.
#include <memory>
#include <string>
#include <vector>

#include "cloud/profiles.h"
#include "cloud/server.h"
#include "harness.h"
#include "leakage/channels.h"
#include "leakage/detector.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using namespace cleaks;

constexpr int kTenants = 24;  ///< > the 16 viewer cache slots per server
constexpr int kLanes = 4;
constexpr int kRoundsPerPass = 20;
constexpr std::uint64_t kRecordedSeed = 2017;
/// Digest of the first pass at the default seed, recorded at 1 lane.
constexpr std::uint64_t kRecordedDigest = 0x044221322f73ba73ULL;
/// Table I rows with a leaking path on CC1 (bench/table1_leakage_channels).
constexpr int kRecordedLeakingRows = 20;

struct Inputs {
  std::uint64_t server_seed = 0;
  std::vector<int> tenant_cpus;
};

Inputs make_inputs(std::uint64_t seed) {
  SeedStream stream(seed == kDefaultSeed ? kRecordedSeed : seed);
  Inputs inputs;
  inputs.server_seed = stream.next() | 1;
  for (int t = 0; t < kTenants; ++t) {
    inputs.tenant_cpus.push_back(1 + static_cast<int>(stream.below(4)));
  }
  return inputs;
}

struct Tenant {
  std::shared_ptr<container::Container> container;
  std::vector<std::string> paths;  ///< Table II channels present in its view
};

struct World {
  std::unique_ptr<cloud::Server> server;
  std::vector<Tenant> tenants;
  std::unique_ptr<leakage::CrossValidator> validator;

  void clear() {
    validator.reset();  // tears down its probe container first
    tenants.clear();
    server.reset();
  }
};

int leaking_rows(const std::vector<leakage::FileFinding>& findings) {
  int rows = 0;
  for (const auto& channel : leakage::table1_channels()) {
    for (const auto& finding : findings) {
      if (finding.cls == leakage::LeakClass::kLeaking &&
          glob_match(channel.path_glob, finding.path)) {
        ++rows;
        break;
      }
    }
  }
  return rows;
}

void add_findings(Digest& digest, const std::vector<leakage::FileFinding>& findings) {
  for (const auto& finding : findings) {
    digest.add_string(finding.path);
    digest.add_u64(static_cast<std::uint64_t>(finding.cls));
    digest.add_u64(finding.degraded ? 1 : 0);
  }
}

World build(const Inputs& inputs, int lanes) {
  World world;
  world.server = std::make_unique<cloud::Server>("leak-host", cloud::cc1(),
                                                 inputs.server_seed, 40 * kDay);
  const auto table2 = leakage::table2_channel_globs();
  std::string buffer;
  for (int t = 0; t < kTenants; ++t) {
    container::ContainerConfig config;
    config.num_cpus = inputs.tenant_cpus[static_cast<std::size_t>(t)];
    Tenant tenant;
    tenant.container = world.server->runtime().create(config);
    for (const auto& path : table2) {
      // Absent or masked in this tenant's view: not one of its channels.
      if (tenant.container->read_file_into(path, buffer) == StatusCode::kOk) {
        tenant.paths.push_back(path);
      }
    }
    world.tenants.push_back(std::move(tenant));
  }
  leakage::ScanOptions options;
  options.num_threads = lanes;
  world.validator = std::make_unique<leakage::CrossValidator>(*world.server, options);
  (void)world.validator->scan();  // cold: the full perturbation protocol
  return world;
}

struct Timing {
  HostProbe* probe = nullptr;  ///< timed runs only
  Samples step;  ///< Server::step
  Samples read;
  Samples scan;
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  int leaking_rows = -1;
  bool leaking_rows_stable = true;
};

struct Pass {
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

Pass run_pass(World& world, Tracer& tracer, Timing& timing,
              std::uint64_t& round_id) {
  Digest digest;
  std::string buffer;
  Pass pass;
  for (int r = 0; r < kRoundsPerPass; ++r, ++round_id) {
    // The probe runs between rounds, outside the pass's time.
    if (timing.probe != nullptr) timing.probe->maybe_sample();
    const auto round_start = Clock::now();
    Span round_span(tracer, "scan.round", round_id);
    auto t0 = Clock::now();
    {
      Span span(tracer, "cloud.server_step", round_id);
      world.server->step(kSecond);
    }
    timing.step.add(elapsed(timing.probe, t0));
    for (const Tenant& tenant : world.tenants) {
      for (const auto& path : tenant.paths) {
        const auto start = Clock::now();
        StatusCode status;
        {
          Span span(tracer, "fs.read", round_id);
          status = tenant.container->read_file_into(path, buffer);
        }
        timing.read.add(elapsed(timing.probe, start));
        ++timing.reads;
        if (status != StatusCode::kOk) ++timing.failed;
        digest.add_u64(static_cast<std::uint64_t>(status));
        digest.add_u64(buffer.size());
      }
    }
    t0 = Clock::now();
    std::vector<leakage::FileFinding> findings;
    {
      Span span(tracer, "leakage.scan", round_id);
      findings = world.validator->scan();
    }
    timing.scan.add(elapsed(timing.probe, t0));
    add_findings(digest, findings);
    const int rows = leaking_rows(findings);
    if (timing.leaking_rows >= 0 && rows != timing.leaking_rows) {
      timing.leaking_rows_stable = false;
    }
    timing.leaking_rows = rows;
    pass.seconds += elapsed(timing.probe, round_start);
  }
  pass.digest = digest.hash;
  return pass;
}

Pass first_pass(const Inputs& inputs, int lanes) {
  Tracer off(false);
  Timing timing;
  std::uint64_t round_id = 0;
  World world = build(inputs, lanes);
  const Pass pass = run_pass(world, off, timing, round_id);
  world.clear();
  return pass;
}

void check_rows(const Timing& timing, WorkloadRun& run) {
  if (!timing.leaking_rows_stable) run.fail("leaking Table I rows changed between scans");
  if (timing.leaking_rows != kRecordedLeakingRows) {
    run.fail("leaking Table I rows on CC1: " + std::to_string(timing.leaking_rows) +
             ", recorded " + std::to_string(kRecordedLeakingRows));
  }
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

WorkloadRun run_leak_scan(const RunOptions& options) {
  WorkloadRun run;
  const Inputs inputs = make_inputs(options.seed);
  if (options.seed != kDefaultSeed &&
      first_pass(make_inputs(kDefaultSeed), kLanes).digest != kRecordedDigest) {
    run.fail("leak_scan: the recorded inputs no longer give the recorded digest");
  }
  const std::uint64_t reference = first_pass(inputs, 1).digest;

  if (options.trace) {
    const Pass untraced = first_pass(inputs, kLanes);
    Tracer tracer(true);
    Timing timing;
    std::uint64_t round_id = 0;
    World world = build(inputs, kLanes);
    const CounterSnapshot before = CounterSnapshot::take();
    const Pass traced = run_pass(world, tracer, timing, round_id);
    const CounterSnapshot after = CounterSnapshot::take();
    world.clear();
    check_digest(options, traced.digest, reference, kRecordedDigest, run);
    if (untraced.digest != reference) run.fail("leak_scan untraced digest differs");
    check_rows(timing, run);
    run.attempted = timing.reads;
    run.failed = timing.failed;
    const auto count = [&](const char* name) { return delta(before, after, name); };
    auto& layers = run.layers;
    layers["cloud.server_step_us"] = tracer.mean_self_us("cloud.server_step");
    layers["fs.read_us"] = tracer.mean_self_us("fs.read");
    layers["fs.viewer_cache_hit_ratio"] =
        ratio(count("fs_viewer_cache_hits_total"),
              count("fs_viewer_cache_hits_total") + count("fs_viewer_cache_misses_total"));
    layers["fs.render_cache_hit_ratio"] =
        ratio(count("fs_render_cache_hits_total"),
              count("fs_render_cache_hits_total") + count("fs_render_cache_misses_total"));
    layers["fs.viewer_cache_invalidations"] =
        static_cast<double>(count("fs_viewer_cache_invalidations_total"));
    layers["fs.reads_denied"] = static_cast<double>(count("fs_reads_denied_total"));
    layers["leakage.scan_us"] = tracer.mean_self_us("leakage.scan");
    layers["leakage.paths_reused_ratio"] =
        ratio(count("scan_paths_reused_total"), count("scan_paths_total"));
    layers["leakage.renders_avoided"] =
        static_cast<double>(count("scan_renders_avoided_total"));
    layers["leakage.probe_epochs"] = static_cast<double>(count("scan_probe_epochs_total"));
    layers["leakage.undecided"] = static_cast<double>(count("scan_undecided_total"));
    layers["leakage.reads_retried"] = static_cast<double>(count("scan_reads_retried_total"));
    add_pool_layers(before, after, layers);
    run.detail["traced_pass_s"] = traced.seconds;
    run.detail["untraced_pass_s"] = untraced.seconds;
    finish_trace(options, tracer, traced.seconds, untraced.seconds, run);
    return run;
  }

  // Every pass builds its own world (about 10 ms) and runs kRoundsPerPass
  // rounds on it, so all passes do the same work and the builds are spread
  // over the run as the timed calls are.
  Tracer off(false);
  Timing timing;
  timing.probe = &run.probe;
  int passes = 0;
  const auto start = Clock::now();
  do {
    const auto build_start = Clock::now();
    World world = build(inputs, kLanes);
    run.setup.add(elapsed(&run.probe, build_start));
    std::uint64_t round_id = 0;
    const Pass pass = run_pass(world, off, timing, round_id);
    world.clear();
    run.pass.add(pass.seconds);
    if (passes == 0) {
      check_digest(options, pass.digest, reference, kRecordedDigest, run);
    } else if (pass.digest != run.digest) {
      run.fail("leak_scan pass digest changed between identical passes");
    }
    ++passes;
  } while (seconds_since(start) < options.seconds);
  check_rows(timing, run);

  run.attempted = timing.reads;
  run.failed = timing.failed;
  run.wall_s = run.pass.median();
  run.step = timing.step;
  run.op = timing.read;
  run.ops = static_cast<double>(timing.reads);
  run.ops_seconds = run.pass.sum();
  run.detail["scan_ms_p50"] = timing.scan.quantile(0.5) * 1e3;
  run.detail["scan_ms_p99"] = timing.scan.quantile(0.99) * 1e3;
  run.detail["leaking_rows"] = timing.leaking_rows;
  return run;
}

}  // namespace perfbench
