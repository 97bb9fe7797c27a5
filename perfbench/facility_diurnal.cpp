// facility_diurnal: a 4,000-server facility (40 racks x 100) stepped at 1 s
// on 4 lanes. 10% of the servers carry the diurnal benign load, 10% an
// on/off load with staggered phases (so the TimerWheel wakes servers), and
// the rest sit idle and parked. The sparse scheduler, the wheel, the rack
// power folds, the ThreadPool lane split and the large-facility build
// (setup_s) do the work.
//
// Set-up (three builds, median reported) ends after the first step, the
// O(N) parking edge. The timed phase then steps one world in passes of
// kPassSteps; every Datacenter::step is timed.
#include <memory>
#include <utility>
#include <vector>

#include "cloud/datacenter.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace cleaks;

constexpr int kRacks = 40;
constexpr int kServersPerRack = 100;
constexpr int kServers = kRacks * kServersPerRack;
constexpr int kBusyServers = kServers / 10;
constexpr int kOnOffServers = kServers / 10;
constexpr int kLanes = 4;
constexpr int kPassSteps = 300;
constexpr int kSetupBuilds = 3;
constexpr std::uint64_t kRecordedDcSeed = 4000;
/// Digest of the first pass at kRecordedDcSeed, recorded at 1 lane.
constexpr std::uint64_t kRecordedDigest = 0xa129f61f5768f79aULL;

struct Inputs {
  std::uint64_t dc_seed = 0;
  std::vector<int> onoff_servers;
  std::vector<SimDuration> onoff_phase;
};

Inputs make_inputs(std::uint64_t seed) {
  SeedStream stream(seed);
  Inputs inputs;
  inputs.dc_seed = seed == kDefaultSeed ? kRecordedDcSeed : stream.next() | 1;
  // On/off servers: a seeded sample of the idle ones (the busy servers are
  // the first kBusyServers, chosen by the Datacenter itself).
  std::vector<int> idle;
  for (int i = kBusyServers; i < kServers; ++i) idle.push_back(i);
  const workload::OnOffParams defaults;
  const auto cycle =
      static_cast<std::uint64_t>(defaults.on_duration + defaults.off_duration);
  for (int k = 0; k < kOnOffServers; ++k) {
    const std::size_t pick =
        k + stream.below(static_cast<std::uint64_t>(idle.size() - k));
    std::swap(idle[static_cast<std::size_t>(k)], idle[pick]);
    inputs.onoff_servers.push_back(idle[static_cast<std::size_t>(k)]);
    // Staggered phases, whole seconds so wake-ups land on step boundaries.
    inputs.onoff_phase.push_back(
        static_cast<SimDuration>(stream.below(cycle / kSecond)) * kSecond);
  }
  return inputs;
}

std::unique_ptr<cloud::Datacenter> build(const Inputs& inputs, int lanes) {
  cloud::DatacenterConfig config;
  config.num_racks = kRacks;
  config.servers_per_rack = kServersPerRack;
  config.rack_breaker.rated_w = 1e9;  // a stepping study, not a breaker one
  config.benign_load = true;
  config.benign_load_servers = kBusyServers;
  config.seed = inputs.dc_seed;
  config.num_threads = lanes;
  auto dc = std::make_unique<cloud::Datacenter>(config);
  for (std::size_t k = 0; k < inputs.onoff_servers.size(); ++k) {
    workload::OnOffParams params;
    params.phase = inputs.onoff_phase[k];
    dc->server(inputs.onoff_servers[k]).enable_onoff_load(params);
  }
  dc->step(kSecond);  // the parking edge: every idle server proves it coasts
  return dc;
}

struct Pass {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  double parked_frac_sum = 0.0;
};

/// `steps` and `probe` are given on timed passes only.
Pass run_pass(cloud::Datacenter& dc, Tracer& tracer, Samples* steps,
              HostProbe* probe, std::uint64_t& step_id) {
  Pass pass;
  Digest digest;
  for (int i = 0; i < kPassSteps; ++i, ++step_id) {
    const auto start = Clock::now();
    {
      Span span(tracer, "cloud.dc_step", step_id);
      dc.step(kSecond);
    }
    const double seconds = elapsed(probe, start);
    pass.seconds += seconds;
    if (steps != nullptr) steps->add(seconds);
    if (probe != nullptr) probe->maybe_sample();
    digest.add_double(dc.total_power_w());
    for (int rack = 0; rack < kRacks; ++rack) {
      digest.add_double(dc.rack_power_w(rack));
    }
    pass.parked_frac_sum +=
        static_cast<double>(dc.sleeping_servers()) / dc.num_servers();
  }
  pass.digest = digest.hash;
  return pass;
}

/// The first pass's digest on a 1-lane world of the same inputs.
std::uint64_t reference_digest(const Inputs& inputs) {
  Tracer off(false);
  std::uint64_t step_id = 0;
  auto dc = build(inputs, 1);
  return run_pass(*dc, off, nullptr, nullptr, step_id).digest;
}

}  // namespace

WorkloadRun run_facility_diurnal(const RunOptions& options) {
  WorkloadRun run;
  const Inputs inputs = make_inputs(options.seed);
  if (options.seed != kDefaultSeed &&
      reference_digest(make_inputs(kDefaultSeed)) != kRecordedDigest) {
    run.fail("facility_diurnal: the recorded inputs no longer give the recorded digest");
  }
  const std::uint64_t reference = reference_digest(inputs);

  if (options.trace) {
    Tracer off(false);
    std::uint64_t untraced_id = 0;
    double untraced_s = 0.0;
    {
      auto dc = build(inputs, kLanes);
      untraced_s = run_pass(*dc, off, nullptr, nullptr, untraced_id).seconds;
    }
    auto dc = build(inputs, kLanes);
    Tracer tracer(true);
    std::uint64_t step_id = 0;
    const CounterSnapshot before = CounterSnapshot::take();
    const Pass traced = run_pass(*dc, tracer, nullptr, nullptr, step_id);
    const CounterSnapshot after = CounterSnapshot::take();
    check_digest(options, traced.digest, reference, kRecordedDigest, run);
    run.attempted = kPassSteps;
    auto& layers = run.layers;
    layers["cloud.dc_step_us"] = tracer.mean_self_us("cloud.dc_step");
    layers["cloud.parked_frac"] = traced.parked_frac_sum / kPassSteps;
    layers["sim.active_server_steps"] = static_cast<double>(
        delta(before, after, "engine_active_server_steps_total"));
    layers["sim.coasted_sim_s"] = static_cast<double>(
        delta(before, after, "engine_idle_coasted_sim_seconds_total"));
    add_pool_layers(before, after, layers);
    run.detail["traced_pass_s"] = traced.seconds;
    run.detail["untraced_pass_s"] = untraced_s;
    finish_trace(options, tracer, traced.seconds, untraced_s, run);
    return run;
  }

  std::unique_ptr<cloud::Datacenter> dc;
  for (int k = 0; k < kSetupBuilds; ++k) {
    dc.reset();  // one facility alive at a time
    const auto start = Clock::now();
    dc = build(inputs, kLanes);
    run.setup.add(elapsed(&run.probe, start));
    run.probe.sample();
  }

  Tracer off(false);
  std::uint64_t step_id = 0;
  int passes = 0;
  const auto start = Clock::now();
  do {
    const Pass pass = run_pass(*dc, off, &run.step, &run.probe, step_id);
    run.pass.add(pass.seconds);
    if (passes == 0) {
      check_digest(options, pass.digest, reference, kRecordedDigest, run);
    }
    ++passes;
  } while (seconds_since(start) < options.seconds);

  run.attempted = static_cast<std::uint64_t>(passes) * kPassSteps;
  run.wall_s = run.pass.median();
  run.op = run.step;  // no finer request than the step
  run.ops = static_cast<double>(run.attempted);
  run.ops_seconds = run.step.sum();
  return run;
}

}  // namespace perfbench
