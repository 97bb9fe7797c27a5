// fleet_churn: a 512-server cloud (64 containers per server, kRandom
// placement) kept about 75% full by 16 background tenants. Each round the
// tenants terminate their oldest containers and launch replacements, one
// call at a time; an attacker tenant runs CoResidenceOrchestrator::acquire
// with the timer_list detector and releases what it got; then the provider
// steps 1 s. One lane. Container create/destroy (the write side of the
// runtime) and provider control do the work.
//
// The timed phase builds a world (build + initial fill: the set-up, whose
// median is reported) and runs kPassesPerWorld passes of kRoundsPerPass
// rounds on it, then builds the next. A request is one replacement:
// terminate the oldest + launch.
#include <memory>
#include <string>

#include "attack/orchestrator.h"
#include "cloud/provider.h"
#include "coresidence/detector.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace cleaks;

constexpr int kRacks = 8;
constexpr int kServersPerRack = 64;
constexpr int kServers = kRacks * kServersPerRack;
constexpr int kSlotsPerServer = 64;
constexpr int kTenants = 16;
constexpr int kFillPerTenant = kServers * kSlotsPerServer * 3 / 4 / kTenants;
constexpr int kMinReplace = 48;  ///< per tenant per round
constexpr int kMaxReplace = 80;
constexpr int kAttackerGroup = 2;
constexpr int kAttackerLaunches = 2;
constexpr int kRoundsPerPass = 10;
constexpr int kLanes = 1;
constexpr int kReferenceLanes = 4;
/// Passes run on one world before the next build. Every world is built from
/// the same inputs and replays the same churn schedule, so the worlds do the
/// same work, and the builds (the set-up samples) are spread over the run as
/// the timed calls are.
constexpr int kPassesPerWorld = 4;
constexpr std::uint64_t kRecordedSeed = 512;
/// Digest of the first pass at the default seed, recorded at 1 lane.
constexpr std::uint64_t kRecordedDigest = 0x67c24ed73d2fcbd3ULL;

const std::string kAttacker = "attacker";

std::string tenant_name(int t) { return "tenant-" + std::to_string(t); }

/// The churn schedule: per round, the tenants' order and replacement counts.
struct Inputs {
  std::uint64_t dc_seed = 0;
  std::uint64_t placement_seed = 0;
  SeedStream schedule{0};
};

Inputs make_inputs(std::uint64_t seed) {
  SeedStream stream(seed == kDefaultSeed ? kRecordedSeed : seed);
  Inputs inputs;
  inputs.dc_seed = stream.next() | 1;
  inputs.placement_seed = stream.next() | 1;
  inputs.schedule = SeedStream(stream.next());
  return inputs;
}

/// Times every verification (and the provider steps it advances through)
/// around the real detector handed to the orchestrator.
class TimedDetector final : public coresidence::CoResidenceDetector {
 public:
  explicit TimedDetector(Tracer& tracer) : tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] SimDuration probe_duration() const override {
    return inner_.probe_duration();
  }
  coresidence::Verdict verify(container::Container& a, container::Container& b,
                              const coresidence::ProbeEnv& env) override {
    Span span(tracer_, "coresidence.verify", round);
    coresidence::ProbeEnv timed;
    timed.advance = [&](SimDuration dt) {
      Span step_span(tracer_, "cloud.provider.step", round);
      const auto start = Clock::now();
      env.advance(dt);
      if (steps != nullptr) steps->add(elapsed(probe, start));
    };
    const coresidence::Verdict verdict = inner_.verify(a, b, timed);
    ++verifications;
    if (verdict == coresidence::Verdict::kCoResident) ++coresident;
    verdicts.add_u64(static_cast<std::uint64_t>(verdict));
    return verdict;
  }

  std::uint64_t round = 0;
  Samples* steps = nullptr;    ///< timed runs only
  HostProbe* probe = nullptr;  ///< timed runs only
  std::uint64_t verifications = 0;
  std::uint64_t coresident = 0;
  Digest verdicts;

 private:
  coresidence::TimerImplantDetector inner_;
  Tracer& tracer_;
};

struct World {
  std::unique_ptr<cloud::Datacenter> dc;
  std::unique_ptr<cloud::CloudProvider> provider;
  SeedStream schedule{0};

  void clear() {
    provider.reset();  // its containers live on the facility's servers
    dc.reset();
  }
};

World build(const Inputs& inputs, int lanes) {
  World world;
  cloud::DatacenterConfig config;
  config.num_racks = kRacks;
  config.servers_per_rack = kServersPerRack;
  config.rack_breaker.rated_w = 1e9;  // a control-plane study
  config.benign_load = false;
  config.seed = inputs.dc_seed;
  config.num_threads = lanes;
  world.dc = std::make_unique<cloud::Datacenter>(config);
  world.provider = std::make_unique<cloud::CloudProvider>(
      *world.dc, inputs.placement_seed, cloud::BillingRates{},
      cloud::PlacementPolicy::kRandom, kSlotsPerServer);
  for (int t = 0; t < kTenants; ++t) {
    world.provider->launch_batch(tenant_name(t), kFillPerTenant);
  }
  world.provider->step(kSecond);
  world.schedule = inputs.schedule;
  return world;
}

struct Timing {
  HostProbe* probe = nullptr;  ///< timed runs only
  Samples step;
  Samples replace;
  Samples launch;
  Samples terminate;
  std::uint64_t ops = 0;     ///< launch + terminate calls issued
  std::uint64_t refused = 0; ///< launches that returned no instance
  double parked_frac_sum = 0.0;
  std::uint64_t rounds = 0;
};

struct Pass {
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

Pass run_pass(World& world, Tracer& tracer, Timing& timing,
              TimedDetector& detector, std::uint64_t& round_id) {
  cloud::CloudProvider& provider = *world.provider;
  attack::CoResidenceOrchestrator orchestrator(provider, detector);
  Digest digest;
  Pass pass;
  for (int r = 0; r < kRoundsPerPass; ++r, ++round_id) {
    // The probe runs between rounds, outside the pass's time.
    if (timing.probe != nullptr) timing.probe->maybe_sample();
    const auto round_start = Clock::now();
    Span round_span(tracer, "churn.round", round_id);
    detector.round = round_id;
    const int first = static_cast<int>(world.schedule.below(kTenants));
    for (int k = 0; k < kTenants; ++k) {
      const std::string tenant = tenant_name((first + k) % kTenants);
      const int replace = kMinReplace + static_cast<int>(world.schedule.below(
                                            kMaxReplace - kMinReplace + 1));
      for (int i = 0; i < replace; ++i) {
        const auto t0 = Clock::now();
        {
          Span span(tracer, "cloud.provider.terminate", round_id);
          provider.terminate_oldest(tenant, 1);
        }
        const auto t1 = Clock::now();
        std::shared_ptr<cloud::TenantInstance> instance;
        {
          Span span(tracer, "cloud.provider.launch", round_id);
          instance = provider.launch(tenant);
        }
        const auto t2 = Clock::now();
        const auto seconds = [&](Clock::time_point from, Clock::time_point to) {
          return to_reference(timing.probe, std::chrono::duration<double>(to - from).count());
        };
        timing.terminate.add(seconds(t0, t1));
        timing.launch.add(seconds(t1, t2));
        timing.replace.add(seconds(t0, t2));
        timing.ops += 2;
        if (instance == nullptr || instance->handle == nullptr) {
          ++timing.refused;
          continue;
        }
        digest.add_u64(static_cast<std::uint64_t>(
            provider.server_of(instance->instance_id)));
      }
    }
    {
      Span span(tracer, "attack.acquire", round_id);
      const attack::OrchestratorResult got =
          orchestrator.acquire(kAttacker, kAttackerGroup, kAttackerLaunches);
      digest.add_u64(static_cast<std::uint64_t>(got.instances.size()));
      for (const auto& instance : got.instances) {
        provider.terminate(instance->instance_id);
      }
    }
    const auto t0 = Clock::now();
    {
      Span span(tracer, "cloud.provider.step", round_id);
      provider.step(kSecond);
    }
    timing.step.add(elapsed(timing.probe, t0));
    digest.add_double(world.dc->total_power_w());
    timing.parked_frac_sum +=
        static_cast<double>(world.dc->sleeping_servers()) / world.dc->num_servers();
    ++timing.rounds;
    pass.seconds += elapsed(timing.probe, round_start);
  }
  cloud::BillingMeter& billing = provider.billing();
  for (int t = 0; t < kTenants; ++t) {
    digest.add_double(billing.total_cost(tenant_name(t)));
  }
  digest.add_double(billing.total_cost(kAttacker));
  digest.add_u64(detector.verdicts.hash);
  pass.digest = digest.hash;
  return pass;
}

/// A fresh world's first pass, untimed.
Pass first_pass(const Inputs& inputs, int lanes) {
  Tracer off(false);
  Timing timing;
  TimedDetector detector(off);
  std::uint64_t round_id = 0;
  World world = build(inputs, lanes);
  const Pass pass = run_pass(world, off, timing, detector, round_id);
  world.clear();
  return pass;
}

double per_call_us(std::uint64_t cycles, std::uint64_t calls) {
  return calls == 0 ? 0.0
                    : static_cast<double>(cycles) / cycles_per_second() * 1e6 /
                          static_cast<double>(calls);
}

}  // namespace

WorkloadRun run_fleet_churn(const RunOptions& options) {
  WorkloadRun run;
  const Inputs inputs = make_inputs(options.seed);
  // Whatever the seed, the recorded inputs must still give the recorded
  // digest. Like the lane check, it runs after the timed phase, so no
  // earlier 190 MB world shapes the heap the timed world is built on.
  const auto check_recorded = [&] {
    if (options.seed != kDefaultSeed &&
        first_pass(make_inputs(kDefaultSeed), kLanes).digest != kRecordedDigest) {
      run.fail("fleet_churn: the recorded inputs no longer give the recorded digest");
    }
  };

  if (options.trace) {
    const Pass untraced = first_pass(inputs, kLanes);
    Tracer tracer(true);
    Timing timing;
    TimedDetector detector(tracer);
    std::uint64_t round_id = 0;
    World world = build(inputs, kLanes);
    const CounterSnapshot before = CounterSnapshot::take();
    const Pass traced = run_pass(world, tracer, timing, detector, round_id);
    const CounterSnapshot after = CounterSnapshot::take();
    check_digest(options, traced.digest, untraced.digest, kRecordedDigest, run);
    check_recorded();
    run.attempted = timing.ops;
    run.failed = timing.refused;
    const auto count = [&](const char* name) {
      return delta(before, after, name);
    };
    const std::uint64_t launches = count("provider_launches_total");
    const std::uint64_t terminates = count("provider_terminates_total");
    const double launch_control =
        per_call_us(count("provider_launch_control_cycles_total"), launches);
    const double terminate_control = per_call_us(
        count("provider_terminate_control_cycles_total"), terminates);
    auto& layers = run.layers;
    layers["cloud.provider.step_us"] = tracer.mean_self_us("cloud.provider.step");
    layers["cloud.provider.step_control_us"] = per_call_us(
        count("provider_step_control_cycles_total"), count("dc_steps_total"));
    layers["cloud.provider.billing_settles"] =
        static_cast<double>(count("provider_billing_epoch_settles_total"));
    layers["cloud.provider.billing_touched_instance_steps"] = static_cast<double>(
        count("provider_billing_touched_instance_steps_total"));
    layers["cloud.provider.launch_control_us"] = launch_control;
    layers["cloud.provider.terminate_control_us"] = terminate_control;
    layers["cloud.provider.launches"] = static_cast<double>(launches);
    layers["cloud.provider.terminates"] = static_cast<double>(terminates);
    layers["cloud.provider.launch_refused"] = static_cast<double>(timing.refused);
    layers["container.create_us"] =
        tracer.mean_self_us("cloud.provider.launch") - launch_control;
    layers["container.destroy_us"] =
        tracer.mean_self_us("cloud.provider.terminate") - terminate_control;
    layers["coresidence.verify_us"] = tracer.mean_self_us("coresidence.verify");
    layers["coresidence.verifications"] = static_cast<double>(detector.verifications);
    layers["attack.coresident_ratio"] =
        detector.verifications == 0
            ? 0.0
            : static_cast<double>(detector.coresident) / detector.verifications;
    layers["sim.active_server_steps"] =
        static_cast<double>(count("engine_active_server_steps_total"));
    layers["cloud.parked_frac"] = timing.parked_frac_sum / timing.rounds;
    add_pool_layers(before, after, layers);
    run.detail["traced_pass_s"] = traced.seconds;
    run.detail["untraced_pass_s"] = untraced.seconds;
    finish_trace(options, tracer, traced.seconds, untraced.seconds, run);
    return run;
  }

  Tracer off(false);
  Timing timing;
  timing.probe = &run.probe;
  TimedDetector detector(off);
  detector.steps = &timing.step;
  detector.probe = &run.probe;
  World world;
  std::uint64_t round_id = 0;
  int passes = 0;
  std::uint64_t first_digest = 0;
  const auto start = Clock::now();
  do {
    if (passes % kPassesPerWorld == 0) {
      world.clear();  // one cloud alive at a time
      const auto build_start = Clock::now();
      world = build(inputs, kLanes);
      run.setup.add(elapsed(&run.probe, build_start));
      run.probe.sample();
      // A pass's digest folds in every verdict so far: each world starts
      // its own record, as the reference run's does.
      detector.verdicts = Digest{};
    }
    const Pass pass = run_pass(world, off, timing, detector, round_id);
    run.pass.add(pass.seconds);
    if (passes == 0) {
      first_digest = pass.digest;
    } else if (passes % kPassesPerWorld == 0 && pass.digest != first_digest) {
      run.fail("fleet_churn: a fresh world's first pass differs from the first world's");
    }
    ++passes;
  } while (seconds_since(start) < options.seconds);
  world.clear();
  check_digest(options, first_digest, first_pass(inputs, kReferenceLanes).digest,
               kRecordedDigest, run);
  check_recorded();

  run.attempted = timing.ops;
  run.failed = timing.refused;
  run.wall_s = run.pass.median();
  run.step = timing.step;
  run.op = timing.replace;
  run.ops = static_cast<double>(timing.ops);
  run.ops_seconds = run.pass.sum();
  run.detail["launch_us_p50"] = timing.launch.quantile(0.5) * 1e6;
  run.detail["launch_us_p99"] = timing.launch.quantile(0.99) * 1e6;
  run.detail["terminate_us_p50"] = timing.terminate.quantile(0.5) * 1e6;
  run.detail["terminate_us_p99"] = timing.terminate.quantile(0.99) * 1e6;
  run.detail["verifications"] = static_cast<double>(detector.verifications);
  return run;
}

}  // namespace perfbench
