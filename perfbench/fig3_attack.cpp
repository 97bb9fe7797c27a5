// fig3_attack: the paper's headline run (Fig 3, §IV). sim::fig3_fleet as
// bench/fig3_synergistic_vs_periodic runs it — 8 servers, 2 h of
// monitoring, then a 3,000 s attack at 1 s steps, for the synergistic and
// the periodic strategy — at one lane.
//
// A pass builds both worlds afresh (setup, including the morning-ramp
// warmup) and steps each through its 10,200 s. Every SimEngine::step is
// timed. The step is also the request: the attack-window steps alone have
// two modes of nearly equal weight, so their median is unstable between
// runs.
#include "harness.h"
#include "sim/engine.h"
#include "sim/scenarios.h"

namespace perfbench {
namespace {

using namespace cleaks;

constexpr int kMonitorSteps = 7200;
constexpr int kAttackSteps = 3000;
constexpr int kLanes = 1;
constexpr int kReferenceLanes = 4;
constexpr std::uint64_t kRecordedDcSeed = 4248;  // sim::fig3_fleet's own

// Headline bits pinned by Fig3GoldenTest in tests/sim_test.cpp.
constexpr double kSynergisticPeakW = 0x1.1dce476344e6ap+11;
constexpr int kSynergisticSpikes = 1;
constexpr double kSynergisticAttackS = 0x1.ep+6;
constexpr double kPeriodicPeakW = 0x1.1ca1f8960a35ap+11;
constexpr int kPeriodicSpikes = 10;
constexpr double kPeriodicAttackS = 0x1.2cp+10;

struct Outcome {
  double peak_w = 0.0;
  int trials = 0;
  double attack_s = 0.0;
  std::uint64_t digest = 0;
};

struct Timing {
  double setup_s = 0.0;
  Samples* steps = nullptr;    ///< timed passes only
  HostProbe* probe = nullptr;  ///< timed passes only
  double stepping_s = 0.0;
  double parked_frac_sum = 0.0;
  int crest_spikes = 0;
};

Outcome run_strategy(attack::StrategyKind kind, std::uint64_t dc_seed,
                     int lanes, Tracer& tracer, Timing& timing) {
  const auto build_start = Clock::now();
  sim::ScenarioSpec spec = sim::fig3_fleet(kind);
  spec.datacenter.seed = dc_seed;
  spec.datacenter.num_threads = lanes;
  sim::SimEngine engine(std::move(spec));
  const bool synergistic = kind == attack::StrategyKind::kSynergistic;
  if (synergistic) engine.set_fleet_control(sim::FleetSpec::Control::kMonitor);
  timing.setup_s += elapsed(timing.probe, build_start);

  Digest digest;
  std::uint64_t step_id = 0;
  auto run = [&](int steps) {
    for (int i = 0; i < steps; ++i, ++step_id) {
      const auto start = Clock::now();
      {
        Span span(tracer, "sim.step", step_id);
        engine.step(kSecond);
      }
      const double seconds = elapsed(timing.probe, start);
      timing.stepping_s += seconds;
      if (timing.steps != nullptr) timing.steps->add(seconds);
      if (timing.probe != nullptr) timing.probe->maybe_sample();
      digest.add_double(engine.total_power_w());
      timing.parked_frac_sum +=
          static_cast<double>(engine.datacenter().sleeping_servers()) /
          engine.datacenter().num_servers();
    }
  };
  run(kMonitorSteps);
  engine.reset_measurement();
  engine.set_fleet_control(synergistic
                               ? sim::FleetSpec::Control::kCoordinated
                               : sim::FleetSpec::Control::kAutonomous);
  run(kAttackSteps);

  Outcome outcome;
  outcome.peak_w = engine.result().peak_total_w;
  outcome.trials = synergistic ? engine.crest_spikes()
                               : engine.attacker(0).stats().spikes_launched;
  outcome.attack_s = engine.fleet_attack_seconds();
  timing.crest_spikes += engine.crest_spikes();
  digest.add_double(outcome.peak_w);
  digest.add_u64(static_cast<std::uint64_t>(outcome.trials));
  digest.add_double(outcome.attack_s);
  outcome.digest = digest.hash;
  return outcome;
}

struct PassOutcome {
  Outcome synergistic;
  Outcome periodic;
  double setup_s = 0.0;     ///< both world builds
  double stepping_s = 0.0;  ///< both 10,200-step runs
  [[nodiscard]] std::uint64_t digest() const {
    return synergistic.digest ^ (periodic.digest * 1099511628211ULL);
  }
};

PassOutcome run_pass(std::uint64_t dc_seed, int lanes, Tracer& tracer,
                     Timing& timing) {
  const double setup_before = timing.setup_s;
  const double before = timing.stepping_s;
  PassOutcome pass;
  pass.synergistic = run_strategy(attack::StrategyKind::kSynergistic, dc_seed,
                                  lanes, tracer, timing);
  pass.periodic = run_strategy(attack::StrategyKind::kPeriodic, dc_seed, lanes,
                               tracer, timing);
  pass.setup_s = timing.setup_s - setup_before;
  pass.stepping_s = timing.stepping_s - before;
  return pass;
}

void check_goldens(const PassOutcome& pass, WorkloadRun& run) {
  const Outcome& syn = pass.synergistic;
  const Outcome& per = pass.periodic;
  if (syn.peak_w != kSynergisticPeakW || syn.trials != kSynergisticSpikes ||
      syn.attack_s != kSynergisticAttackS) {
    run.fail("fig3 synergistic headline differs from Fig3GoldenTest");
  }
  if (per.peak_w != kPeriodicPeakW || per.trials != kPeriodicSpikes ||
      per.attack_s != kPeriodicAttackS) {
    run.fail("fig3 periodic headline differs from Fig3GoldenTest");
  }
}

}  // namespace

WorkloadRun run_fig3_attack(const RunOptions& options) {
  WorkloadRun run;
  const std::uint64_t dc_seed = options.seed == kDefaultSeed
                                    ? kRecordedDcSeed
                                    : SeedStream(options.seed).next() | 1;
  const int steps_per_pass = 2 * (kMonitorSteps + kAttackSteps);
  if (options.seed != kDefaultSeed) {
    // Whatever the seed, the recorded inputs must still hit the goldens
    // (untimed, before anything else is built).
    Tracer off(false);
    Timing recorded_timing;
    check_goldens(run_pass(kRecordedDcSeed, kLanes, off, recorded_timing), run);
  }

  if (options.trace) {
    Tracer untraced(false);
    Timing untraced_timing;
    const PassOutcome reference =
        run_pass(dc_seed, kLanes, untraced, untraced_timing);
    Tracer tracer(true);
    Timing timing;
    const CounterSnapshot before = CounterSnapshot::take();
    const PassOutcome traced = run_pass(dc_seed, kLanes, tracer, timing);
    const CounterSnapshot after = CounterSnapshot::take();
    if (traced.digest() != reference.digest()) {
      run.fail("traced pass digest differs from the untraced pass");
    }
    if (options.seed == kDefaultSeed) check_goldens(traced, run);
    run.attempted = steps_per_pass;
    auto& layers = run.layers;
    layers["sim.step_us"] = tracer.mean_self_us("sim.step");
    layers["sim.active_server_steps"] = static_cast<double>(
        delta(before, after, "engine_active_server_steps_total"));
    layers["sim.coasted_sim_s"] = static_cast<double>(
        delta(before, after, "engine_idle_coasted_sim_seconds_total"));
    layers["cloud.parked_frac"] = timing.parked_frac_sum / steps_per_pass;
    layers["attack.rapl_samples"] = static_cast<double>(
        delta(before, after, "attack_rapl_samples_total"));
    layers["attack.rapl_holds"] = static_cast<double>(
        delta(before, after, "attack_rapl_holds_total"));
    layers["attack.crest_spikes"] = timing.crest_spikes;
    add_pool_layers(before, after, layers);
    run.detail["traced_pass_s"] = traced.stepping_s;
    run.detail["untraced_pass_s"] = reference.stepping_s;
    finish_trace(options, tracer, traced.stepping_s, reference.stepping_s, run);
    return run;
  }

  Tracer off(false);
  Timing timing;
  timing.steps = &run.step;
  timing.probe = &run.probe;
  std::uint64_t first_digest = 0;
  const auto start = Clock::now();
  int passes = 0;
  do {
    const PassOutcome pass = run_pass(dc_seed, kLanes, off, timing);
    run.setup.add(pass.setup_s);
    run.pass.add(pass.stepping_s);
    if (passes == 0) {
      first_digest = pass.digest();
      run.digest = first_digest;
      if (options.seed == kDefaultSeed) check_goldens(pass, run);
    } else if (pass.digest() != first_digest) {
      run.fail("fig3 pass digest changed between identical passes");
    }
    ++passes;
  } while (seconds_since(start) < options.seconds);

  // Determinism contract: the same inputs on another lane count must give
  // the 1-lane digest (untimed).
  Timing reference_timing;
  if (run_pass(dc_seed, kReferenceLanes, off, reference_timing).digest() !=
      first_digest) {
    run.fail("fig3 digest differs between 1 and 4 lanes");
  }

  run.attempted = static_cast<std::uint64_t>(passes) * steps_per_pass;
  run.wall_s = run.pass.median();
  run.op = run.step;
  run.ops = static_cast<double>(run.attempted);
  run.ops_seconds = timing.stepping_s;
  return run;
}

}  // namespace perfbench
