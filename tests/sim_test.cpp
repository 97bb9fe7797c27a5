// Tests for the scenario engine (src/sim): spec defaults and JSON
// serialization, the cross-lane determinism contract, and the golden
// pin of Fig 3's pre-refactor headline numbers.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fs/pseudo_fs.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/scenarios.h"
#include "workload/onoff.h"

namespace cleaks::sim {
namespace {

std::string hexfloat(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

TEST(ScenarioSpecTest, DefaultsMatchDocumentedContract) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.name, "scenario");
  EXPECT_FALSE(spec.single_server.has_value());
  EXPECT_FALSE(spec.provider.has_value());
  EXPECT_FALSE(spec.warmup.has_value());
  EXPECT_EQ(spec.host_tick, 0);
  EXPECT_EQ(spec.fleet.placement, FleetSpec::Placement::kNone);
  EXPECT_EQ(spec.fleet.control, FleetSpec::Control::kIdle);
  EXPECT_TRUE(spec.fleet.deploy_on_build);
  EXPECT_FALSE(spec.defense.model.has_value());
  EXPECT_FALSE(spec.defense.enable);
  EXPECT_FALSE(spec.defense.stage1_masking);

  // The spec's facility defaults are DatacenterConfig's: a refactored
  // bench that sets nothing must build the same world the hand-rolled
  // version did.
  cloud::DatacenterConfig reference;
  EXPECT_EQ(spec.datacenter.num_racks, reference.num_racks);
  EXPECT_EQ(spec.datacenter.servers_per_rack, reference.servers_per_rack);
  EXPECT_EQ(spec.datacenter.seed, reference.seed);
  EXPECT_EQ(spec.datacenter.benign_load, reference.benign_load);
  EXPECT_EQ(spec.datacenter.num_threads, reference.num_threads);

  WarmupSpec warmup;
  EXPECT_EQ(warmup.until, 9 * kHour);
  EXPECT_EQ(warmup.step, 30 * kSecond);
  EXPECT_EQ(warmup.tick, 5 * kSecond);
  EXPECT_EQ(warmup.tick_after, kSecond);

  CoordinatedCrestSpec crest;
  EXPECT_DOUBLE_EQ(crest.decay, 0.99999);
  EXPECT_DOUBLE_EQ(crest.trigger_ratio, 0.995);
  EXPECT_EQ(crest.max_spikes, 2);
  EXPECT_EQ(crest.spike_duration, 15 * kSecond);
  EXPECT_EQ(crest.cooldown, 600 * kSecond);
}

TEST(ScenarioSpecTest, SpecJsonCarriesEveryLayer) {
  ScenarioSpec spec = fig3_fleet(attack::StrategyKind::kSynergistic);
  obs::JsonWriter json;
  append_spec_json(spec, json);
  // Balance the root object the writer opened so str() is well-formed.
  json.end_object();
  const std::string& doc = json.str();
  EXPECT_NE(doc.find("\"spec\""), std::string::npos);
  EXPECT_NE(doc.find("\"datacenter\""), std::string::npos);
  EXPECT_NE(doc.find("\"servers_per_rack\": 8"), std::string::npos);
  EXPECT_NE(doc.find("\"warmup\""), std::string::npos);
  EXPECT_NE(doc.find("\"placement\": \"one-per-server\""), std::string::npos);
  EXPECT_NE(doc.find("\"strategy\": \"synergistic\""), std::string::npos);
  EXPECT_NE(doc.find("\"defense\""), std::string::npos);
}

TEST(ScenarioSpecTest, SingleServerJsonOmitsDatacenter) {
  ScenarioSpec spec;
  SingleServerSpec host;
  host.name = "testbed";
  host.seed = 42;
  spec.single_server = host;
  obs::JsonWriter json;
  append_spec_json(spec, json);
  json.end_object();
  const std::string& doc = json.str();
  EXPECT_NE(doc.find("\"single_server\""), std::string::npos);
  EXPECT_NE(doc.find("\"testbed\""), std::string::npos);
  EXPECT_EQ(doc.find("\"datacenter\""), std::string::npos);
}

TEST(ScenarioResultTest, ResultJsonRoundTripsFields) {
  ScenarioResult result;
  result.scenario = "unit";
  result.num_servers = 8;
  result.peak_total_w = 1359.0;
  result.spikes = 2;
  obs::JsonWriter json;
  result.append_json(json);
  json.end_object();
  const std::string& doc = json.str();
  EXPECT_NE(doc.find("\"result\""), std::string::npos);
  EXPECT_NE(doc.find("\"scenario\": \"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"num_servers\": 8"), std::string::npos);
  EXPECT_NE(doc.find("\"spikes\": 2"), std::string::npos);
}

// FNV-1a over the raw bit patterns of each step's facility power: any
// single-bit divergence between lane counts changes the digest.
std::uint64_t trace_digest(int num_threads) {
  ScenarioSpec spec;
  spec.name = "determinism";
  spec.datacenter.servers_per_rack = 8;
  spec.datacenter.benign_load = true;
  spec.datacenter.seed = 4248;
  spec.datacenter.num_threads = num_threads;
  SimEngine engine(spec);
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (byte * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  engine.run_steps(600, kSecond,
                   [&](SimEngine&, const StepContext& ctx) {
                     mix(ctx.total_w);
                   });
  mix(engine.result().peak_total_w);
  return hash;
}

TEST(SimEngineTest, BitwiseIdenticalAcrossLaneCounts) {
  const std::uint64_t serial = trace_digest(1);
  EXPECT_EQ(trace_digest(2), serial);
  EXPECT_EQ(trace_digest(4), serial);
  EXPECT_EQ(trace_digest(8), serial);
}

TEST(SimEngineTest, ResetMeasurementScopesTheHeadlineWindow) {
  ScenarioSpec spec;
  spec.datacenter.servers_per_rack = 2;
  spec.datacenter.benign_load = true;
  spec.datacenter.seed = 9;
  SimEngine engine(spec);
  engine.run_steps(30, kSecond);
  EXPECT_EQ(engine.result().steps, 30u);
  engine.reset_measurement();
  EXPECT_EQ(engine.result().steps, 0u);
  engine.run_steps(10, kSecond);
  const ScenarioResult result = engine.result();
  EXPECT_EQ(result.steps, 10u);
  EXPECT_DOUBLE_EQ(result.sim_seconds, 10.0);
  EXPECT_GT(result.peak_total_w, 0.0);
  // The sim clock keeps the full history even though the window reset.
  EXPECT_DOUBLE_EQ(result.end_s, 40.0);
}

TEST(SimEngineTest, RunUntilReachesAbsoluteSimTime) {
  ScenarioSpec spec;
  spec.datacenter.servers_per_rack = 2;
  spec.datacenter.seed = 5;
  SimEngine engine(spec);
  engine.run_until(2 * kMinute, 30 * kSecond);
  EXPECT_EQ(engine.now(), 2 * kMinute);
  // Already there: no further steps.
  const std::uint64_t steps = engine.result().steps;
  engine.run_until(2 * kMinute, 30 * kSecond);
  EXPECT_EQ(engine.result().steps, steps);
}

TEST(SimEngineTest, RunForAdvancesExactlyTotalWithFinalPartialStep) {
  ScenarioSpec spec;
  spec.datacenter.servers_per_rack = 2;
  spec.datacenter.seed = 5;
  SimEngine engine(spec);
  // 95 s at 30 s steps: 30+30+30+5 — the old truncation ran 90 s.
  int hook_steps = 0;
  engine.run_for(95 * kSecond, 30 * kSecond,
                 [&](SimEngine&, const StepContext&) { ++hook_steps; });
  EXPECT_EQ(engine.now(), 95 * kSecond);
  EXPECT_EQ(hook_steps, 4);
  EXPECT_EQ(engine.result().steps, 4u);
  // Exact multiples keep the old behaviour: no extra step.
  engine.run_for(kMinute, 30 * kSecond);
  EXPECT_EQ(engine.now(), 95 * kSecond + kMinute);
  EXPECT_EQ(engine.result().steps, 6u);
  // A total smaller than dt is one partial step, not zero.
  engine.run_for(kSecond, 30 * kSecond);
  EXPECT_EQ(engine.now(), 96 * kSecond + kMinute);
  EXPECT_EQ(engine.result().steps, 7u);
}

// ---------- idle capped facility ----------

// A mostly-idle capped facility with one on/off server, run for 30 min:
// servers park and wake on the wheel while the capper's windows and the
// rack breakers keep observing every rack. The breakers are rated below
// the racks' ~600 W draw (and can hold far more heat than 30 min of that
// overload builds), so their thermal integration — per-step float state —
// moves every step. Returns FNV-1a over everything the run can surface:
// every server's rendered pseudo-files and hexfloat power, the breakers,
// the clock, the engine's measured-window results, and the full
// Scope::kSim metrics digest.
std::uint64_t idle_capped_digest(int num_threads) {
  obs::Registry::global().reset();
  ScenarioSpec spec;
  spec.name = "idle-capped";
  spec.datacenter.num_racks = 2;
  spec.datacenter.servers_per_rack = 4;
  spec.datacenter.benign_load = false;
  spec.datacenter.rack_power_cap_w = 1500.0;
  spec.datacenter.rack_breaker.rated_w = 500.0;
  spec.datacenter.rack_breaker.thermal_capacity = 1e6;
  spec.datacenter.seed = 77;
  spec.datacenter.num_threads = num_threads;
  spec.datacenter.sparse = 1;
  SimEngine engine(spec);
  workload::OnOffParams params;
  params.on_duration = 2 * kMinute;
  params.off_duration = 7 * kMinute;
  params.phase = 30 * kSecond;
  params.workers = 4;
  engine.datacenter().server(0).enable_onoff_load(params);
  engine.run_for(30 * kMinute, kSecond);
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](const std::string& bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  };
  const fs::ViewContext ctx;
  for (int i = 0; i < engine.num_servers(); ++i) {
    cloud::Server& server = engine.server(i);
    mix(server.fs().read("/proc/stat", ctx).value());
    mix(server.fs().read("/proc/uptime", ctx).value());
    mix(server.fs().read("/proc/loadavg", ctx).value());
    mix(server.fs().read("/proc/interrupts", ctx).value());
    mix(hexfloat(server.power_w()));
  }
  for (int rack = 0; rack < spec.datacenter.num_racks; ++rack) {
    const cloud::CircuitBreaker& breaker =
        engine.datacenter().rack_breaker(rack);
    mix(hexfloat(breaker.thermal_state()));
    mix(breaker.tripped() ? "tripped" : "closed");
  }
  const ScenarioResult result = engine.result();
  mix(std::to_string(engine.now()));
  mix(std::to_string(result.steps));
  mix(hexfloat(result.sim_seconds));
  mix(hexfloat(result.peak_total_w));
  mix(hexfloat(result.peak_rack_w));
  mix(std::to_string(
      obs::Registry::global().snapshot().digest(obs::Scope::kSim)));
  return hash;
}

// Recorded on fixed 1 s steps while the engine could still stride across
// all-parked stretches (a hook forced the per-step path), identical at 1,
// 2, 4 and 8 lanes and equal at each to the strided run, which absorbed
// 1323 of the 1800 steps.
constexpr std::uint64_t kIdleCappedFacilityDigest = 0x376378f492425848ull;

TEST(SimEngineTest, IdleCappedFacilityMatchesRecording) {
  for (const int lanes : {1, 2, 4, 8}) {
    EXPECT_EQ(idle_capped_digest(lanes), kIdleCappedFacilityDigest)
        << "lanes=" << lanes;
  }
}

// Golden pin of the Fig 3 headline: the refactor onto fig3_fleet must not
// move a single bit of the pre-refactor bench outputs (same seeds, same
// traces). Values captured from the hand-rolled bench at the commit that
// introduced the scenario engine.
TEST(Fig3GoldenTest, SynergisticHeadlineBitsUnchanged) {
  SimEngine engine(fig3_fleet(attack::StrategyKind::kSynergistic));
  engine.set_fleet_control(FleetSpec::Control::kMonitor);
  engine.run_steps(7200, kSecond);
  engine.reset_measurement();
  engine.set_fleet_control(FleetSpec::Control::kCoordinated);
  engine.run_steps(3000, kSecond);
  EXPECT_EQ(hexfloat(engine.result().peak_total_w), "0x1.1dce476344e6ap+11");
  EXPECT_EQ(engine.crest_spikes(), 1);
  EXPECT_EQ(hexfloat(engine.fleet_attack_seconds()), "0x1.ep+6");  // 120 s
}

TEST(Fig3GoldenTest, PeriodicHeadlineBitsUnchanged) {
  SimEngine engine(fig3_fleet(attack::StrategyKind::kPeriodic));
  engine.run_steps(7200, kSecond);
  engine.reset_measurement();
  engine.set_fleet_control(FleetSpec::Control::kAutonomous);
  engine.run_steps(3000, kSecond);
  EXPECT_EQ(hexfloat(engine.result().peak_total_w), "0x1.1ca1f8960a35ap+11");
  EXPECT_EQ(engine.attacker(0).stats().spikes_launched, 10);
  EXPECT_EQ(hexfloat(engine.fleet_attack_seconds()), "0x1.2cp+10");  // 1200 s
}

}  // namespace
}  // namespace cleaks::sim
