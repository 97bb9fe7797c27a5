// perfbench: the repository benchmark's binary. Runs one workload
// through the simulator's public API and prints, as the last line of
// stdout, one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (BENCHMARK.json lists both). A fuller report — sample
// counts, workload-specific figures, check failures — goes to
// <out-dir>/<workload>-seed<N>-trace<T>.json, and a traced run's spans to
// <out-dir>/<workload>-seed<N>.spans.tsv.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

using perfbench::RunOptions;
using perfbench::WorkloadRun;

const std::map<std::string, std::function<WorkloadRun(const RunOptions&)>>&
workloads() {
  static const std::map<std::string, std::function<WorkloadRun(const RunOptions&)>>
      table = {
          {"fig3_attack", perfbench::run_fig3_attack},
          {"facility_diurnal", perfbench::run_facility_diurnal},
          {"fleet_churn", perfbench::run_fleet_churn},
          {"leak_scan", perfbench::run_leak_scan},
      };
  return table;
}

/// Per-layer metrics and their units, in BENCHMARK.json order. A workload
/// that does not reach a layer leaves it at 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"sim.step_us", "us"},
      {"sim.active_server_steps", "count"},
      {"sim.coasted_sim_s", "s"},
      {"cloud.dc_step_us", "us"},
      {"cloud.parked_frac", "ratio"},
      {"cloud.server_step_us", "us"},
      {"cloud.provider.step_us", "us"},
      {"cloud.provider.step_control_us", "us"},
      {"cloud.provider.billing_settles", "count"},
      {"cloud.provider.billing_touched_instance_steps", "count"},
      {"cloud.provider.launch_control_us", "us"},
      {"cloud.provider.terminate_control_us", "us"},
      {"cloud.provider.launches", "count"},
      {"cloud.provider.terminates", "count"},
      {"cloud.provider.launch_refused", "count"},
      {"container.create_us", "us"},
      {"container.destroy_us", "us"},
      {"coresidence.verify_us", "us"},
      {"coresidence.verifications", "count"},
      {"attack.coresident_ratio", "ratio"},
      {"attack.rapl_samples", "count"},
      {"attack.rapl_holds", "count"},
      {"attack.crest_spikes", "count"},
      {"fs.read_us", "us"},
      {"fs.viewer_cache_hit_ratio", "ratio"},
      {"fs.render_cache_hit_ratio", "ratio"},
      {"fs.viewer_cache_invalidations", "count"},
      {"fs.reads_denied", "count"},
      {"leakage.scan_us", "us"},
      {"leakage.paths_reused_ratio", "ratio"},
      {"leakage.renders_avoided", "count"},
      {"leakage.probe_epochs", "count"},
      {"leakage.undecided", "count"},
      {"leakage.reads_retried", "count"},
      {"util.pool.parallel_for", "count"},
      {"util.pool.chunks_per_call", "count"},
      {"util.pool.caller_chunk_share", "ratio"},
      {"trace.spans", "count"},
      {"trace.overhead_s", "s"},
  };
  return table;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every time is in reference seconds: each timed call was converted from
/// host seconds at the host speed the HostProbe measured next to it.
std::vector<Metric> end_to_end(const WorkloadRun& run, double peak_rss_mb) {
  return {
      {"setup_s", run.setup.median(), "s"},
      {"wall_s", run.wall_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ops_per_s", run.ops_seconds > 0 ? run.ops / run.ops_seconds : 0.0, "1/s"},
      {"op_us_p50", run.op.quantile(0.50) * 1e6, "us"},
      {"op_us_p99", run.op.quantile(0.99) * 1e6, "us"},
  };
}

std::vector<Metric> per_layer(const WorkloadRun& run) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = run.layers.find(name);
    metrics.push_back({name, it == run.layers.end() ? 0.0 : it->second, unit});
  }
  return metrics;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buffer[512];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buffer;
  }
  return out + "}";
}

void write_report(const RunOptions& options, const WorkloadRun& run,
                  const std::vector<Metric>& metrics) {
  if (options.out_dir.empty()) return;
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);
  std::fprintf(file, " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n",
               run.correct ? "true" : "false",
               static_cast<unsigned long long>(run.attempted),
               static_cast<unsigned long long>(run.failed));
  std::fprintf(file, " \"digest\": \"%016llx\",\n",
               static_cast<unsigned long long>(run.digest));
  std::fprintf(file, " \"check_failures\": [");
  for (std::size_t i = 0; i < run.check_failures.size(); ++i) {
    std::fprintf(file, "%s\"%s\"", i == 0 ? "" : ", ",
                 json_escape(run.check_failures[i]).c_str());
  }
  std::fprintf(file,
               "],\n \"samples\": {\"setup\": %llu, \"passes\": %llu, \"steps\": %llu, "
               "\"ops\": %llu},\n",
               static_cast<unsigned long long>(run.setup.size()),
               static_cast<unsigned long long>(run.pass.size()),
               static_cast<unsigned long long>(run.step.size()),
               static_cast<unsigned long long>(run.op.size()));
  const auto list = [file](const char* name, const perfbench::Samples& samples) {
    std::fprintf(file, " \"%s\": [", name);
    const auto& kept = samples.kept();
    for (std::size_t i = 0; i < kept.size(); ++i) {
      std::fprintf(file, "%s%.6g", i == 0 ? "" : ", ", kept[i]);
    }
    std::fprintf(file, "],\n");
  };
  list("setup_s", run.setup);
  list("pass_s", run.pass);
  list("probe_s", run.probe.samples());
  std::vector<Metric> detail;
  for (const auto& [name, value] : run.detail) detail.push_back({name, value, ""});
  std::fprintf(file, " \"metrics\": %s,\n \"detail\": %s}\n",
               metrics_json(metrics).c_str(), metrics_json(detail).c_str());
  std::fclose(file);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\nworkloads:",
               why);
  for (const auto& entry : workloads()) std::fprintf(stderr, " %s", entry.first.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *value == '-' || *end != '\0') usage("--seed wants a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0 && options.seconds <= 120.0)) {
        usage("--seconds wants a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace wants 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (workloads().count(options.workload) == 0) usage("unknown workload");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  WorkloadRun run = workloads().at(options.workload)(options);
  // A run whose output check fails counts every operation as failed.
  if (!run.correct) run.failed = run.attempted;

  // Read before the quantiles below copy and sort their samples. The
  // probe's table is resident from the start of the run, so it adds exactly
  // its own size to the high-water mark.
  const double rss_mb = perfbench::peak_rss_mb() - perfbench::HostProbe::table_mb();
  const std::vector<Metric> metrics =
      options.trace ? per_layer(run) : end_to_end(run, rss_mb);
  if (!options.trace) {
    // For the run report: the world step's latency, which is not an
    // end-to-end metric (see NOTES.md), and the host's speed.
    run.detail["step_ms_p50"] = run.step.quantile(0.50) * 1e3;
    run.detail["step_ms_p99"] = run.step.quantile(0.99) * 1e3;
    run.detail["probe_ms_p50"] = run.probe.samples().median() * 1e3;
  }
  write_report(options, run, metrics);
  for (const auto& why : run.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  std::printf("workload %s seed %llu trace %d: %s, %llu attempted, %llu failed\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, run.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (const auto& metric : metrics) {
    std::printf("  %-48s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics_json(metrics).c_str());
  return 0;
}
