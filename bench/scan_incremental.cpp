// Incremental-scan benchmark: cold CrossValidator::scan versus ten warm
// re-scans on one validator — five on an untouched world, five after small
// perturbations (a 1 s server step each).
//
// Asserted, not just reported:
//   * an unchanged-world warm re-scan does ZERO container-context renders
//     for cache-eligible paths (the viewer-cache hit/miss counters both
//     stand still: reuse happens above the filesystem, not through it)
//     while scan_renders_avoided_total advances;
//   * warm unchanged re-scans are faster than a cold scan (they skip
//     renders, diffs and every perturbation epoch). A scan takes about a
//     millisecond, so one preemption can swamp a single sample: the gate
//     compares the median of kColdScans cold scans, each on a fresh server
//     and validator, against the median of the unchanged re-scans;
//   * the FNV digest over the sequence's eleven scans matches the recorded
//     one — the incremental pipeline reproduces its findings bit for bit,
//     warm or cold, perturbed or not.
// Emits BENCH_scan_incremental.json through the cleaks-bench-v1 exporter.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cloud/profiles.h"
#include "cloud/server.h"
#include "leakage/detector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/stats.h"

using namespace cleaks;

namespace {

constexpr int kColdScans = 7;
constexpr int kWarmScans = 10;      // 5 unchanged + 5 perturbed
constexpr int kUnchangedScans = 5;

// Digest of the cold + ten warm sequence below, recorded from the
// lane-parallel scan (the version that fanned its reads over a ThreadPool),
// identical at 1, 2, 4 and 8 lanes.
constexpr std::uint64_t kRecordedDigest = 0x068dfc343e4004eaULL;

struct Digest {
  std::uint64_t hash = 1469598103934665603ULL;
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  }
  void add_string(const std::string& text) { add(text.data(), text.size()); }
};

struct Run {
  double cold_seconds = 0.0;            // median over kColdScans cold scans
  double warm_unchanged_seconds = 0.0;  // median over the unchanged re-scans
  double warm_perturbed_seconds = 0.0;  // median over the perturbed re-scans
  std::uint64_t renders_avoided = 0;    // delta across all warm re-scans
  std::uint64_t paths_reused = 0;       // delta across all warm re-scans
  bool zero_rerenders = true;  // viewer cache untouched while unchanged
  std::uint64_t digest = 0;    // over all 11 scans' findings
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

cloud::Server make_server() {
  return cloud::Server("inc-host", cloud::local_testbed(), 77, 40 * kDay);
}

Run bench_incremental() {
  auto& registry = obs::Registry::global();
  obs::Counter& avoided = registry.counter("scan_renders_avoided_total");
  obs::Counter& reused = registry.counter("scan_paths_reused_total");
  obs::Counter& viewer_hits = registry.counter("fs_viewer_cache_hits_total");
  obs::Counter& viewer_misses =
      registry.counter("fs_viewer_cache_misses_total");

  Run run;
  std::vector<double> cold;
  for (int i = 0; i < kColdScans; ++i) {
    cloud::Server server = make_server();
    leakage::CrossValidator validator(server);
    const double start = now_seconds();
    validator.scan();
    cold.push_back(now_seconds() - start);
  }
  run.cold_seconds = percentile(cold, 50.0);

  cloud::Server server = make_server();
  leakage::CrossValidator validator(server);
  Digest digest;
  auto digest_findings = [&digest](
                             const std::vector<leakage::FileFinding>& found) {
    for (const auto& finding : found) {
      digest.add_string(finding.path);
      digest.add_string(leakage::to_string(finding.cls));
      const unsigned char degraded = finding.degraded ? 1 : 0;
      digest.add(&degraded, 1);
    }
  };
  digest_findings(validator.scan());  // cold: full protocol

  const std::uint64_t avoided_before = avoided.value();
  const std::uint64_t reused_before = reused.value();
  std::vector<double> unchanged;
  std::vector<double> perturbed;
  for (int i = 0; i < kWarmScans; ++i) {
    const bool perturb = i >= kUnchangedScans;
    if (perturb) server.step(kSecond);
    const std::uint64_t hits_before = viewer_hits.value();
    const std::uint64_t misses_before = viewer_misses.value();
    const double start = now_seconds();
    digest_findings(validator.scan());
    const double elapsed = now_seconds() - start;
    if (perturb) {
      perturbed.push_back(elapsed);
    } else {
      unchanged.push_back(elapsed);
      // The acceptance bit: an unchanged warm re-scan never even consults
      // the viewer cache for eligible paths — no hits, no misses, no
      // container-context renders at all.
      if (viewer_hits.value() != hits_before ||
          viewer_misses.value() != misses_before) {
        run.zero_rerenders = false;
      }
    }
  }
  run.warm_unchanged_seconds = percentile(unchanged, 50.0);
  run.warm_perturbed_seconds = percentile(perturbed, 50.0);
  run.renders_avoided = avoided.value() - avoided_before;
  run.paths_reused = reused.value() - reused_before;
  run.digest = digest.hash;
  return run;
}

}  // namespace

int main() {
  std::printf("== incremental scan: cold vs %d warm re-scans ==\n\n",
              kWarmScans);
  const Run run = bench_incremental();

  const bool digest_matches = run.digest == kRecordedDigest;
  const bool warm_faster = run.warm_unchanged_seconds < run.cold_seconds;
  std::printf(
      "  cold %8.2f ms  warm-unchanged %8.3f ms  warm-perturbed %8.2f ms  "
      "avoided %llu  reused %llu  digest %016llx\n",
      run.cold_seconds * 1e3, run.warm_unchanged_seconds * 1e3,
      run.warm_perturbed_seconds * 1e3,
      (unsigned long long)run.renders_avoided,
      (unsigned long long)run.paths_reused, (unsigned long long)run.digest);

  obs::BenchReport report("scan_incremental");
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                (unsigned long long)run.digest);
  report.json()
      .field("cold_scans", kColdScans)
      .field("warm_scans", kWarmScans)
      .field("unchanged_scans", kUnchangedScans)
      .field("cold_seconds", run.cold_seconds)
      .field("warm_unchanged_seconds", run.warm_unchanged_seconds)
      .field("warm_perturbed_seconds", run.warm_perturbed_seconds)
      .field("renders_avoided", run.renders_avoided)
      .field("paths_reused", run.paths_reused)
      .field("digest", digest_hex)
      .field("digest_matches_recording", digest_matches)
      .field("warm_faster_than_cold", warm_faster)
      .field("zero_rerenders_while_unchanged", run.zero_rerenders)
      .field("renders_avoided_positive", run.renders_avoided > 0);
  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write bench report\n");
    return 1;
  }

  const bool ok = digest_matches && warm_faster && run.zero_rerenders &&
                  run.renders_avoided > 0;
  std::printf("\ndigest matches recording: %s  warm<cold: %s  "
              "zero rerenders unchanged: %s  renders avoided: %s\n",
              digest_matches ? "yes" : "NO", warm_faster ? "yes" : "NO",
              run.zero_rerenders ? "yes" : "NO",
              run.renders_avoided > 0 ? "yes" : "NO");
  std::printf("wrote %s\n", path.c_str());
  return ok ? 0 : 1;
}
