// Shared machinery of the perfbench binary: clocks and latency samples,
// seeded input generation, output digests, benchmark-side spans and
// counter deltas read from the simulator's obs::Registry.
//
// Everything here lives on the benchmark's side of the library API: the
// simulator is driven and observed only through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Time samples in seconds. Memory is bounded: past kCapacity samples
/// a fixed-seed reservoir keeps a uniform subset, so the benchmark's own
/// footprint (part of peak_rss_mb) does not grow with the program's speed.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  Samples() { kept_.reserve(kCapacity); }
  void add(double seconds);
  /// Every sample seen, kept or not.
  [[nodiscard]] std::uint64_t size() const noexcept { return seen_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Nearest-rank quantile over the kept samples, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// The kept samples, in arrival order until the reservoir fills.
  [[nodiscard]] const std::vector<double>& kept() const noexcept { return kept_; }

 private:
  std::vector<double> kept_;
  std::uint64_t seen_ = 0;
  double sum_ = 0.0;
  std::uint64_t rng_ = 0x5eed5eed5eed5eedULL;
};

/// Host-speed probe. The measuring host is shared, and other tenants' load
/// slows every memory access by up to 1.7x, in spells that last from about
/// a second to many minutes; a whole run can sit inside one. The probe is a
/// fixed loop owned by the benchmark, never by the simulator: kRounds
/// rounds of random read-modify-writes over a 4 MiB table, past the
/// per-core L2 and inside the shared L3, where the simulator's working sets
/// live. It runs between timed calls, at most every kIntervalS host
/// seconds, and the timed calls are converted to reference seconds at the
/// speed it measured last:
///
///   reference seconds = host seconds x kReferenceS / (median of the last
///                       kWindow probe times)
///
/// A change to the simulator moves its time and not the probe's.
class HostProbe {
 public:
  /// The probe's time on the recording host in a quiet spell.
  static constexpr double kReferenceS = 0.0028;
  static constexpr double kIntervalS = 0.1;
  static constexpr int kWindow = 5;
  static constexpr int kRounds = 3;
  static constexpr std::size_t kTableWords = std::size_t{1} << 19;

  /// Allocates and touches the table, so it is resident from the start of
  /// the run and its size can be taken off the peak RSS exactly, and takes
  /// kWindow samples so that there is a speed before the first timed call.
  HostProbe();
  /// Samples if kIntervalS host seconds passed since the last sample.
  void maybe_sample();
  void sample();
  [[nodiscard]] double to_reference(double host_seconds) const {
    return host_seconds * to_reference_;
  }
  [[nodiscard]] const Samples& samples() const noexcept { return samples_; }
  [[nodiscard]] static double table_mb() {
    return static_cast<double>(kTableWords * sizeof(std::uint64_t)) / (1024.0 * 1024.0);
  }

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 1;
  std::vector<double> recent_;  ///< the last kWindow probe times
  double to_reference_ = 1.0;
  Samples samples_;
  Clock::time_point last_;
};

/// Host seconds converted to reference seconds when a probe is given
/// (timed passes), left in host seconds when not (untimed and traced ones).
inline double to_reference(const HostProbe* probe, double host_seconds) {
  return probe != nullptr ? probe->to_reference(host_seconds) : host_seconds;
}

inline double elapsed(const HostProbe* probe, Clock::time_point start) {
  return to_reference(probe, seconds_since(start));
}

/// FNV-1a over raw bytes: witnesses bitwise identity of program outputs.
struct Digest {
  std::uint64_t hash = 1469598103934665603ULL;
  void add(const void* data, std::size_t size);
  void add_double(double value) { add(&value, sizeof value); }
  void add_u64(std::uint64_t value) { add(&value, sizeof value); }
  void add_string(std::string_view text) { add(text.data(), text.size()); }
};

/// SplitMix64 stream: the benchmark's only source of input randomness, a
/// pure function of --seed. The simulator receives its outputs (server
/// choices, phases, seeds), never the stream itself.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// In-memory span recorder. A span has a name, start and end (host ns
/// since the tracer was made), its parent span and the id of the step,
/// round or op it belongs to. Spans are kept in memory and written once,
/// at the end of the run. A disabled tracer records nothing.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit Tracer(bool enabled);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::uint32_t open(const char* name, std::uint64_t request);
  void close(std::uint32_t index);

  /// Mean self time per call of the spans named `name`, in microseconds
  /// (0 when none ran). Self time is a span's duration minus the part its
  /// child spans cover.
  [[nodiscard]] double mean_self_us(std::string_view name) const;
  [[nodiscard]] std::size_t span_count() const noexcept { return spans_.size(); }

  /// One line per span: index, parent, name, request, start_ns, end_ns.
  bool write_tsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; free when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, request) : Tracer::kNone) {}
  ~Span() {
    if (index_ != Tracer::kNone) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

/// Snapshot of every counter in the global obs::Registry (per-lane values
/// kept for lane counters), for before/after deltas.
class CounterSnapshot {
 public:
  static CounterSnapshot take();
  [[nodiscard]] std::uint64_t value(const std::string& name) const;
  [[nodiscard]] std::uint64_t lane_value(const std::string& name,
                                         std::size_t lane) const;
  /// Sum over all lanes of a lane counter.
  [[nodiscard]] std::uint64_t lanes_total(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> values_;
  std::map<std::string, std::vector<std::uint64_t>> lanes_;
};

/// after - before for one counter.
std::uint64_t delta(const CounterSnapshot& before, const CounterSnapshot& after,
                    const std::string& name);

/// util.pool.* layer metrics from parallel_for and per-lane chunk counts.
void add_pool_layers(const CounterSnapshot& before, const CounterSnapshot& after,
                     std::map<std::string, double>& layers);

/// rdtsc cycles per host second, measured once per process (the provider's
/// *_cycles_total counters are in these units).
double cycles_per_second();

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// What the command line asked for.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where span files and run reports go
};

/// The seed whose outputs are recorded in the sources (goldens/digests).
inline constexpr std::uint64_t kDefaultSeed = 0;

/// One workload run, as handed back to main.
struct WorkloadRun {
  bool correct = true;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;  ///< operations issued in the timed phase
  std::uint64_t failed = 0;     ///< of which failed or were refused
  std::uint64_t digest = 0;     ///< output digest of the first timed pass

  /// Converts the timed calls below to reference seconds (HostProbe).
  HostProbe probe;
  Samples setup;  ///< seconds per world build (to first timed call)
  Samples pass;   ///< seconds of every pass of the timed phase
  double wall_s = 0.0;       ///< the pass time reported as wall_s
  Samples step;              ///< world-step latencies
  Samples op;                ///< request latencies
  double ops = 0.0;          ///< operations completed in the timed phase
  double ops_seconds = 0.0;  ///< seconds those operations took

  /// Workload-specific figures for the run report (launch/terminate split,
  /// per-phase step times, sample counts); not part of the result line.
  std::map<std::string, double> detail;
  /// Per-layer metrics (traced mode only); names must be declared in
  /// BENCHMARK.json. Layers a workload does not reach stay 0.
  std::map<std::string, double> layers;

  void fail(std::string why) {
    correct = false;
    check_failures.push_back(std::move(why));
  }
};

/// The output check every workload shares: the first timed pass's digest
/// must equal the digest of the same inputs at the reference lane count
/// and, at the default seed, the digest recorded in the sources.
void check_digest(const RunOptions& options, std::uint64_t got,
                  std::uint64_t reference, std::uint64_t recorded,
                  WorkloadRun& run);

/// Adds trace.* metrics and writes the span file for a traced pass.
void finish_trace(const RunOptions& options, const Tracer& tracer,
                  double traced_pass_s, double untraced_pass_s,
                  WorkloadRun& run);

WorkloadRun run_fig3_attack(const RunOptions& options);
WorkloadRun run_facility_diurnal(const RunOptions& options);
WorkloadRun run_fleet_churn(const RunOptions& options);
WorkloadRun run_leak_scan(const RunOptions& options);

}  // namespace perfbench
