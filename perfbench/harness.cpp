#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "util/cycle_timer.h"

namespace perfbench {

void Samples::add(double seconds) {
  ++seen_;
  sum_ += seconds;
  if (kept_.size() < kCapacity) {
    kept_.push_back(seconds);
    return;
  }
  // Algorithm R: the new sample replaces a kept one with probability
  // kCapacity / seen_.
  rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::uint64_t slot = (rng_ >> 11) % seen_;
  if (slot < kCapacity) kept_[slot] = seconds;
}

double Samples::quantile(double q) const {
  if (kept_.empty()) return 0.0;
  std::vector<double> sorted = kept_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1,
                                 static_cast<std::size_t>(rank) - 1);
  return sorted[index];
}

HostProbe::HostProbe() : table_(kTableWords, 1) {
  for (int i = 0; i < kWindow; ++i) sample();
}

void HostProbe::maybe_sample() {
  if (seconds_since(last_) >= kIntervalS) sample();
}

void HostProbe::sample() {
  std::uint64_t x = state_;
  const auto rounds = [&](int count) {
    for (int round = 0; round < count; ++round) {
      for (std::size_t i = 0; i < kTableWords; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        table_[(x >> 20) & (kTableWords - 1)] += x;
      }
    }
  };
  // One untimed round brings the table back into the caches and TLB, so
  // the timed rounds do not depend on how much memory the simulator
  // touched since the last sample.
  rounds(1);
  const auto start = Clock::now();
  rounds(kRounds);
  state_ = x;
  last_ = Clock::now();
  const double seconds = std::chrono::duration<double>(last_ - start).count();
  samples_.add(seconds);
  recent_.push_back(seconds);
  if (recent_.size() > static_cast<std::size_t>(kWindow)) recent_.erase(recent_.begin());
  std::vector<double> sorted = recent_;
  std::sort(sorted.begin(), sorted.end());
  to_reference_ = kReferenceS / sorted[sorted.size() / 2];
}

void Digest::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
}

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::open(const char* name, std::uint64_t request) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back({name, parent, request, now_ns(), 0});
  open_.push_back(index);
  return index;
}

void Tracer::close(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  // Spans nest strictly (RAII), so the closing span is the innermost.
  open_.pop_back();
}

double Tracer::mean_self_us(std::string_view name) const {
  // Children close before their parent, so one pass in order suffices to
  // know how much of each span its children cover.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    self_ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    ++calls;
  }
  return calls == 0 ? 0.0 : static_cast<double>(self_ns) * 1e-3 / static_cast<double>(calls);
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "index\tparent\tname\trequest\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu\t%lld\t%s\t%llu\t%lld\t%lld\n", i,
                 span.parent == kNone ? -1LL
                                      : static_cast<long long>(span.parent),
                 span.name, static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot snapshot;
  for (const auto& metric : cleaks::obs::Registry::global().snapshot().metrics) {
    if (metric.kind != cleaks::obs::MetricValue::Kind::kCounter) continue;
    snapshot.values_[metric.name] = metric.counter;
    if (!metric.lanes.empty()) snapshot.lanes_[metric.name] = metric.lanes;
  }
  return snapshot;
}

std::uint64_t CounterSnapshot::value(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

std::uint64_t CounterSnapshot::lane_value(const std::string& name,
                                          std::size_t lane) const {
  const auto it = lanes_.find(name);
  if (it == lanes_.end() || lane >= it->second.size()) return 0;
  return it->second[lane];
}

std::uint64_t CounterSnapshot::lanes_total(const std::string& name) const {
  const auto it = lanes_.find(name);
  if (it == lanes_.end()) return value(name);
  std::uint64_t total = 0;
  for (std::uint64_t lane : it->second) total += lane;
  return total;
}

std::uint64_t delta(const CounterSnapshot& before, const CounterSnapshot& after,
                    const std::string& name) {
  return after.value(name) - before.value(name);
}

void add_pool_layers(const CounterSnapshot& before, const CounterSnapshot& after,
                     std::map<std::string, double>& layers) {
  const std::string chunks_name = "pool_lane_chunks_total";
  const auto calls = static_cast<double>(
      delta(before, after, "pool_parallel_for_total"));
  const auto chunks = static_cast<double>(after.lanes_total(chunks_name) -
                                          before.lanes_total(chunks_name));
  const auto caller = static_cast<double>(after.lane_value(chunks_name, 0) -
                                          before.lane_value(chunks_name, 0));
  layers["util.pool.parallel_for"] = calls;
  layers["util.pool.chunks_per_call"] = calls > 0 ? chunks / calls : 0.0;
  layers["util.pool.caller_chunk_share"] = chunks > 0 ? caller / chunks : 0.0;
}

double cycles_per_second() {
  static const double rate = [] {
    // Median of five short calibrations: one preempted window must not
    // skew every cycle-based layer time of the run.
    std::vector<double> rates;
    for (int i = 0; i < 5; ++i) rates.push_back(cleaks::calibrate_cycles_per_second());
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
  }();
  return rate;
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program image only. ru_maxrss
  // would also carry the launching process's footprint across exec.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void check_digest(const RunOptions& options, std::uint64_t got,
                  std::uint64_t reference, std::uint64_t recorded,
                  WorkloadRun& run) {
  run.digest = got;
  if (got != reference) {
    run.fail(options.workload + " digest differs from the reference run");
  }
  if (options.seed == kDefaultSeed && got != recorded) {
    run.fail(options.workload + " digest differs from the recorded one");
  }
}

void finish_trace(const RunOptions& options, const Tracer& tracer,
                  double traced_pass_s, double untraced_pass_s,
                  WorkloadRun& run) {
  run.layers["trace.spans"] = static_cast<double>(tracer.span_count());
  run.layers["trace.overhead_s"] = traced_pass_s - untraced_pass_s;
  if (options.out_dir.empty()) return;
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".spans.tsv";
  if (!tracer.write_tsv(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
