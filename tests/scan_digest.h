// Shared pin for the CrossValidator scan tests: an FNV-1a digest over a
// scan's findings and the recorded Table I digest they are checked against.
#pragma once

#include <cstdint>
#include <vector>

#include "leakage/detector.h"

namespace cleaks {

/// FNV-1a over every finding: path bytes, class, degraded bit.
inline std::uint64_t findings_digest(
    const std::vector<leakage::FileFinding>& findings) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix_byte = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  for (const auto& finding : findings) {
    for (const char c : finding.path) {
      mix_byte(static_cast<unsigned char>(c));
    }
    mix_byte(static_cast<unsigned char>(finding.cls));
    mix_byte(finding.degraded ? 1 : 0);
  }
  return hash;
}

// Recorded from the lane-parallel scan (the version that fanned its reads
// over a ThreadPool), identical at 1, 4 and 8 lanes: the 184 Table I
// findings of the local testbed at seed 77 after 40 days of uptime. Every
// scan pinned against it produced exactly these findings there — cold,
// warm on an unchanged world, warm after a 1 s step, and under the
// recoverable fault plans of faults_test.
inline constexpr std::uint64_t kTable1FindingsDigest = 0x485597e14defb318ull;

}  // namespace cleaks
