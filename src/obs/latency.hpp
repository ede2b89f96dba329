// Per-decision latency measurement for the serving driver (sim/churn).
//
// Wall-clock reads are confined to src/obs by the determinism rules
// (tools/dmra_lint.py, docs/OBSERVABILITY.md): result-affecting code must
// be a pure function of the seed. monotonic_now_ns() is the one sanctioned
// clock read; callers feed elapsed times into a LatencyHistogram, which —
// like MetricsRegistry timers — stays OUT of every deterministic surface
// (trace JSON, round CSV, event logs, golden fingerprints). Latency
// numbers appear only in human-readable summaries, the perfbench
// serving metrics, and the histogram CSV artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dmra::obs {

/// Monotonic clock read in nanoseconds since an arbitrary epoch. The only
/// wall-clock entry point non-obs code may use (via this header).
std::uint64_t monotonic_now_ns();

/// Log-bucketed latency histogram (HdrHistogram-lite): values below 16 ns
/// are exact; above, each power-of-two range splits into 16 linear
/// sub-buckets, bounding the relative quantile error at ~6%. Fixed-size
/// storage, no allocation after construction — safe to carry across a
/// multi-thousand-event serving run.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(std::uint64_t ns);

  std::uint64_t count() const { return count_; }
  std::uint64_t max_ns() const { return max_ns_; }
  /// Approximate q-quantile in ns, q in [0, 1]. 0 when empty.
  double percentile_ns(double q) const;

  /// Recorded values whose bucket lies entirely above `ns` — the SLO
  /// burn-rate numerator (sim/churn). Approximate with the same ~6%
  /// bucket-resolution bound as percentile_ns; 0 when empty.
  std::uint64_t count_above_ns(std::uint64_t ns) const;

  /// Fold another histogram into this one (per-seed fan-out merge).
  void merge_from(const LatencyHistogram& other);

  /// "bucket_lo_ns,bucket_hi_ns,count" rows (occupied buckets only) with
  /// a header line — the CI latency-artifact format (docs/SERVING.md).
  std::string to_csv() const;

 private:
  static constexpr std::size_t kSub = 16;  // linear sub-buckets per octave
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t max_ns_ = 0;

  static std::size_t bucket_of(std::uint64_t ns);
  static std::uint64_t bucket_lo(std::size_t b);
  static std::uint64_t bucket_hi(std::size_t b);
};

}  // namespace dmra::obs
