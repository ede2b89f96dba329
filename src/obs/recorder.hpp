// The round-level trace recorder and its thread-local installation.
//
// Instrumentation sites across core/ and sim/ do
//
//   obs::TraceRecorder* const rec = obs::recorder();
//   ...
//   if (rec) rec->record({.kind = obs::EventKind::kProposal, ...});
//
// With no recorder installed (the default), every hook site is a single
// thread-local pointer load and branch — no allocation, no locking, no
// event construction. perfbench and the obs tests assert this stays true
// by checking events_recorded_total() does not move across an untraced run.
//
// The recorder is installed per thread (like the audit observer in
// mec/audit.hpp): parallel workers see no recorder unless one is
// installed on their own thread. Fan-out workloads stay traceable via
// obs/shard.hpp — per-task shard recorders follow tasks onto workers and
// merge back in task order, so traced exports are identical for every
// --jobs value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/stats.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace dmra::obs {

/// Per-kind event counts since the last take_tally() — how producers fold
/// the decision/trim events recorded inside shared code (bs_select) into
/// their own RoundRow without re-deriving them.
struct EventTally {
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t trim_evictions = 0;
  std::uint64_t broadcasts = 0;
};

class TraceRecorder {
 public:
  /// Producer round/epoch stamp for subsequent record() calls.
  void set_round(std::uint64_t round) { round_ = round; }
  std::uint64_t round() const { return round_; }

  /// Append an event. The recorder stamps round/slot/seq; everything else
  /// is the producer's.
  void record(TraceEvent event);

  /// Counts of events recorded since the previous take_tally() (or
  /// construction). Taking resets the tally.
  EventTally take_tally();

  /// Close the current logical timeline slot with its aggregate row.
  /// Events recorded since the previous finish_round() belong to this
  /// slot; the Chrome exporter renders one slice per row.
  void finish_round(RoundRow row);

  /// Replay another recorder's whole timeline onto the end of this one:
  /// events keep their producer `round` stamp but are re-stamped with this
  /// recorder's slot/seq continuation, rows are appended in order, and the
  /// shard's metrics fold into this registry (counters add, gauges
  /// last-write, timers accumulate). This is the shard-merge primitive of
  /// obs/shard.hpp: absorbing per-task shards in task order reproduces the
  /// exact byte stream a serial run would have recorded. The shard's
  /// events were already counted by events_recorded_total() when first
  /// recorded, so absorbing does not count them again. Absorbing leaves
  /// the producer-facing tally untouched.
  void absorb(const TraceRecorder& shard);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<RoundRow>& rows() const { return rows_; }

  /// Exporters (obs/chrome_trace.hpp, obs/round_csv.hpp).
  std::string to_chrome_trace_json() const;
  std::string to_round_csv() const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<RoundRow> rows_;
  MetricsRegistry metrics_;
  std::uint64_t round_ = 0;
  std::uint64_t seq_in_slot_ = 0;
  EventTally tally_;
};

/// The calling thread's recorder, or nullptr (tracing disabled).
TraceRecorder* recorder();

/// Install `rec` (nullptr uninstalls) for the CALLING THREAD; returns the
/// previous recorder.
TraceRecorder* set_recorder(TraceRecorder* rec);

/// RAII installation for a scope (tests, bench ObsSession).
class ScopedTraceRecorder {
 public:
  explicit ScopedTraceRecorder(TraceRecorder* rec) : previous_(set_recorder(rec)) {}
  ~ScopedTraceRecorder() { set_recorder(previous_); }
  ScopedTraceRecorder(const ScopedTraceRecorder&) = delete;
  ScopedTraceRecorder& operator=(const ScopedTraceRecorder&) = delete;

 private:
  TraceRecorder* previous_;
};

/// Process-wide count of record() calls (relaxed atomic). The disabled
/// path never records, so this counter standing still across a run is the
/// no-op guarantee perfbench and the obs tests assert.
std::uint64_t events_recorded_total();

/// Fold BusStats into the registry as bus.* counters — the registry is
/// the one reporting surface for protocol traffic (generalizes the old
/// to_string-only reporting).
void publish_bus_stats(const BusStats& stats, MetricsRegistry& registry);

}  // namespace dmra::obs
