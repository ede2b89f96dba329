// Run-provenance manifests: one JSON document per bench invocation that
// records *everything needed to reproduce and interpret the run* — the
// CLI flags as parsed, the generator configuration, the
// seed list, the fault spec, the worker count, the git revision and
// build flavor the binary was compiled from, the final metrics-registry
// snapshot, and the export files the run produced (trace JSON, round
// CSV, bench CSVs), cross-linked by path.
//
// Schema "dmra-manifest/1"; tools/check_trace.py validates it and
// cross-checks the output links (docs/PROVENANCE.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace dmra::obs {

inline constexpr std::string_view kManifestSchema = "dmra-manifest/1";

/// The revision the binary was built from: `git describe --always
/// --dirty` captured at CMake configure time, or "unknown" outside a git
/// checkout.
std::string_view git_describe();

/// Compile-time build flavor: {"type": "Release", "sanitizers":
/// "address;undefined" or "", "audit": bool}. Sanitizer builds measure a
/// different program, so timings are only comparable within one flavor.
JsonObject build_flavor_json();

/// Everything a manifest records. Fields left empty simply serialize
/// empty — a manifest is best-effort provenance, not a contract on the
/// caller.
struct ManifestInput {
  std::string program;                            ///< argv[0] of the run
  std::map<std::string, std::string> flags;       ///< effective CLI flags
  JsonObject scenario_config;                     ///< workload::scenario_config_json
  std::vector<std::uint64_t> seeds;
  std::uint64_t jobs = 0;                         ///< 0 = hardware concurrency
  std::string fault_spec;                         ///< --faults text, "" = fault-free
  /// (kind, path) of every file the run wrote: "trace", "round-csv",
  /// "series-csv", ... — the cross-links check_trace.py verifies.
  std::vector<std::pair<std::string, std::string>> outputs;
  /// Deterministic metrics snapshot (counters + gauges, no wall-clock),
  /// nullptr when the run recorded none.
  const MetricsRegistry* metrics = nullptr;
};

/// The manifest as a JSON object (schema, git, build flavor stamped in).
JsonObject manifest_json(const ManifestInput& input);

/// Pretty-printed manifest document, trailing newline included.
std::string manifest_to_json(const ManifestInput& input);

}  // namespace dmra::obs
