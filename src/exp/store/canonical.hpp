#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "exp/config.hpp"
#include "exp/runner.hpp"

/// \file canonical.hpp
/// Canonical (stable, versioned) serialization of ExperimentConfig and
/// RunResult for the persistent result store.
///
/// A run is a pure function of its ExperimentConfig (EXPERIMENTS.md's
/// determinism contract), so a content hash of the canonical config bytes
/// identifies its result forever.  Canonical means: every field, in the
/// order and under the keys of exp::visit_fields, durations as integer
/// nanoseconds, doubles in shortest round-trip form — two equal configs
/// always produce byte-identical JSON, and a RunResult survives a JSON
/// round trip bit-exactly (the warm-vs-cold byte-identity guarantee rests
/// on this).

namespace spms::exp::store {

/// Bump whenever the canonical serialization changes shape or meaning, and
/// whenever a change of model behaviour alters results for an unchanged
/// config — a re-pinned golden is such a change (see kGoldenDigest).  Older
/// lines then become foreign-schema lines: load() ignores them and `store gc`
/// evicts them.  (A salt-only model revision would not do: the loader
/// re-derives each line's key from its stored config, so every older line
/// would read as corrupt.)
/// v2: the failure block became the five-model faults.* plan and results
/// grew the faults.* recovery metrics + net.dropped_link_fault.
/// v3: configs grew the battery.* finite-budget block (and the battery
/// fault model lost its death_fraction — deaths are energy-driven now);
/// results grew energy.idle_uj, net.dropped_battery_dead, the
/// faults.time_to_* lifetime metrics, and the battery.* residual block.
/// `store gc` evicts the stale v1/v2 lines.
/// v4: results grew unknown_item_deliveries (deliveries of never-published
/// items — previously tracked by the collector but dropped on the floor).
/// Telemetry (TelemetryOptions, RunResult::series) deliberately left no
/// mark here: it is not part of the config key and the series is never
/// serialized, so a result is the same bytes with telemetry on or off.
/// v5: configs grew the percentiles.* block (quantile-engine selection —
/// exact vs. an estimating engine, so the two must never share a cache
/// entry).
/// v6: SPMS's and SPIN's recovery walks resume a node's items in DataId
/// order instead of hash-table order; the faults-smoke, fig13 and
/// extensions goldens re-pinned their recovering rows (EXPERIMENTS.md
/// "Store schema v5 → v6").
/// v7: configs lost the percentiles.* block (delay quantiles are always
/// exact) and mobility.field_side_m (the scenario always replaced it with
/// the deployment's field side).  No golden moved (EXPERIMENTS.md "Store
/// schema v6 → v7").
/// v8: results lost failures_injected, a second copy of faults.node_downs.
/// No golden moved (EXPERIMENTS.md "Store schema v7 → v8").
/// v9: channel-gated timers park in their node's wake heap instead of
/// re-arming a scheduler event per deferral.  Every defer/fire decision
/// is the same, but timers at different nodes that fire at one instant run
/// in another order, and `events` no longer counts re-arms; every golden
/// re-pinned (EXPERIMENTS.md "Store schema v8 → v9").
inline constexpr int kSchemaVersion = 9;

/// 64-bit FNV-1a over every tests/golden/*.csv in file-name order (each
/// file's name, then its bytes).  A test recomputes it, so a re-pinned
/// golden cannot land without touching this line — and the change that
/// re-pins a golden bumps kSchemaVersion with it.
inline constexpr std::uint64_t kGoldenDigest = 0x83677e7cd3cefc21ULL;

/// Stable field-ordered JSON object describing `config` completely.
[[nodiscard]] std::string canonical_config_json(const ExperimentConfig& config);

/// Content hash (64-bit FNV-1a over schema version + canonical bytes) as a
/// 16-digit lower-case hex string.  The store key of the config's result.
[[nodiscard]] std::string config_key(const ExperimentConfig& config);

/// Same hash over an already-canonicalized config (avoids re-serializing;
/// also used by the loader to validate stored keys against stored configs).
[[nodiscard]] std::string key_for_canonical(std::string_view canonical_config);

/// Stable field-ordered JSON object holding every stored RunResult field:
/// the fields, order and keys of exp::visit_result_fields.
[[nodiscard]] std::string result_to_json(const RunResult& result);

/// Parses result_to_json output.  Returns nullopt on malformed input or a
/// stored key whose value does not parse (corruption tolerance: the caller
/// skips the record).  Doubles recover bit-exactly; absent fields keep their
/// defaults and unknown members are ignored.
[[nodiscard]] std::optional<RunResult> result_from_json(std::string_view json);

/// One store record as parsed off a JSONL line (schema/key/raw config
/// object/raw result object).  Exposed for the store and its tests.
struct RawRecord {
  long long schema = 0;
  std::string key;
  std::string config_json;
  std::string result_json;
};

/// Parses one `{"schema":..,"key":..,"config":{..},"result":{..}}` line.
/// Returns nullopt on any syntax error or missing member.
[[nodiscard]] std::optional<RawRecord> parse_record_line(std::string_view line);

/// Assembles the JSONL line `put` appends (no trailing newline).
[[nodiscard]] std::string make_record_line(std::string_view key,
                                           std::string_view canonical_config,
                                           std::string_view result_json);

}  // namespace spms::exp::store
