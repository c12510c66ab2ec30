#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/config.hpp"

/// \file sweep.hpp
/// Declarative experiment grids.  A SweepSpec names the axes the paper's
/// evaluation varies — protocol, network size, zone radius, a named config
/// variant (failure / mobility / MAC regime), and seeds — and expands into
/// the flat job list the batch engine executes.  Expansion is purely
/// deterministic: the job order is a function of the spec alone, so results
/// can be matched back to grid points regardless of how many workers ran
/// them.

namespace spms::exp {

/// A named mutation of the base config (e.g. "failures" switches the
/// transient-failure regime on).  An empty `apply` is the identity.
struct ConfigVariant {
  std::string name;
  std::function<void(ExperimentConfig&)> apply;
};

/// One fully resolved unit of work: a config plus the axis coordinates it
/// came from.  `point` indexes the grid point (all seeds of a point share
/// it); `index` is the position in expansion order.
struct SweepJob {
  std::size_t index = 0;
  std::size_t point = 0;
  ProtocolKind protocol = ProtocolKind::kSpms;
  std::size_t node_count = 0;
  double zone_radius_m = 0.0;
  std::string variant;
  std::uint64_t seed = 0;
  ExperimentConfig config;
};

/// An experiment grid: base config x axes.  An empty axis means "use the
/// base config's value" (a single implicit entry), so a spec with all axes
/// empty expands to exactly one job.
struct SweepSpec {
  std::string name;        ///< scenario tag, prefixed onto job labels
  ExperimentConfig base;   ///< values not swept come from here
  std::vector<ProtocolKind> protocols;
  std::vector<std::size_t> node_counts;
  std::vector<double> zone_radii;
  std::vector<ConfigVariant> variants;
  std::vector<std::uint64_t> seeds;

  /// Operator settings as (config key, value text), applied in order to
  /// every job after its variant and before its seed and label are stamped,
  /// so a setting beats any variant.  Added through set().
  std::vector<std::pair<std::string, std::string>> settings;

  /// Sets one config field for every job; `key` and `value` are spelled as
  /// for set_field.  A swept key (protocol, node_count, zone_radius_m, seed)
  /// also narrows its axis to that one value, on the grid or not.  Throws
  /// std::invalid_argument, changing nothing, for `label` (the sweep names
  /// each job), an unknown key or a bad value.
  void set(const std::string& key, const std::string& value);

  /// Keeps only the variant called `variant`.  Throws std::invalid_argument
  /// listing the spec's variants if it has none of that name.
  void select_variant(const std::string& variant);

  /// Replaces the seed axis with `count` consecutive seeds starting at
  /// base.seed (which `set("seed", ...)` moves) — the CLI's --seeds.
  void use_consecutive_seeds(std::size_t count);

  /// Number of grid points (product of the non-seed axes).
  [[nodiscard]] std::size_t point_count() const;

  /// Number of jobs (points x seeds).
  [[nodiscard]] std::size_t job_count() const;

  /// Expands the grid in deterministic order: node_count (outer), then
  /// zone_radius, then variant, then protocol, then seed (inner).  The
  /// variant's apply runs after the axis fields are set and before the
  /// settings and the seed, so variants may override any other knob.
  [[nodiscard]] std::vector<SweepJob> expand() const;
};

/// Deterministic shard filter for cross-process / cross-host sweeps: keeps
/// the jobs whose expansion index is congruent to `shard_index` mod
/// `shard_count` and renumbers `index` contiguously (`point` and the labels
/// keep their canonical values, so shard results merge back losslessly).
/// The round-robin slicing interleaves the seeds of each grid point across
/// shards, which balances load when some points are much heavier than
/// others.  Throws std::invalid_argument unless shard_index < shard_count.
[[nodiscard]] std::vector<SweepJob> filter_shard(std::vector<SweepJob> jobs,
                                                 std::size_t shard_index,
                                                 std::size_t shard_count);

}  // namespace spms::exp
