#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"

/// \file batch.hpp
/// The parallel batch engine.  A BatchRunner expands a SweepSpec and
/// executes the jobs on a worker pool; each job builds and runs its own
/// private Simulation, so jobs share nothing and the per-seed RunResults are
/// bit-identical whatever the worker count.  Results come back both flat (in
/// expansion order) and grouped per grid point.

namespace spms::exp {

namespace store {
class ResultStore;
}

/// Results of one grid point: the per-seed runs, in seed order.  The
/// aggregate table (exp/columns.hpp) folds them into cross-seed statistics.
struct PointResult {
  ProtocolKind protocol = ProtocolKind::kSpms;
  std::size_t node_count = 0;
  double zone_radius_m = 0.0;
  std::string variant;
  std::vector<RunResult> runs;
};

/// Everything a batch produced.
class BatchResult {
 public:
  BatchResult(std::vector<SweepJob> jobs, std::vector<RunResult> runs, std::size_t cached,
              std::size_t workers);

  /// Per-job results, expansion order (parallel to `jobs()`).
  [[nodiscard]] const std::vector<RunResult>& runs() const { return runs_; }
  [[nodiscard]] const std::vector<SweepJob>& jobs() const { return jobs_; }

  /// Per-grid-point results, grid order.  A sharded batch carries only the
  /// points its job slice touched.
  [[nodiscard]] const std::vector<PointResult>& points() const { return points_; }

  /// How many of runs() were resolved from the result store without
  /// simulating, and how many were actually executed this invocation.
  [[nodiscard]] std::size_t cached() const { return cached_; }
  [[nodiscard]] std::size_t executed() const { return runs_.size() - cached_; }

  /// How many workers executed those jobs: the requested count capped at
  /// executed(), so 0 when every job was cached.  One worker is the calling
  /// thread itself; more are threads of their own.
  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// Looks up one grid point by its axis coordinates.  Throws
  /// std::out_of_range if the batch holds no such point.
  [[nodiscard]] const PointResult& point(ProtocolKind protocol, std::size_t node_count,
                                         double zone_radius_m,
                                         std::string_view variant = "") const;

 private:
  std::vector<SweepJob> jobs_;
  std::vector<RunResult> runs_;
  std::vector<PointResult> points_;
  std::size_t cached_ = 0;
  std::size_t workers_ = 0;
};

/// Engine knobs.
struct BatchOptions {
  /// Worker threads; 0 means one per hardware thread.  1 runs inline.
  std::size_t jobs = 1;

  /// Persistent result store (not owned; must outlive the run).  Before
  /// executing anything, the runner resolves every job against the store by
  /// config key and simulates only the misses; every fresh result is written
  /// through.  Cache hits land in the same expansion-order slots a live run
  /// would fill, so warm output is byte-identical to cold at any `jobs`.
  store::ResultStore* store = nullptr;

  /// When false, store lookups are skipped (every job re-executes) but
  /// results are still written through — a forced refresh of the store.
  bool use_cache = true;

  /// Deterministic sweep sharding (see filter_shard): this invocation runs
  /// only the jobs with index % shard_count == shard_index.  Defaults to
  /// the whole sweep.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  /// Invoked on the calling thread, in expansion order, for each *executed*
  /// job that returned, after its store write.  `done` is the job's 1-based
  /// position among the executed jobs and `total` their count — cache hits
  /// never pass through, so `done/total` is real progress, not replayed history.
  std::function<void(const SweepJob&, const RunResult&, std::size_t done, std::size_t total)>
      on_result;

  /// Telemetry attached to every *executed* job (cache hits carry none).
  /// Zero-perturbation by construction, so results — and therefore store
  /// contents and cache keys — are identical with or without it.  The
  /// single-file outputs (TelemetryOptions::writes_files) are written when
  /// exactly one job executes; run() throws std::invalid_argument before
  /// running anything when more than one would.
  TelemetryOptions telemetry;

  /// Non-empty: after the pool drains, write one {"type":"rollup"} JSONL
  /// line per grid point — counters summed and histograms merged across the
  /// point's *executed* seeds (cache hits carry no metrics; the line's
  /// seeds/executed fields account for the split).  Implies
  /// telemetry.metrics.  A sidecar next to the store, never part of it:
  /// store bytes stay byte-identical with rollups on or off, and the
  /// aggregation folds the expansion-order runs vector, so the sidecar is
  /// byte-identical at any `jobs`.
  std::string rollup_out;
};

/// Executes sweeps.  Stateless apart from its options; reusable.
class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {}) : options_(std::move(options)) {}

  /// Expands and runs the spec.  Workers only simulate; the calling thread
  /// records each result in expansion order (its runs() slot, the store,
  /// then on_result), so store lines and progress reports are the same at
  /// any `jobs`.  Failing jobs are skipped, and once every other job has
  /// been recorded the earliest one's exception is rethrown.  A store or
  /// on_result exception leaves at once, after the running jobs finish.
  [[nodiscard]] BatchResult run(const SweepSpec& spec) const;

 private:
  BatchOptions options_;
};

/// Worker count used when the caller passes 0: SPMS_JOBS env var if it
/// parses to something sane, else std::thread::hardware_concurrency (min 1).
[[nodiscard]] std::size_t default_jobs();

/// Upper bound on a worker count: SPMS_JOBS clamps to it and the CLI's
/// --jobs refuses anything above it.  Far above any machine this runs on,
/// low enough that a stray "999999999" cannot fork-bomb it.
inline constexpr std::size_t kMaxJobs = 1024;

/// Parses an SPMS_JOBS-style override.  Accepts plain decimal digits only;
/// anything else — null, empty, signs, spaces, hex, trailing junk — and the
/// value zero yield 0, meaning "no valid override, use the hardware
/// default".  Values above kMaxJobs clamp to kMaxJobs.
[[nodiscard]] std::size_t parse_jobs_env(const char* value);

}  // namespace spms::exp
