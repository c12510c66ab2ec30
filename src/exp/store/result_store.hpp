#pragma once

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "exp/runner.hpp"
#include "exp/store/canonical.hpp"

/// \file result_store.hpp
/// Persistent experiment results, keyed by config content hash.
///
/// Layout: a store is a directory of append-only JSONL files; every line is
/// one `{"schema":..,"key":..,"config":{..},"result":{..}}` record.  Writers
/// only ever append-and-flush to `results.jsonl`, so a crash costs at most
/// the last line; the loader skips anything it cannot parse (truncated
/// tails, editor accidents, foreign schema versions) and keeps the rest.
/// Duplicate keys are legal on disk — the last complete record wins, and
/// compact() rewrites the directory as one sorted, deduplicated file.
///
/// Because a run is a pure function of its config, stores compose: N hosts
/// can run disjoint sweep shards into N stores and merge them into one
/// (`run_experiment_cli merge`), and a warm BatchRunner pass over the merged
/// store reproduces the unsharded BatchResult byte-identically.

namespace spms::exp::store {

/// Eviction policy of ResultStore::gc.
struct GcOptions {
  /// When set, additionally evict current-schema records from files whose
  /// last-write time is older than this many days (line granularity is
  /// file granularity: JSONL lines carry no timestamps, so a file's mtime
  /// dates every line in it).  unset = no age eviction.
  std::optional<double> max_age_days;

  /// Report what would be evicted without rewriting anything.
  bool dry_run = false;
};

/// What ResultStore::gc did (or, under dry_run, would do).
struct GcReport {
  std::size_t files = 0;           ///< *.jsonl files scanned
  std::size_t kept = 0;            ///< record lines surviving
  std::size_t evicted_schema = 0;  ///< foreign-schema lines evicted
  std::size_t evicted_age = 0;     ///< current-schema lines evicted by age
  std::size_t dropped_corrupt = 0; ///< unparseable/mismatched lines dropped
  bool dry_run = false;
};

/// What a store directory holds, by scenario and schema version — the
/// `run_experiment_cli store ls` introspection view.  Produced by scanning
/// the disk files directly, so foreign-schema records (invisible to load())
/// are reported instead of hidden.
struct StoreInventory {
  std::size_t files = 0;          ///< *.jsonl files scanned
  std::size_t total_lines = 0;    ///< non-blank lines
  std::size_t corrupt_lines = 0;  ///< unparseable or key-mismatched lines
  /// Parseable record lines per schema version (current and foreign).
  std::map<long long, std::size_t> schema_lines;
  /// Current-schema entries (deduplicated by key, last record wins) per
  /// scenario — the prefix of the result label before the first '/', or
  /// "(unlabeled)" for single-run configs without one.
  std::map<std::string, std::size_t> scenarios;
};

class ResultStore {
 public:
  /// Opens (and creates, if needed) the store directory.  Call load() to
  /// read what is already there; a fresh instance starts empty in memory.
  explicit ResultStore(std::filesystem::path dir);

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Reads every `*.jsonl` file in the directory (filename order, so
  /// later-named files win ties within equal keys' last-wins rule).
  /// Corrupt or truncated lines and records whose stored key does not hash
  /// from their stored config are counted and skipped; records of a foreign
  /// schema version are silently invisible (cache invalidation).
  void load();

  /// The cached result for `key`, provided the stored config matches
  /// `canonical_config` byte-for-byte (a hash collision or a stale hash
  /// scheme therefore reads as a miss, never as a wrong result).
  [[nodiscard]] std::optional<RunResult> find(const std::string& key,
                                              std::string_view canonical_config) const;

  /// Inserts or replaces a record and appends it to disk (flushed).
  /// Thread-safe, like every member.  BatchRunner calls it only on the
  /// thread that called run(), in expansion order, so a batch appends its
  /// lines in expansion order at any worker count.
  void put(const std::string& key, std::string canonical_config, const RunResult& result);

  /// Records currently loaded/written (deduplicated by key).
  [[nodiscard]] std::size_t size() const;

  /// Lines the last load() skipped as unparseable or key-mismatched.
  [[nodiscard]] std::size_t corrupt_lines() const;

  /// Copies into memory every record `other` has and this store lacks; the
  /// files on disk stay untouched until compact() writes them (the CLI's
  /// `merge` compacts once, so each record is written once).  Records
  /// present on both sides are kept as-is — equal keys mean equal configs
  /// mean equal results.  Returns the number added.
  std::size_t merge_from(const ResultStore& other);

  /// Scans the directory's files and summarizes them (see StoreInventory).
  /// Reads disk only; the in-memory view is untouched.
  [[nodiscard]] StoreInventory inventory() const;

  /// Evicts stale lines: foreign-schema records (the leftovers a schema
  /// bump orphans), corrupt lines, and optionally whole files' worth of
  /// current-schema records older than `options.max_age_days`.  A live gc
  /// rewrites the directory like compact() (crash-safe rename, key-sorted,
  /// deduplicated) and refreshes the in-memory view from the survivors; a
  /// dry run only counts.
  GcReport gc(const GcOptions& options);

  /// Rewrites the whole store as a single `results.jsonl`, key-sorted, one
  /// record per key, dropping corrupt lines and superseded duplicates.
  /// Safe without a prior load(): disk records missing from memory are
  /// folded in first (memory wins ties), so compact can only add, never
  /// lose.  The replacement is crash-safe: the new file is renamed over the
  /// old one before any sibling file is removed.
  void compact();

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  struct Record {
    std::string config;  ///< canonical config JSON
    RunResult result;
  };

  /// Parses every *.jsonl record into `into` (last complete record wins);
  /// returns the count of corrupt lines skipped.  Caller holds mu_.
  std::size_t read_disk_locked(std::map<std::string, Record>& into) const;
  /// Replaces the directory's files with one key-sorted results.jsonl
  /// holding `records`.  Caller holds mu_.
  void rewrite_locked(const std::map<std::string, Record>& records);

  std::filesystem::path dir_;
  std::map<std::string, Record> records_;
  std::size_t corrupt_ = 0;
  mutable std::mutex mu_;
  std::ofstream out_;  ///< lazily opened append handle for results.jsonl
};

}  // namespace spms::exp::store
