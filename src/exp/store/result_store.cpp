#include "exp/store/result_store.hpp"

#include <algorithm>
#include <chrono>
#include <ratio>
#include <stdexcept>
#include <vector>

namespace spms::exp::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kResultsFile = "results.jsonl";

std::vector<fs::path> jsonl_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator{dir}) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// What one line of a store file is.
enum class LineKind {
  kBlank,          ///< whitespace only: not counted anywhere
  kCorrupt,        ///< not a record line (a truncated tail, editor noise)
  kForeignSchema,  ///< a record of another schema version: invisible, not corrupt
  kKeyMismatch,    ///< a current-schema record whose key does not hash from its
                   ///< config, or whose result does not parse: bit rot or a hand edit
  kCurrent,        ///< a record load() serves
};

/// One line of a store file as read: its kind, and what of it parsed.
struct StoreLine {
  LineKind kind = LineKind::kBlank;
  std::optional<RawRecord> record;  ///< set unless blank or corrupt
  std::optional<RunResult> result;  ///< set for kCurrent
};

StoreLine classify(std::string_view text) {
  StoreLine line;
  if (text.find_first_not_of(" \t\r") == std::string_view::npos) return line;
  line.record = parse_record_line(text);
  if (!line.record) {
    line.kind = LineKind::kCorrupt;
  } else if (line.record->schema != kSchemaVersion) {
    line.kind = LineKind::kForeignSchema;
  } else {
    if (key_for_canonical(line.record->config_json) == line.record->key) {
      line.result = result_from_json(line.record->result_json);
    }
    line.kind = line.result ? LineKind::kCurrent : LineKind::kKeyMismatch;
  }
  return line;
}

/// Reads and classifies every line of one store file, in order: the one
/// line scan of load, inventory and gc.
template <class Fn>
void for_each_line(const fs::path& file, Fn&& on_line) {
  std::ifstream in{file};
  std::string text;
  while (std::getline(in, text)) on_line(classify(text));
}

/// The lines load() counts as corrupt and a live gc drops.
bool is_corrupt(LineKind kind) {
  return kind == LineKind::kCorrupt || kind == LineKind::kKeyMismatch;
}

}  // namespace

ResultStore::ResultStore(fs::path dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
}

void ResultStore::load() {
  const std::lock_guard<std::mutex> lock{mu_};
  records_.clear();
  corrupt_ = read_disk_locked(records_);
}

std::size_t ResultStore::read_disk_locked(std::map<std::string, Record>& into) const {
  std::size_t corrupt = 0;
  for (const auto& file : jsonl_files(dir_)) {
    for_each_line(file, [&](StoreLine line) {
      if (is_corrupt(line.kind)) ++corrupt;
      if (line.kind != LineKind::kCurrent) return;
      into.insert_or_assign(line.record->key,
                            Record{std::move(line.record->config_json), *std::move(line.result)});
    });
  }
  return corrupt;
}

std::optional<RunResult> ResultStore::find(const std::string& key,
                                           std::string_view canonical_config) const {
  const std::lock_guard<std::mutex> lock{mu_};
  const auto it = records_.find(key);
  if (it == records_.end() || it->second.config != canonical_config) return std::nullopt;
  return it->second.result;
}

void ResultStore::put(const std::string& key, std::string canonical_config,
                      const RunResult& result) {
  // Hold the result as its line reads back, so an in-process hit replays
  // exactly what a fresh instance reads from disk (the telemetry payloads
  // are not stored fields).
  const std::string result_json = result_to_json(result);
  RunResult stored = result_from_json(result_json).value();
  const std::lock_guard<std::mutex> lock{mu_};
  const auto it =
      records_.insert_or_assign(key, Record{std::move(canonical_config), std::move(stored)})
          .first;
  const fs::path file = dir_ / kResultsFile;
  if (!out_.is_open()) {
    out_.open(file, std::ios::app);
    if (!out_) throw std::runtime_error{"ResultStore: cannot append to " + file.string()};
  }
  out_ << make_record_line(key, it->second.config, result_json) << '\n' << std::flush;
  if (!out_) {
    // A silent no-op here would break the resume promise (the caller thinks
    // the result is durable); fail loudly instead — disk full, quota, …
    throw std::runtime_error{"ResultStore: write failed on " + file.string()};
  }
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return records_.size();
}

std::size_t ResultStore::corrupt_lines() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return corrupt_;
}

std::size_t ResultStore::merge_from(const ResultStore& other) {
  if (&other == this) return 0;
  const std::scoped_lock lock{mu_, other.mu_};
  std::size_t added = 0;
  for (const auto& [key, rec] : other.records_) {
    if (records_.try_emplace(key, rec).second) ++added;
  }
  return added;
}

StoreInventory ResultStore::inventory() const {
  const std::lock_guard<std::mutex> lock{mu_};
  StoreInventory inv;
  // key -> scenario of the last complete current-schema record (last wins,
  // matching load()'s dedup rule).
  std::map<std::string, std::string> scenario_of_key;
  for (const auto& file : jsonl_files(dir_)) {
    ++inv.files;
    for_each_line(file, [&](const StoreLine& line) {
      if (line.kind == LineKind::kBlank) return;
      ++inv.total_lines;
      if (line.record) ++inv.schema_lines[line.record->schema];
      if (is_corrupt(line.kind)) ++inv.corrupt_lines;
      if (line.kind != LineKind::kCurrent) return;
      const std::string& label = line.result->label;
      std::string scenario = label.substr(0, label.find('/'));
      if (scenario.empty()) scenario = "(unlabeled)";
      scenario_of_key.insert_or_assign(line.record->key, std::move(scenario));
    });
  }
  for (const auto& [key, scenario] : scenario_of_key) {
    static_cast<void>(key);
    ++inv.scenarios[scenario];
  }
  return inv;
}

GcReport ResultStore::gc(const GcOptions& options) {
  const std::lock_guard<std::mutex> lock{mu_};
  GcReport report;
  report.dry_run = options.dry_run;

  const auto now = fs::file_time_type::clock::now();
  std::map<std::string, Record> keep;  // current-schema survivors, deduplicated
  for (const auto& file : jsonl_files(dir_)) {
    ++report.files;
    bool aged_out = false;
    if (options.max_age_days) {
      // JSONL lines carry no timestamps, so the file's mtime dates every
      // line in it — a compacted store ages as one unit, shard files age
      // individually.
      const auto age = now - fs::last_write_time(file);
      const double days =
          std::chrono::duration<double, std::ratio<86400>>(age).count();
      aged_out = days > *options.max_age_days;
    }
    for_each_line(file, [&](StoreLine line) {
      if (is_corrupt(line.kind)) ++report.dropped_corrupt;
      if (line.kind == LineKind::kForeignSchema) ++report.evicted_schema;
      if (line.kind != LineKind::kCurrent) return;
      if (aged_out) {
        ++report.evicted_age;
        return;
      }
      keep.insert_or_assign(line.record->key,
                            Record{std::move(line.record->config_json), *std::move(line.result)});
    });
  }
  report.kept = keep.size();
  if (options.dry_run) return report;

  rewrite_locked(keep);
  records_ = std::move(keep);
  corrupt_ = 0;
  return report;
}

void ResultStore::compact() {
  const std::lock_guard<std::mutex> lock{mu_};
  // Fold in whatever is on disk but not in memory, so compacting a store
  // that was never load()ed (or was written to by another process) can only
  // ever add records, never erase them.  Memory wins ties: it is newest.
  std::map<std::string, Record> all;
  read_disk_locked(all);
  for (const auto& [key, rec] : records_) all.insert_or_assign(key, rec);
  records_ = std::move(all);
  rewrite_locked(records_);
}

void ResultStore::rewrite_locked(const std::map<std::string, Record>& records) {
  out_.close();
  const fs::path tmp = dir_ / "results.jsonl.tmp";
  {
    std::ofstream out{tmp, std::ios::trunc};
    for (const auto& [key, rec] : records) {
      out << make_record_line(key, rec.config, result_to_json(rec.result)) << '\n';
    }
    out.flush();
    if (!out) throw std::runtime_error{"ResultStore: cannot write " + tmp.string()};
  }
  // Atomically replace the main file first; only then drop the others.  A
  // crash anywhere in between leaves every record reachable (at worst both
  // the rewritten file and a superseded sibling, which load() tolerates).
  fs::rename(tmp, dir_ / kResultsFile);
  for (const auto& file : jsonl_files(dir_)) {
    if (file.filename() != kResultsFile) fs::remove(file);
  }
}

}  // namespace spms::exp::store
