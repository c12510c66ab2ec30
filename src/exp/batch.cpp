#include "exp/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <stdexcept>
#include <stop_token>
#include <thread>
#include <unordered_map>
#include <utility>

#include "exp/store/result_store.hpp"
#include "obs/json.hpp"

namespace spms::exp {

namespace {

/// Per-point rollup sidecar.  Counters sum and histograms merge over the
/// point's executed runs in expansion order (the runs vector's order), so
/// the bytes never depend on worker scheduling; names are emitted sorted.
void write_rollups(const SweepSpec& spec, const BatchResult& result, const std::string& path) {
  std::ofstream out{path, std::ios::out | std::ios::trunc};
  if (!out) throw std::runtime_error{"BatchRunner: cannot open rollup file " + path};

  std::string line;
  for (const auto& p : result.points()) {
    std::map<std::string, std::uint64_t> counters;           // sorted by name
    std::map<std::string, obs::HistogramSnapshot> histograms;
    std::size_t executed = 0;
    for (const auto& r : p.runs) {
      if (r.metrics.empty()) continue;  // a cache hit: no metrics travelled
      ++executed;
      for (const auto& [name, value] : r.metrics.counters) counters[name] += value;
      for (const auto& h : r.metrics.histograms) {
        auto [it, fresh] = histograms.try_emplace(h.name, h);
        if (fresh) continue;
        auto& m = it->second;
        if (m.bounds != h.bounds) {
          throw std::runtime_error{"BatchRunner: histogram bounds mismatch for " + h.name};
        }
        for (std::size_t i = 0; i < m.counts.size(); ++i) m.counts[i] += h.counts[i];
        if (h.count > 0) {
          m.min = m.count > 0 ? std::min(m.min, h.min) : h.min;
          m.max = m.count > 0 ? std::max(m.max, h.max) : h.max;
        }
        m.count += h.count;
        m.sum += h.sum;
      }
    }

    line.clear();
    obs::json::Writer w{line};
    w.begin_object()
        .str("type", "rollup")
        .str("scenario", spec.name)
        .str("protocol", p.runs.empty() ? std::string_view{} : p.runs.front().protocol)
        .u64("nodes", p.node_count)
        .d("radius_m", p.zone_radius_m);
    if (!p.variant.empty()) w.str("variant", p.variant);
    w.u64("seeds", p.runs.size()).u64("executed", executed).key("counters").begin_object();
    for (const auto& [name, value] : counters) w.u64(name, value);
    w.end_object().key("histograms").begin_array();
    for (const auto& entry : histograms) {
      w.begin_object();
      obs::write_histogram_members(w, entry.second);
      w.end_object();
    }
    w.end_array().end_object();
    line += '\n';
    out << line;
  }
}

}  // namespace

BatchResult::BatchResult(std::vector<SweepJob> jobs, std::vector<RunResult> runs,
                         std::size_t cached, std::size_t workers)
    : jobs_(std::move(jobs)), runs_(std::move(runs)), cached_(cached), workers_(workers) {
  // Group the flat results by grid point, first-seen order (== grid order,
  // since expansion emits each point's jobs before the next point's; shard
  // slices preserve that order and may simply skip points entirely).
  std::unordered_map<std::size_t, std::size_t> point_slot;
  for (const auto& job : jobs_) {
    const auto [it, fresh] = point_slot.try_emplace(job.point, points_.size());
    if (fresh) {
      auto& p = points_.emplace_back();
      p.protocol = job.protocol;
      p.node_count = job.node_count;
      p.zone_radius_m = job.zone_radius_m;
      p.variant = job.variant;
    }
    points_[it->second].runs.push_back(runs_[job.index]);
  }
}

const PointResult& BatchResult::point(ProtocolKind protocol, std::size_t node_count,
                                      double zone_radius_m, std::string_view variant) const {
  for (const auto& p : points_) {
    if (p.protocol == protocol && p.node_count == node_count &&
        p.zone_radius_m == zone_radius_m && p.variant == variant) {
      return p;
    }
  }
  throw std::out_of_range{"BatchResult::point: no such grid point"};
}

BatchResult BatchRunner::run(const SweepSpec& spec) const {
  auto jobs = spec.expand();
  if (options_.shard_count != 1) {
    jobs = filter_shard(std::move(jobs), options_.shard_index, options_.shard_count);
  } else if (options_.shard_index != 0) {
    throw std::invalid_argument{"BatchRunner: shard_index requires shard_count > 1"};
  }
  std::vector<RunResult> runs(jobs.size());

  // Resolve against the store first: cache hits fill their expansion-order
  // slots directly, and only the misses go to the worker pool.  The final
  // runs vector is therefore identical however the hit/miss split falls —
  // run_experiment is a pure function of the config and the serialization
  // round-trips bit-exactly, so a replayed result IS the fresh result.
  std::vector<std::string> canonical(jobs.size());
  std::vector<std::string> keys(jobs.size());
  if (options_.store != nullptr) {
    for (const auto& job : jobs) {
      canonical[job.index] = store::canonical_config_json(job.config);
      keys[job.index] = store::key_for_canonical(canonical[job.index]);
    }
  }
  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  std::size_t cached = 0;
  for (const auto& job : jobs) {
    if (options_.store != nullptr && options_.use_cache) {
      if (auto hit = options_.store->find(keys[job.index], canonical[job.index])) {
        runs[job.index] = *std::move(hit);
        ++cached;
        continue;
      }
    }
    pending.push_back(job.index);
  }

  const std::size_t workers =
      std::min(options_.jobs == 0 ? default_jobs() : options_.jobs, pending.size());

  // Each file output names one file, so it can follow one run only: refuse
  // before running anything rather than let workers race on the paths.
  TelemetryOptions job_telemetry = options_.telemetry;
  if (job_telemetry.writes_files() && pending.size() > 1) {
    throw std::invalid_argument{"BatchRunner: telemetry file outputs need exactly one job to "
                                "execute, not " + std::to_string(pending.size())};
  }
  // The rollup aggregates each executed job's final counters/histograms.
  if (!options_.rollup_out.empty()) job_telemetry.metrics = true;

  // Workers only simulate; this thread records the results in pending
  // (expansion) order.  With one worker each task runs inline, just before
  // it is recorded.
  std::vector<std::packaged_task<RunResult()>> tasks;
  std::vector<std::future<RunResult>> results;
  for (const auto i : pending) {
    tasks.emplace_back([&job = jobs[i], &job_telemetry] {
      return run_experiment(job.config, job_telemetry);
    });
    results.push_back(tasks.back().get_future());
  }
  std::atomic<std::size_t> next{0};
  // Declared after the tasks, so an exception leaving the loop below stops
  // and joins the pool before the tasks are destroyed.
  std::vector<std::jthread> pool;
  for (std::size_t w = 0; workers > 1 && w < workers; ++w) {
    pool.emplace_back([&](std::stop_token stop) {
      while (!stop.stop_requested()) {
        const std::size_t t = next++;
        if (t >= tasks.size()) return;
        tasks[t]();
      }
    });
  }

  std::exception_ptr first_error;  // the earliest failing job's, in expansion order
  for (std::size_t n = 0; n < pending.size(); ++n) {
    if (pool.empty()) tasks[n]();
    const SweepJob& job = jobs[pending[n]];
    try {
      runs[job.index] = results[n].get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      continue;
    }
    if (options_.store != nullptr) {
      options_.store->put(keys[job.index], canonical[job.index], runs[job.index]);
    }
    if (options_.on_result) options_.on_result(job, runs[job.index], n + 1, pending.size());
  }
  if (first_error) std::rethrow_exception(first_error);

  BatchResult result{std::move(jobs), std::move(runs), cached, workers};
  if (!options_.rollup_out.empty()) write_rollups(spec, result, options_.rollup_out);
  return result;
}

std::size_t parse_jobs_env(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  // Validate the whole string before clamping, so "2048x" is rejected like
  // "4x" rather than sneaking through once the clamp saturates.
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;
  }
  std::size_t v = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    v = v * 10 + static_cast<std::size_t>(*p - '0');
    if (v > kMaxJobs) return kMaxJobs;  // clamp absurd values (and stop any overflow)
  }
  return v;
}

std::size_t default_jobs() {
  if (const std::size_t v = parse_jobs_env(std::getenv("SPMS_JOBS")); v > 0) return v;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace spms::exp
