#pragma once

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>

#include "exp/batch.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/result_store.hpp"
#include "exp/table.hpp"
#include "obs/process_stats.hpp"

/// \file bench_common.hpp
/// Shared scaffolding for the figure-reproduction binaries.
///
/// Each bench is a thin wrapper: it pulls its grid from the scenario
/// registry (src/exp/scenario_registry.hpp), executes it on the parallel
/// batch engine, and formats the rows the paper's figure plots.  The
/// reference workload follows Table 1 except where EXPERIMENTS.md documents
/// a calibration: packets_per_node is 2 instead of 10 so the whole bench
/// suite completes in minutes (run a scenario through run_experiment_cli
/// with --set traffic.packets_per_node=10 for the paper's full load; no
/// environment variable changes a config).  SPMS_BENCH_SEEDS=K averages
/// every cell over K seeds; SPMS_JOBS caps the worker pool;
/// SPMS_BENCH_STORE=DIR routes every bench through the persistent result
/// store, so a figure rerun after a calibration tweak only pays for the
/// changed cells.

// --- memory / allocation instrumentation -------------------------------------
//
// Define SPMS_BENCH_COUNT_ALLOCS before including this header to replace the
// global operator new/delete with counting wrappers and make alloc_count()
// live.  The replaceable allocation functions may be defined in exactly one
// translation unit per binary; every bench is a single .cpp, so the macro is
// safe there and the library itself never sees the overrides.

#ifdef SPMS_BENCH_COUNT_ALLOCS

namespace spms::bench::detail {
inline std::atomic<std::size_t> g_alloc_count{0};
}  // namespace spms::bench::detail

void* operator new(std::size_t size) {
  spms::bench::detail::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  spms::bench::detail::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align) {
  spms::bench::detail::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  spms::bench::detail::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#endif  // SPMS_BENCH_COUNT_ALLOCS

namespace spms::bench {

/// Global operator-new invocations so far.  Always callable; only counts
/// (instead of pinning 0) in binaries compiled with SPMS_BENCH_COUNT_ALLOCS.
inline std::size_t alloc_count() {
#ifdef SPMS_BENCH_COUNT_ALLOCS
  return detail::g_alloc_count.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

/// Peak resident set size, in bytes — the shared utility the telemetry
/// gauge `process.peak_rss_bytes` also reads (obs/process_stats.hpp).
inline std::size_t peak_rss_bytes() { return obs::peak_rss_bytes(); }

/// Reference experiment configuration (delegates to the registry).
inline exp::ExperimentConfig reference_config() { return exp::reference_config(); }

/// Transient-failure regime for the failure figures (see the registry).
inline void scaled_failures(exp::ExperimentConfig& cfg) { exp::scaled_failures(cfg); }

/// Looks up a registry scenario (aborts loudly on a typo) and returns its
/// SweepSpec, fanned out to K consecutive seeds when SPMS_BENCH_SEEDS=K is
/// set (cells then report means).  Benches iterate the spec's axes to lay
/// out their tables.
inline exp::SweepSpec make_spec(const std::string& name) {
  const auto* info = exp::find_scenario(name);
  if (info == nullptr) {
    std::cerr << "bench: unknown scenario '" << name << "'\n";
    std::exit(2);
  }
  auto spec = info->make();
  std::size_t count = 1;
  if (const char* env = std::getenv("SPMS_BENCH_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) count = static_cast<std::size_t>(v);
  }
  spec.use_consecutive_seeds(count);
  return spec;
}

/// The process-wide bench store (opened lazily from SPMS_BENCH_STORE, null
/// when unset).  One instance serves every run_spec call of the binary so
/// back-to-back sweeps share the cache and the append handle.
inline exp::store::ResultStore* bench_store() {
  static const std::unique_ptr<exp::store::ResultStore> store =
      []() -> std::unique_ptr<exp::store::ResultStore> {
    const char* dir = std::getenv("SPMS_BENCH_STORE");
    if (dir == nullptr || *dir == '\0') return nullptr;
    try {
      auto s = std::make_unique<exp::store::ResultStore>(dir);
      s->load();
      if (s->corrupt_lines() > 0) {
        std::cerr << "bench store: skipped " << s->corrupt_lines() << " corrupt lines\n";
      }
      return s;
    } catch (const std::exception& e) {
      std::cerr << "bench: SPMS_BENCH_STORE=" << dir << ": " << e.what() << "\n";
      std::exit(2);
    }
  }();
  return store.get();
}

/// Executes a spec on the batch engine with the default worker pool,
/// resolved against the SPMS_BENCH_STORE cache when one is configured.
inline exp::BatchResult run_spec(const exp::SweepSpec& spec) {
  exp::BatchOptions options;
  options.jobs = 0;  // SPMS_JOBS env or hardware concurrency
  options.store = bench_store();
  auto batch = exp::BatchRunner{options}.run(spec);
  if (options.store != nullptr) {
    std::cerr << spec.name << ": executed " << batch.executed() << " jobs ("
              << batch.cached() << " cached)\n";
  }
  return batch;
}

/// Standard bench header.
inline void print_header(const std::string& id, const std::string& title,
                         const std::string& paper_claim) {
  std::cout << "==== " << id << ": " << title << " ====\n";
  std::cout << "paper: " << paper_claim << "\n\n";
}

}  // namespace spms::bench
