#pragma once

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "obs/process_stats.hpp"

/// \file bench_common.hpp
/// Shared scaffolding for the perf benches (bench_scale, bench_micro_core)
/// and the macro benchmark's driver: an optional counting allocation hook
/// and peak RSS.  Registry scenarios have no bench binary of their own:
/// run_experiment_cli runs them.

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
// GCC inlines these into a caller whose pointer came from the replaced
// operator new above and reports the free() as a mismatched deallocation;
// every pointer here came from malloc or aligned_alloc, which free pairs with.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

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

}  // namespace spms::bench
