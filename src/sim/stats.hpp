// Counter bundle produced by a simulated run.
#pragma once

#include <cstdint>

namespace hipa::sim {

/// Aggregated machine counters. All byte counts are DRAM-side traffic
/// (cache-line granularity), the quantity behind the paper's
/// "memory accesses per edge" (MApE, Fig. 5).
struct SimStats {
  // Access-level counters.
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t atomics = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  // DRAM traffic.
  std::uint64_t dram_local_accesses = 0;
  std::uint64_t dram_remote_accesses = 0;
  std::uint64_t dram_local_bytes = 0;
  std::uint64_t dram_remote_bytes = 0;
  // Thread lifecycle.
  std::uint64_t thread_creations = 0;
  std::uint64_t thread_migrations = 0;
  // Phase bookkeeping.
  std::uint64_t phases = 0;
  std::uint64_t total_cycles = 0;

  [[nodiscard]] std::uint64_t dram_accesses() const {
    return dram_local_accesses + dram_remote_accesses;
  }
  [[nodiscard]] std::uint64_t dram_bytes() const {
    return dram_local_bytes + dram_remote_bytes;
  }
  [[nodiscard]] double remote_fraction() const {
    const std::uint64_t total = dram_bytes();
    return total == 0 ? 0.0
                      : static_cast<double>(dram_remote_bytes) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double llc_hit_ratio() const {
    const std::uint64_t total = llc_hits + llc_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(llc_hits) /
                            static_cast<double>(total);
  }
  /// Memory accesses per edge in bytes (paper Fig. 5 metric).
  [[nodiscard]] double mape(std::uint64_t num_edges) const {
    return num_edges == 0 ? 0.0
                          : static_cast<double>(dram_bytes()) /
                                static_cast<double>(num_edges);
  }

  SimStats& operator+=(const SimStats& o);
};

inline SimStats& SimStats::operator+=(const SimStats& o) {
  loads += o.loads;
  stores += o.stores;
  atomics += o.atomics;
  l1_hits += o.l1_hits;
  l1_misses += o.l1_misses;
  l2_hits += o.l2_hits;
  l2_misses += o.l2_misses;
  llc_hits += o.llc_hits;
  llc_misses += o.llc_misses;
  dram_local_accesses += o.dram_local_accesses;
  dram_remote_accesses += o.dram_remote_accesses;
  dram_local_bytes += o.dram_local_bytes;
  dram_remote_bytes += o.dram_remote_bytes;
  thread_creations += o.thread_creations;
  thread_migrations += o.thread_migrations;
  phases += o.phases;
  total_cycles += o.total_cycles;
  return *this;
}

/// Field-wise counter difference: `after - before` is one run's delta.
[[nodiscard]] inline SimStats operator-(SimStats a, const SimStats& b) {
  a.loads -= b.loads;
  a.stores -= b.stores;
  a.atomics -= b.atomics;
  a.l1_hits -= b.l1_hits;
  a.l1_misses -= b.l1_misses;
  a.l2_hits -= b.l2_hits;
  a.l2_misses -= b.l2_misses;
  a.llc_hits -= b.llc_hits;
  a.llc_misses -= b.llc_misses;
  a.dram_local_accesses -= b.dram_local_accesses;
  a.dram_remote_accesses -= b.dram_remote_accesses;
  a.dram_local_bytes -= b.dram_local_bytes;
  a.dram_remote_bytes -= b.dram_remote_bytes;
  a.thread_creations -= b.thread_creations;
  a.thread_migrations -= b.thread_migrations;
  a.phases -= b.phases;
  a.total_cycles -= b.total_cycles;
  return a;
}

}  // namespace hipa::sim
