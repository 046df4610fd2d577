// Process-lifetime metrics plane: lock-free sharded counters/gauges
// and log-linear (HDR-style) latency histograms with snapshot-on-demand
// aggregation.
//
// Everything the per-run telemetry (runtime/telemetry.hpp) cannot do:
// a RunReport dies with its run, while a long-lived RankService needs
// counters that survive millions of queries and thousands of refreshes
// and can be scraped by an external poller (serve/metrics_export.hpp)
// without perturbing the hot path.
//
// Design:
//  * Registration is cold and mutex-protected; it hands out small
//    value-type handles (Counter / Gauge / Histogram) that hold raw
//    pointers into registry-owned, address-stable storage. Handles are
//    trivially copyable and null-safe: a default-constructed handle is
//    a no-op, which is the entire "metrics off" path — no #ifdef, no
//    template split, byte-identical results (tests assert this).
//  * Hot-path writes are one (counter/gauge) or two (histogram:
//    bucket + sum) relaxed atomic adds into a per-thread shard picked
//    by a thread_local index; shards are cache-line padded so writer
//    threads never bounce a line. No locks, no allocation, TSan-clean.
//  * snapshot() sums shards with relaxed loads under the registration
//    mutex (so the metric list is stable). Counters are monotone per
//    shard, so a concurrent snapshot sees a value between "events
//    started before" and "events finished before" — exactly the
//    consistency a scraper needs.
//
// Histogram bucketing (log-linear, kSubBits = 4):
//   values 0..15 get exact unit buckets; above that each power-of-two
//   octave is split into 16 linear sub-buckets, so the relative bucket
//   width — and therefore the worst-case quantile error — is 1/16.
//   Coverage tops out at 2^40 (~18 min in ns); larger values clamp
//   into the last bucket. 592 buckets total per shard.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace hipa::runtime::metrics {

// ---------------------------------------------------------------------------
// Bucket scheme (exposed for tests; MetricsHistogram.* gates quantile
// accuracy against it).

inline constexpr unsigned kSubBits = 4;
inline constexpr unsigned kSubBuckets = 1u << kSubBits;  // 16
/// Highest tracked octave: values >= 2^kMaxExp clamp to the last bucket.
inline constexpr unsigned kMaxExp = 40;
inline constexpr unsigned kNumBuckets =
    kSubBuckets + (kMaxExp - kSubBits) * kSubBuckets;  // 592

[[nodiscard]] constexpr unsigned bucket_of(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<unsigned>(v);
  const unsigned m = static_cast<unsigned>(std::bit_width(v)) - 1;
  if (m >= kMaxExp) return kNumBuckets - 1;
  const unsigned shift = m - kSubBits;
  return ((m - kSubBits + 1) << kSubBits) +
         static_cast<unsigned>((v >> shift) & (kSubBuckets - 1));
}

[[nodiscard]] constexpr std::uint64_t bucket_lower(unsigned b) {
  if (b < kSubBuckets) return b;
  const unsigned decade = b >> kSubBits;
  const unsigned pos = b & (kSubBuckets - 1);
  return static_cast<std::uint64_t>(kSubBuckets + pos) << (decade - 1);
}

[[nodiscard]] constexpr std::uint64_t bucket_width(unsigned b) {
  return b < kSubBuckets ? 1 : std::uint64_t{1} << ((b >> kSubBits) - 1);
}

// ---------------------------------------------------------------------------
// Storage cells. One cache line per shard so concurrent writers on
// different shards never share a line.

struct alignas(kCacheLine) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(kCacheLine) HistogramShard {
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
};

namespace detail {
/// Round-robin shard index for the calling thread, masked to the
/// registry's shard count (always a power of two).
[[nodiscard]] unsigned thread_shard_slot();
}  // namespace detail

// ---------------------------------------------------------------------------
// Handles. Value types, trivially copyable, null-safe no-ops when
// default constructed (the "registry off" path).

class Counter {
 public:
  Counter() = default;
  // metrics-hot-path-begin: one relaxed add, no locks, no allocation.
  void inc(std::uint64_t delta = 1) const {
    if (cells_ == nullptr) return;
    cells_[detail::thread_shard_slot() & mask_].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  // metrics-hot-path-end
  [[nodiscard]] bool enabled() const { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Counter(CounterCell* cells, unsigned mask) : cells_(cells), mask_(mask) {}
  CounterCell* cells_ = nullptr;
  unsigned mask_ = 0;
};

/// Gauges are last-writer-wins (set) or signed deltas (add); they see
/// far less traffic than counters, so a single shared cell suffices.
class Gauge {
 public:
  Gauge() = default;
  // metrics-hot-path-begin: one relaxed store/add, no locks.
  void set(std::int64_t v) const {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) const {
    if (cell_ != nullptr) cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  // metrics-hot-path-end
  [[nodiscard]] bool enabled() const { return cell_ != nullptr; }
  [[nodiscard]] std::int64_t value() const {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  // metrics-hot-path-begin: bucket math + three relaxed adds into the
  // calling thread's shard; no locks, no allocation.
  void record(std::uint64_t v) const {
    if (shards_ == nullptr) return;
    HistogramShard& s = shards_[detail::thread_shard_slot() & mask_];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }
  // metrics-hot-path-end
  [[nodiscard]] bool enabled() const { return shards_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Histogram(HistogramShard* shards, unsigned mask)
      : shards_(shards), mask_(mask) {}
  HistogramShard* shards_ = nullptr;
  unsigned mask_ = 0;
};

// ---------------------------------------------------------------------------
// Snapshot surface (what exporters consume).

/// Single optional label pair; the serve layer only ever needs one
/// dimension (query class, refresh kind, engine, phase...), and one
/// pair keeps exposition and dedup trivial.
struct MetricLabel {
  std::string key;
  std::string value;
  [[nodiscard]] bool empty() const { return key.empty(); }
  [[nodiscard]] bool operator==(const MetricLabel&) const = default;
};

struct CounterSnapshot {
  std::string name;
  std::string help;
  MetricLabel label;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string help;
  MetricLabel label;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::string help;
  MetricLabel label;
  double scale = 1.0;  ///< multiply raw values by this on export
  std::uint64_t count = 0;
  double sum = 0;   ///< raw units (pre-scale)
  double p50 = 0;   ///< raw units (pre-scale)
  double p95 = 0;
  double p99 = 0;
  double p999 = 0;
  double max = 0;   ///< upper edge of highest non-empty bucket
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

struct MetricsSnapshot {
  double uptime_seconds = 0;
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] const CounterSnapshot* find_counter(
      std::string_view name, std::string_view label_value = {}) const;
  [[nodiscard]] const GaugeSnapshot* find_gauge(
      std::string_view name, std::string_view label_value = {}) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name, std::string_view label_value = {}) const;
};

// ---------------------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the serve layer uses by default.
  [[nodiscard]] static MetricsRegistry& global();

  /// Registration is idempotent: the same (name, label) returns a
  /// handle to the same cells, so two components can share a lifetime
  /// counter without coordination. Names must be unique across metric
  /// kinds (a counter and a gauge may not share a name).
  [[nodiscard]] Counter counter(std::string_view name, std::string_view help,
                                MetricLabel label = {});
  [[nodiscard]] Gauge gauge(std::string_view name, std::string_view help,
                            MetricLabel label = {});
  /// `scale` converts raw recorded units on export (e.g. 1e-9 for a
  /// histogram recording nanoseconds but exported in seconds).
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::string_view help,
                                    MetricLabel label = {},
                                    double scale = 1.0);

  /// Consistent cross-shard aggregation; safe to call concurrently
  /// with writers (relaxed reads of monotone per-shard cells).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] unsigned num_shards() const { return num_shards_; }
  [[nodiscard]] std::size_t num_metrics() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  unsigned num_shards_ = 1;
};

/// Nanoseconds from a seconds-denominated duration, saturating at 0.
[[nodiscard]] inline std::uint64_t seconds_to_ns(double s) {
  return s <= 0.0 ? 0 : static_cast<std::uint64_t>(s * 1e9);
}

}  // namespace hipa::runtime::metrics
