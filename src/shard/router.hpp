// ShardRouter: the scatter/merge front end of a shard fleet.
//
//   * scatter — execute_batch() splits every request by vertex
//     ownership under the shard map (point/batch lookups go to the
//     owner; top-k fans out to every shard) and coalesces the
//     subqueries bound for one shard into ONE wire envelope per
//     round-trip — the cross-process mirror of RankService's per-node
//     shard batching. Caller threads overlap: subqueries enqueued
//     while a shard's round-trip is in flight ride the next envelope.
//   * merge — per-shard top-k partials merge into a global top-k
//     under the shared topk_less order, bitwise identical to a
//     single-process RankService over the same graph + epoch. Every
//     sub-answer carries its shard's answer epoch; a merge that mixes
//     epochs (a republish landed between shards) is flagged
//     `mixed_epochs` in the reply rather than silently blended, and
//     per-shard epochs are reported so callers can retry for a
//     consistent read.
//   * health + failover — a background thread polls each shard's
//     /metrics.json (poll_client) and marks shards kDegraded on
//     threshold (queue depth, answer-epoch lag, refresh p99) or kDead
//     on consecutive probe failures. Dead shards stop receiving
//     routed queries: global top-k merges substitute the shard's last
//     good partial (flagged stale), while owner-bound lookups wait in
//     the queue — the worker reconnects with exponential backoff and
//     re-hellos (the restarted shard re-registers its ownership),
//     then drains the backlog. Queries older than query_timeout fail
//     with an error, never a wrong answer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "serve/query.hpp"
#include "shard/poll_client.hpp"
#include "shard/proto.hpp"
#include "shard/transport.hpp"

namespace hipa::shard {

/// How the router reaches one shard: a connector for the query
/// connection and an optional health probe. Both implementations
/// (TCP and loopback) reduce to closures so tests run the identical
/// router logic.
struct ShardTarget {
  std::string name;  ///< diagnostics only
  std::function<std::unique_ptr<Conn>()> connect;
  /// Explicit health probe; empty = no polling unless probe_host is
  /// set below.
  std::function<std::optional<HealthSample>()> probe;
  /// When probe is empty and probe_host is set, the router builds a
  /// poll_client probe against probe_port (or, when probe_port <= 0,
  /// the metrics port the shard's HelloAck advertises).
  std::string probe_host;
  int probe_port = -1;
};

/// TCP target on host:port; metrics scraped from metrics_port when
/// >0, else from the port the shard's HelloAck advertises (resolved
/// by the router at hello time).
[[nodiscard]] ShardTarget tcp_target(const std::string& host, int port,
                                     int metrics_port = -1);

struct RouterOptions {
  /// Health poll period; <= 0 disables the poller.
  double health_poll_seconds = 0.1;
  /// A subquery unanswered for this long fails with an error (the
  /// caller sees ok = false, never fabricated data).
  double query_timeout_seconds = 10.0;
};

enum class ShardHealth : int { kAlive = 0, kDegraded = 1, kDead = 2 };

/// One request's outcome.
struct RouterResult {
  serve::QueryResult result;  ///< epoch = max contributing epoch
  bool ok = true;
  /// Top-k only: merged partials did not all carry one epoch (a
  /// republish raced the fan-out, or a dead shard's cached partial was
  /// substituted).
  bool mixed_epochs = false;
  /// Top-k only: at least one partial came from a dead shard's last
  /// good answer instead of a live round-trip.
  bool stale = false;
  std::string error;  ///< set when !ok
};

struct RouterReply {
  std::vector<RouterResult> results;
  bool mixed_epochs = false;  ///< any result flagged
  std::uint64_t min_epoch = 0;
  std::uint64_t max_epoch = 0;
};

struct RouterStats {
  std::uint64_t requests = 0;
  std::uint64_t envelopes_sent = 0;   ///< wire round-trips
  std::uint64_t reconnects = 0;
  std::uint64_t failovers = 0;        ///< dead -> alive transitions
  std::uint64_t stale_merges = 0;
  std::uint64_t mixed_epoch_merges = 0;
  std::uint64_t republish_notices = 0;
  std::uint64_t timeouts = 0;
};

class ShardRouter {
 public:
  /// Connects + hellos every target, validates that the advertised
  /// ranges tile [0, num_vertices) exactly, and starts the per-shard
  /// workers and the health poller. Throws hipa::Error on an
  /// unreachable shard or an inconsistent shard map.
  ShardRouter(std::vector<ShardTarget> targets, RouterOptions opt = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Scatter, round-trip, merge. Thread-safe; callers block until
  /// every subquery is answered, failed, or timed out.
  RouterReply execute_batch(std::span<const serve::Query> queries);
  RouterResult execute(const serve::Query& q);

  /// Swap one shard's target (a restarted shard that came back on a
  /// new port). The worker drops its connection and re-hellos against
  /// the new target; queued subqueries carry over.
  void update_target(std::size_t shard, ShardTarget target);

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] vid_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] VertexRange shard_range(std::size_t shard) const;
  [[nodiscard]] ShardHealth health(std::size_t shard) const;
  /// Last answer epoch seen from one shard (0 = none yet).
  [[nodiscard]] std::uint64_t shard_epoch(std::size_t shard) const;
  [[nodiscard]] RouterStats stats() const;

  void stop();

 private:
  /// Per-batch countdown the caller blocks on.
  struct Waiter {
    std::mutex mutex;
    std::condition_variable cv;
    unsigned remaining = 0;
    void arrive();
    void wait();
  };

  /// One caller-side subquery awaiting its shard round-trip.
  struct Pending {
    serve::Query query;          ///< shard-clipped form
    Answer* answer = nullptr;    ///< written by the worker
    std::uint64_t* epoch = nullptr;
    bool* failed = nullptr;
    bool* stale = nullptr;       ///< set when served from the cache
    Waiter* waiter = nullptr;
    double enqueued_at = 0.0;
  };

  struct ShardState {
    ShardTarget target;          ///< under queue mutex
    HelloAck info;               ///< fixed after construction (range)
    std::thread worker;

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool shutdown = false;
    std::uint32_t target_generation = 0;  ///< bumped by update_target

    std::atomic<int> health{static_cast<int>(ShardHealth::kAlive)};
    std::atomic<std::uint64_t> last_epoch{0};
    std::atomic<unsigned> probe_failures{0};

    /// Last good top-k partial (the failover substitute), under
    /// cache_mutex.
    std::mutex cache_mutex;
    std::vector<serve::TopKEntry> cached_topk;
    std::uint64_t cached_topk_epoch = 0;
    unsigned cached_topk_k = 0;
  };

  void worker_loop(std::size_t s);
  void poll_loop();
  /// Drive one envelope round-trip over an established connection.
  /// False = connection is dead (requeue and reconnect).
  bool round_trip(ShardState& st, Conn& conn, std::vector<Pending>& batch);
  /// Fail queued entries older than query_timeout (under st.mutex).
  void fail_expired(ShardState& st, double now);
  /// Once a shard is dead: answer queued global top-k subqueries from
  /// the cached partial (stale) instead of letting them ride out the
  /// timeout; owner-bound lookups stay queued for the reconnect
  /// (under st.mutex).
  void settle_dead_topk(ShardState& st);
  [[nodiscard]] std::size_t owner_of(vid_t v) const;

  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Hello-time connections handed to the workers (index = shard).
  std::vector<std::unique_ptr<Conn>> initial_conns_;
  RouterOptions opt_;
  vid_t num_vertices_ = 0;
  unsigned topk_k_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::thread poll_thread_;
  std::mutex poll_wake_mutex_;
  std::condition_variable poll_wake_cv_;

  std::atomic<std::uint64_t> stats_requests_{0};
  std::atomic<std::uint64_t> stats_envelopes_{0};
  std::atomic<std::uint64_t> stats_reconnects_{0};
  std::atomic<std::uint64_t> stats_failovers_{0};
  std::atomic<std::uint64_t> stats_stale_{0};
  std::atomic<std::uint64_t> stats_mixed_{0};
  std::atomic<std::uint64_t> stats_notices_{0};
  std::atomic<std::uint64_t> stats_timeouts_{0};
};

}  // namespace hipa::shard
