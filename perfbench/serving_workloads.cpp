// serve-mixed and dist-mixed: one journal-recipe graph served under a
// closed loop of two clients and one query mix. serve-mixed runs an
// in-process RankService while an open-loop updater refreshes the
// ranks (snapshot, service, top-k, update and delta layers);
// dist-mixed sends the same mix through a ShardRouter to two in-process
// ShardServers over 127.0.0.1 TCP, without refresh (the shard layers).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "algos/pagerank.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "engines/oocore_engine.hpp"
#include "graph/io.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/topk_index.hpp"
#include "serve/updates.hpp"
#include "shard/proto.hpp"
#include "shard/router.hpp"
#include "shard/shard_server.hpp"
#include "shard/transport.hpp"

namespace perfbench {

namespace {

using hipa::Timer;
using hipa::VertexRange;
using hipa::serve::Query;
using hipa::serve::QueryResult;
using hipa::serve::TopKEntry;
using Clock = std::chrono::steady_clock;

/// journal at 1/64 of paper size: ~75 k vertices, ~1.07 M edges.
constexpr unsigned kServeScale = 64;
constexpr unsigned kClients = 2;
constexpr unsigned kTopK = 10;
constexpr unsigned kIndexDepth = 64;
constexpr unsigned kBatchSize = 32;
constexpr double kUpdatePeriod = 0.5;
/// Under RefreshOptions::small_batch_max (64), so the delta path...
constexpr unsigned kSmallBatch = 32;
/// ...and far over it, so the full path.
constexpr unsigned kLargeBatch = 2048;
constexpr unsigned kSetupReps = 9;
constexpr unsigned kProbeQueries = 20000;
constexpr unsigned kShards = 2;
/// Seconds of traced engine solves behind the engine-layer figures of
/// the refresh (serve-mixed) and shard recompute (dist-mixed) paths.
constexpr double kEngineLayerSeconds = 1.0;

/// The query mix: 80 % point lookups, 15 % batches of 32, 5 % top-10,
/// half global and half restricted to a 1 % id range.
class MixGen {
 public:
  MixGen(vid_t n, std::uint64_t seed) : n_(n), rng_(seed) {}

  Query next() {
    const std::uint64_t u = rng_.bounded(1000);
    if (u < 800) return Query::point(pick());
    if (u < 950) {
      std::vector<vid_t> ids(kBatchSize);
      for (vid_t& v : ids) v = pick();
      return Query::batch(std::move(ids));
    }
    if (u < 975) return Query::top_k(kTopK);
    const vid_t width = std::max<vid_t>(1, n_ / 100);
    const auto begin = static_cast<vid_t>(rng_.bounded(n_ - width + 1));
    return Query::top_k(kTopK, VertexRange{begin, begin + width});
  }

  vid_t pick() { return static_cast<vid_t>(rng_.bounded(n_)); }

 private:
  vid_t n_;
  hipa::Xoshiro256 rng_;
};

/// The expected answers of one published epoch.
struct Expected {
  std::vector<rank_t> ranks;
  std::vector<TopKEntry> global_topk;
};

std::shared_ptr<const Expected> expected_from(std::span<const rank_t> ranks) {
  auto e = std::make_shared<Expected>();
  e->ranks.assign(ranks.begin(), ranks.end());
  e->global_topk = hipa::serve::partial_top_k(
      e->ranks, VertexRange{0, static_cast<vid_t>(e->ranks.size())}, kTopK);
  return e;
}

/// Bitwise check of one answer against the ranks it claims to come
/// from. Any answer mixing epochs (a torn read) fails it.
bool answer_matches(const Expected& e, const Query& q, const QueryResult& r) {
  switch (q.kind) {
    case hipa::serve::QueryKind::kPoint:
      return r.ranks.size() == 1 && q.vertex < e.ranks.size() &&
             std::memcmp(&r.ranks[0], &e.ranks[q.vertex], sizeof(rank_t)) == 0;
    case hipa::serve::QueryKind::kBatch:
      if (r.ranks.size() != q.vertices.size()) return false;
      for (std::size_t i = 0; i < q.vertices.size(); ++i) {
        if (std::memcmp(&r.ranks[i], &e.ranks[q.vertices[i]],
                        sizeof(rank_t)) != 0) {
          return false;
        }
      }
      return true;
    case hipa::serve::QueryKind::kTopK:
      return r.topk == (q.topk.global()
                            ? e.global_topk
                            : hipa::serve::partial_top_k(e.ranks, q.topk.range,
                                                         q.topk.k));
  }
  return false;
}

/// Expected answers per epoch, captured by the publishing thread right
/// after each publish and read by the clients.
class EpochLedger {
 public:
  void capture(const hipa::serve::SnapshotStore& store) {
    const hipa::serve::SnapshotRef snap = store.current();
    auto e = expected_from(snap->ranks());
    std::unique_lock lock(mutex_);
    by_epoch_[snap->epoch()] = std::move(e);
  }
  [[nodiscard]] std::shared_ptr<const Expected> find(std::uint64_t epoch) const {
    std::shared_lock lock(mutex_);
    const auto it = by_epoch_.find(epoch);
    return it == by_epoch_.end() ? nullptr : it->second;
  }

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const Expected>> by_epoch_;
};

/// One client's record: latencies plus checked-answer counts.
struct ClientLog {
  std::vector<double> latency_s;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  /// (samples, queries) recorded when each sub-window closed.
  std::vector<std::pair<std::size_t, std::uint64_t>> slot_end;
  /// Answers whose epoch was not captured yet when they arrived.
  std::vector<std::pair<Query, QueryResult>> pending;

  void record(double s) {
    latency_s.push_back(s);
    ++queries;
  }
};

/// A window's queries. The reported figures are medians over kSlots
/// equal sub-windows, so a burst of outside interference moves one
/// sub-window instead of the whole figure.
struct LoadResult {
  std::vector<double> latency_s;
  std::vector<double> slot_qps;
  std::vector<double> slot_p50_s;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;

  [[nodiscard]] double qps() const { return median(slot_qps); }
  [[nodiscard]] double p50_s() const { return median(slot_p50_s); }
};

constexpr unsigned kSlots = 10;

/// Closed loop: each client sends its next query as soon as the last
/// one returned, for `seconds`. `call(client, query, log)` issues one
/// query, records its latency, and checks the answer. A query belongs
/// to the sub-window it completed in.
template <class Call>
LoadResult closed_loop(std::vector<ClientLog>& logs, double seconds, vid_t n,
                       std::uint64_t seed, Call&& call) {
  const double slot_len = seconds / kSlots;
  std::atomic<bool> stop{false};
  std::vector<std::exception_ptr> errors(logs.size());
  std::vector<std::thread> threads;
  Timer wall;
  for (unsigned c = 0; c < logs.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      try {
        MixGen mix(n, sub_seed(seed, 100 + c));
        while (!stop.load(std::memory_order_acquire)) {
          const std::pair<std::size_t, std::uint64_t> before{
              log.latency_s.size(), log.queries};
          call(c, mix.next(), log);
          const double done = wall.seconds();
          while (log.slot_end.size() < kSlots &&
                 done >= static_cast<double>(log.slot_end.size() + 1) *
                             slot_len) {
            log.slot_end.push_back(before);
          }
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
      while (log.slot_end.size() < kSlots) {
        log.slot_end.emplace_back(log.latency_s.size(), log.queries);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  LoadResult out;
  out.seconds = wall.seconds();
  for (unsigned i = 0; i < kSlots; ++i) {
    std::vector<double> samples;
    std::uint64_t queries = 0;
    for (const ClientLog& l : logs) {
      const auto [s0, q0] =
          i == 0 ? std::pair<std::size_t, std::uint64_t>{0, 0} : l.slot_end[i - 1];
      const auto [s1, q1] = l.slot_end[i];
      samples.insert(samples.end(), l.latency_s.begin() + s0,
                     l.latency_s.begin() + s1);
      queries += q1 - q0;
    }
    out.slot_qps.push_back(static_cast<double>(queries) / slot_len);
    if (!samples.empty()) out.slot_p50_s.push_back(median(std::move(samples)));
  }
  HIPA_CHECK(!out.slot_p50_s.empty(), "no query completed in the window");
  for (ClientLog& l : logs) {
    out.latency_s.insert(out.latency_s.end(), l.latency_s.begin(),
                         l.latency_s.end());
    out.queries += l.queries;
    out.failed += l.failed;
    l.latency_s.clear();
    l.slot_end.clear();
    l.queries = 0;
    l.failed = 0;
  }
  return out;
}

template <class F>
double timed(F&& f) {
  Timer t;
  f();
  return t.seconds();
}

double p50_us(std::vector<double> s) { return median(std::move(s)) * 1e6; }

/// For figures of a path that may not have run (the failure that
/// caused it is already counted).
double median_or_zero(const std::vector<double>& s) {
  return s.empty() ? 0.0 : median(s);
}

/// serve::evaluate on one pinned snapshot, single thread, the same mix:
/// the query work without dispatch. Also returns the point-only p50.
struct EvaluateProbe {
  double mix_us = 0.0;
  double point_us = 0.0;
};
EvaluateProbe probe_evaluate(const hipa::serve::SnapshotStore& store,
                             std::uint64_t seed) {
  const hipa::serve::SnapshotRef snap = store.current();
  MixGen mix(snap->num_vertices(), seed);
  std::vector<double> all, point;
  for (unsigned i = 0; i < kProbeQueries; ++i) {
    const Query q = mix.next();
    QueryResult res;
    const double s = timed([&] { res = hipa::serve::evaluate(*snap, q); });
    all.push_back(s);
    if (q.kind == hipa::serve::QueryKind::kPoint) point.push_back(s);
  }
  return {p50_us(all), p50_us(point)};
}

/// Fixed cost of the service's caller-to-worker hand-off: the p50 of
/// point queries through an idle RankService minus their evaluate p50.
double probe_dispatch_us(hipa::serve::RankService& service, vid_t n,
                         std::uint64_t seed, double point_eval_us) {
  MixGen mix(n, seed);
  std::vector<double> s;
  for (unsigned i = 0; i < kProbeQueries; ++i) {
    const Query q = Query::point(mix.pick());
    s.push_back(timed([&] { (void)service.execute(q); }));
  }
  return p50_us(s) - point_eval_us;
}

/// SnapshotStore::publish of a |V| rank vector into a fresh store.
double probe_publish_ms(std::span<const rank_t> ranks) {
  hipa::serve::StoreOptions so;
  so.topk_k = kIndexDepth;
  hipa::serve::SnapshotStore store(static_cast<vid_t>(ranks.size()), so);
  std::vector<double> s;
  for (unsigned i = 0; i < 20; ++i) {
    s.push_back(timed([&] { store.publish(ranks); }));
  }
  return median(s) * 1e3;
}

void report_load(Report& r, const char* label, const LoadResult& l) {
  r.series(std::string(label) + " query_us", l.latency_s, 1e6, "us");
  r.note(std::string(label) + " qps: " + std::to_string(l.qps()) +
         " (median of " + std::to_string(kSlots) + " sub-windows; " +
         std::to_string(l.queries) + " queries in " +
         std::to_string(l.seconds) + " s)");
}

void report_end_to_end(Report& r, const std::vector<double>& setup_s,
                       double peak_mib, const LoadResult& l) {
  r.series("setup_s", setup_s, 1.0, "s");
  r.metric("setup_s", median(setup_s), "s");
  r.metric("latency_p50_ms", l.p50_s() * 1e3, "ms");
  r.metric("throughput", l.qps(), "1/s");
  r.metric("peak_rss_mb", peak_mib, "MiB");
}

double p99_us_or_zero(Report& r, std::vector<double> s) {
  std::sort(s.begin(), s.end());
  const auto p = percentile(s, 99.0);
  if (!p) r.note("query p99 withheld: fewer than 1000 samples");
  return p ? *p * 1e6 : 0.0;
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// One serving stack. Members are destroyed in reverse order: the
/// service before the refresher, both before the store they use.
struct ServeStack {
  std::unique_ptr<hipa::serve::SnapshotStore> store;
  std::unique_ptr<hipa::serve::UpdateQueue> queue;
  std::unique_ptr<hipa::serve::UpdateRefresher> refresher;
  std::unique_ptr<hipa::serve::RankService> service;
};

hipa::serve::RefreshOptions refresh_options() {
  hipa::serve::RefreshOptions o;
  o.full_method = hipa::algo::Method::kHipa;
  o.full.threads = 1;
  return o;
}

/// Unpinned query worker. The default pins it to the node's first CPU,
/// where the refresh engine pins its one thread too; on a single-node
/// host the two then time-share one CPU while the other CPUs idle, and
/// run-to-run QPS swings by a factor of two with scheduling luck.
hipa::serve::ServiceOptions service_options() {
  hipa::serve::ServiceOptions so;
  so.pin_workers = false;
  return so;
}

hipa::serve::StoreOptions store_options() {
  hipa::serve::StoreOptions so;
  so.topk_k = kIndexDepth;
  return so;
}

/// The open-loop updater's record of one window.
struct UpdateLog {
  std::vector<double> small_latency_s, large_latency_s;
  std::vector<double> delta_busy_s, full_busy_s;
  std::vector<double> delta_iterations;
  std::vector<double> late_s;
  std::uint64_t small_pushed = 0;
  std::uint64_t delta_refreshes = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t failed = 0;
  bool last_large = true;
};

/// Every kUpdatePeriod from the window's start, push a batch (32 and
/// 2048 edges alternately, at least one of each) and refresh. Latency
/// counts from the time the update was due, so a stalled updater shows
/// in it and in late_s.
void update_loop(ServeStack& s, EpochLedger& ledger, double seconds,
                 hipa::Xoshiro256& rng, vid_t n, UpdateLog& log) {
  const Clock::time_point start = Clock::now();
  for (unsigned k = 0;; ++k) {
    const double offset = k * kUpdatePeriod;
    if (offset >= seconds && k >= 2) break;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset));
    std::this_thread::sleep_until(due);
    const auto since_due = [&] {
      return std::chrono::duration<double>(Clock::now() - due).count();
    };
    log.late_s.push_back(since_due());
    const bool large = k % 2 == 1;
    const unsigned size = large ? kLargeBatch : kSmallBatch;
    for (unsigned i = 0; i < size; ++i) {
      s.queue->push_add(hipa::Edge{static_cast<vid_t>(rng.bounded(n)),
                                   static_cast<vid_t>(rng.bounded(n))});
    }
    const hipa::serve::RefreshReport rep = s.refresher->refresh_now();
    const double latency = since_due();
    ++log.refreshes;
    log.last_large = large;
    if (rep.epoch == 0 || rep.full_run != large) ++log.failed;
    if (large) {
      log.large_latency_s.push_back(latency);
      log.full_busy_s.push_back(rep.seconds);
    } else {
      ++log.small_pushed;
      log.small_latency_s.push_back(latency);
      if (!rep.full_run) {
        ++log.delta_refreshes;
        log.delta_busy_s.push_back(rep.seconds);
        log.delta_iterations.push_back(rep.iterations);
      }
    }
    ledger.capture(*s.store);
  }
}

/// A client query against `service`: answers are checked against the
/// epoch they carry, or parked until the updater captured that epoch.
void serve_call(hipa::serve::RankService& service, const EpochLedger& ledger,
                const Query& q, ClientLog& log) {
  QueryResult res;
  log.record(timed([&] { res = service.execute(q); }));
  if (const auto e = ledger.find(res.epoch)) {
    if (!answer_matches(*e, q, res)) ++log.failed;
  } else {
    log.pending.emplace_back(q, std::move(res));
  }
  while (!log.pending.empty()) {
    const auto e = ledger.find(log.pending.back().second.epoch);
    if (e == nullptr) break;
    if (!answer_matches(*e, log.pending.back().first,
                        log.pending.back().second)) {
      ++log.failed;
    }
    log.pending.pop_back();
  }
}

/// One measured window: clients on `service`, the updater on `s`.
LoadResult serve_window(ServeStack& s, hipa::serve::RankService& service,
                        EpochLedger& ledger, std::vector<ClientLog>& logs,
                        double seconds, std::uint64_t seed,
                        hipa::Xoshiro256& update_rng, UpdateLog& updates) {
  const vid_t n = s.store->num_vertices();
  std::exception_ptr update_error;
  std::thread updater([&] {
    try {
      update_loop(s, ledger, seconds, update_rng, n, updates);
    } catch (...) {
      update_error = std::current_exception();
    }
  });
  LoadResult l;
  try {
    l = closed_loop(logs, seconds, n, seed,
                    [&](unsigned, const Query& q, ClientLog& log) {
                      serve_call(service, ledger, q, log);
                    });
  } catch (...) {
    updater.join();
    throw;
  }
  updater.join();
  if (update_error) std::rethrow_exception(update_error);
  return l;
}

}  // namespace

void run_serve_mixed(const Args& a, Report& r) {
  const GeneratedGraph in = generate(kJournal, kServeScale, a.seed, true);
  print_input("journal", kJournal, kServeScale, in);
  const vid_t n = in.graph.num_vertices();
  std::vector<ClientLog> logs(kClients);

  reset_peak_rss();
  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> s;
  for (unsigned k = 0; k < kSetupReps; ++k) {
    s.reset();
    s = std::make_unique<ServeStack>();
    std::vector<hipa::Edge> edges = in.edges;
    Timer t;
    s->store = std::make_unique<hipa::serve::SnapshotStore>(n, store_options());
    s->queue = std::make_unique<hipa::serve::UpdateQueue>();
    s->refresher = std::make_unique<hipa::serve::UpdateRefresher>(
        n, std::move(edges), *s->store, *s->queue, refresh_options());
    s->refresher->publish_initial();
    s->service =
        std::make_unique<hipa::serve::RankService>(*s->store, service_options());
    setup_s.push_back(t.seconds());
  }
  const double peak = peak_rss_mib();
  EpochLedger ledger;
  ledger.capture(*s->store);
  hipa::Xoshiro256 update_rng(sub_seed(a.seed, 2));
  UpdateLog updates;

  if (!a.trace) {
    LoadResult l;
    steady_window(r, [&] {
      l = serve_window(*s, *s->service, ledger, logs, a.seconds,
                       sub_seed(a.seed, 3), update_rng, updates);
      r.outputs(l.queries, l.failed, "serve answers vs their epoch's ranks");
    });
    report_load(r, "serve", l);
    report_end_to_end(r, setup_s, peak, l);
  } else {
    const EvaluateProbe ev = probe_evaluate(*s->store, sub_seed(a.seed, 4));
    const double dispatch =
        probe_dispatch_us(*s->service, n, sub_seed(a.seed, 5), ev.point_us);
    const double publish = probe_publish_ms(s->store->current()->ranks());

    const double half = a.seconds / 2;
    const LoadResult plain = serve_window(*s, *s->service, ledger, logs, half,
                                          sub_seed(a.seed, 3), update_rng,
                                          updates);
    const ScratchFile trace(a, "serve-trace.json");
    LoadResult traced;
    {
      hipa::serve::ServiceOptions so = service_options();
      so.trace_path = trace.path;
      hipa::serve::RankService traced_service(*s->store, so);
      traced = serve_window(*s, traced_service, ledger, logs, half,
                            sub_seed(a.seed, 6), update_rng, updates);
    }
    report_load(r, "untraced", plain);
    report_load(r, "traced", traced);
    const double p50_traced = traced.p50_s() * 1e6;
    r.metric("serve.evaluate_us", ev.mix_us, "us");
    r.metric("serve.dispatch_us", dispatch, "us");
    r.metric("serve.unaccounted_frac",
             (p50_traced - ev.mix_us - dispatch) / p50_traced, "ratio");
    r.metric("serve.publish_ms", publish, "ms");
    r.metric("serve.query_p99_us", p99_us_or_zero(r, plain.latency_s), "us");
    r.metric("runtime.trace_overhead_frac",
             p50_traced / (plain.p50_s() * 1e6) - 1.0, "ratio");
    r.outputs(plain.queries + traced.queries, plain.failed + traced.failed,
              "serve answers vs their epoch's ranks");
  }

  // The final comparison needs an exact snapshot: when the last refresh
  // took the approximate delta path, one more large batch publishes a
  // full run last.
  if (!updates.last_large) {
    for (unsigned i = 0; i < kLargeBatch; ++i) {
      s->queue->push_add(hipa::Edge{static_cast<vid_t>(update_rng.bounded(n)),
                                    static_cast<vid_t>(update_rng.bounded(n))});
    }
    if (!s->refresher->refresh_now().full_run) ++updates.failed;
    ledger.capture(*s->store);
  }
  std::uint64_t late_failed = 0;
  std::uint64_t late_checked = 0;
  for (ClientLog& log : logs) {
    for (const auto& [q, res] : log.pending) {
      const auto e = ledger.find(res.epoch);
      ++late_checked;
      if (e == nullptr || !answer_matches(*e, q, res)) ++late_failed;
    }
  }
  if (late_checked > 0) {
    r.outputs(late_checked, late_failed, "answers checked after the window");
  }

  r.series("refresh_small_s", updates.small_latency_s, 1.0, "s");
  r.series("refresh_large_s", updates.large_latency_s, 1.0, "s");
  r.series("update_late_s", updates.late_s, 1.0, "s");
  if (a.trace) {
    r.metric("serve.refresh_small_s", median(updates.small_latency_s), "s");
    r.metric("serve.refresh_large_s", median(updates.large_latency_s), "s");
    r.metric("serve.refresh_delta_busy_s", median_or_zero(updates.delta_busy_s),
             "s");
    r.metric("serve.refresh_full_busy_s", median(updates.full_busy_s), "s");
    r.metric("serve.delta_share",
             static_cast<double>(updates.delta_refreshes) /
                 static_cast<double>(updates.small_pushed),
             "ratio");
    r.metric("serve.update_late_ms",
             *std::max_element(updates.late_s.begin(), updates.late_s.end()) *
                 1e3,
             "ms");
    r.metric("algos.delta_iterations", median_or_zero(updates.delta_iterations),
             "count");
  }
  r.outputs(updates.refreshes, updates.failed,
            "refreshes published on the expected path");

  // The final snapshot against a direct run on the refresher's graph.
  const auto want = hipa::algo::run_method_native(
      hipa::algo::Method::kHipa, s->refresher->graph(), refresh_options().full);
  const hipa::serve::SnapshotRef snap = s->store->current();
  const bool same =
      want.ranks.size() == snap->num_vertices() &&
      std::memcmp(want.ranks.data(), snap->ranks().data(),
                  want.ranks.size() * sizeof(rank_t)) == 0;
  r.outputs(1, same ? 0 : 1, "final snapshot vs run_method_native");

  // The partition, pcp and engine layers run inside every full refresh
  // (and publish_initial): measured with the refresh's own settings on
  // the refresher's final graph.
  if (a.trace) {
    const hipa::algo::MethodParams full = refresh_options().full;
    report_hipa_layers(r, s->refresher->graph(), full.threads,
                       hipa::algo::default_partition_bytes(
                           hipa::algo::Method::kHipa, full.scale_denom),
                       full.pr, kEngineLayerSeconds);
  }
}

// ---------------------------------------------------------------------------
// dist-mixed
// ---------------------------------------------------------------------------

namespace {

/// Two shards over an even split of the vertex range and a router with
/// default options. The router stops before the shards it talks to.
struct Fleet {
  std::vector<std::unique_ptr<hipa::shard::ShardServer>> servers;
  std::vector<int> ports;
  std::unique_ptr<hipa::shard::ShardRouter> router;

  ~Fleet() {
    if (router != nullptr) router->stop();
    router.reset();
    for (auto& s : servers) s->stop();
  }
};

std::unique_ptr<Fleet> start_fleet(const std::string& path, vid_t n) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<hipa::shard::ShardTarget> targets;
  for (unsigned s = 0; s < kShards; ++s) {
    hipa::shard::ShardServerOptions opt;
    opt.shard_id = s;
    opt.range = VertexRange{static_cast<vid_t>(std::uint64_t{n} * s / kShards),
                            static_cast<vid_t>(std::uint64_t{n} * (s + 1) /
                                               kShards)};
    opt.graph_path = path;
    opt.topk_k = kIndexDepth;
    fleet->servers.push_back(std::make_unique<hipa::shard::ShardServer>(opt));
    std::unique_ptr<hipa::shard::Listener> listener =
        hipa::shard::listen_tcp("127.0.0.1", 0);
    fleet->ports.push_back(listener->port());
    fleet->servers.back()->serve(std::move(listener));
    targets.push_back(
        hipa::shard::tcp_target("127.0.0.1", fleet->ports.back()));
  }
  fleet->router = std::make_unique<hipa::shard::ShardRouter>(
      std::move(targets), hipa::shard::RouterOptions{});
  return fleet;
}

/// encode_query_batch / decode_answer_batch on one-query envelopes of
/// the mix (the common envelope under two closed-loop clients).
std::pair<double, double> probe_codec_us(
    const hipa::serve::SnapshotStore& store, std::uint64_t seed) {
  const hipa::serve::SnapshotRef snap = store.current();
  MixGen mix(snap->num_vertices(), seed);
  std::vector<double> enc, dec;
  for (unsigned i = 0; i < kProbeQueries; ++i) {
    hipa::shard::QueryBatch qb;
    qb.request_id = i;
    qb.queries.push_back(mix.next());
    enc.push_back(timed([&] { (void)hipa::shard::encode_query_batch(qb); }));
    const QueryResult res = hipa::serve::evaluate(*snap, qb.queries[0]);
    hipa::shard::AnswerBatch ab;
    ab.request_id = i;
    ab.epoch = res.epoch;
    ab.answers.push_back(hipa::shard::Answer{res.ranks, res.topk});
    const hipa::shard::Frame f = hipa::shard::encode_answer_batch(ab);
    dec.push_back(timed([&] {
      HIPA_CHECK(hipa::shard::decode_answer_batch(f).has_value(),
                 "answer envelope failed to decode");
    }));
  }
  return {p50_us(enc), p50_us(dec)};
}

/// p50 of a status round trip over one TCP connection to a shard.
double probe_wire_rtt_us(int port) {
  std::unique_ptr<hipa::shard::Conn> conn =
      hipa::shard::connect_tcp("127.0.0.1", port);
  HIPA_CHECK(conn != nullptr, "cannot connect to shard port " << port);
  const hipa::shard::Frame status = hipa::shard::encode_status();
  std::vector<double> s;
  for (unsigned i = 0; i < kProbeQueries / 10; ++i) {
    hipa::shard::Frame reply;
    s.push_back(timed([&] {
      HIPA_CHECK(conn->send(status) && conn->recv(&reply),
                 "status round trip failed");
    }));
    HIPA_CHECK(hipa::shard::decode_status_reply(reply).has_value(),
               "malformed status reply");
  }
  conn->close();
  return p50_us(s);
}

}  // namespace

void run_dist_mixed(const Args& a, Report& r) {
  const GeneratedGraph in = generate(kJournal, kServeScale, a.seed, false);
  print_input("journal", kJournal, kServeScale, in);
  const vid_t n = in.graph.num_vertices();
  const ScratchFile file(a, "dist.hcsr");
  const double convert_s = timed([&] {
    hipa::graph::save_segmented_csr(file.path, in.graph, 256u << 10);
  });

  // Reference: the recompute every shard runs at its first epoch, over
  // the whole file, served by one in-process store at epoch 1.
  const hipa::shard::ShardServerOptions shard_defaults;
  hipa::engine::OocoreOptions shard_oo;
  shard_oo.num_threads = shard_defaults.compute_threads;
  shard_oo.resident_budget_bytes = shard_defaults.resident_budget_bytes;
  const hipa::engine::PageRankOptions shard_pr(shard_defaults.iterations,
                                               shard_defaults.damping);
  hipa::serve::SnapshotStore ref_store(n, store_options());
  {
    hipa::engine::NativeBackend backend;
    hipa::engine::OocoreEngine eng(file.path, shard_oo, backend);
    ref_store.publish(eng.run(shard_pr).ranks);
  }
  const auto expected = expected_from(ref_store.current()->ranks());
  std::vector<ClientLog> logs(kClients);

  reset_peak_rss();
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (unsigned k = 0; k < kSetupReps; ++k) {
    fleet.reset();
    setup_s.push_back(timed([&] { fleet = start_fleet(file.path, n); }));
  }
  const double peak = peak_rss_mib();
  hipa::shard::ShardRouter& router = *fleet->router;
  const auto routed = [&](unsigned, const Query& q, ClientLog& log) {
    hipa::shard::RouterResult res;
    log.record(timed([&] { res = router.execute(q); }));
    if (!res.ok || res.result.epoch != 1 ||
        !answer_matches(*expected, q, res.result)) {
      ++log.failed;
    }
  };

  if (!a.trace) {
    LoadResult l;
    steady_window(r, [&] {
      l = closed_loop(logs, a.seconds, n, sub_seed(a.seed, 3), routed);
      r.outputs(l.queries, l.failed, "routed answers vs single process");
    });
    report_load(r, "dist", l);
    report_end_to_end(r, setup_s, peak, l);
    return;
  }

  const auto [encode_us, decode_us] =
      probe_codec_us(ref_store, sub_seed(a.seed, 7));
  const double rtt = probe_wire_rtt_us(fleet->ports[0]);
  const EvaluateProbe ev = probe_evaluate(ref_store, sub_seed(a.seed, 4));
  hipa::serve::RankService local(ref_store, service_options());
  const double dispatch =
      probe_dispatch_us(local, n, sub_seed(a.seed, 5), ev.point_us);
  const double publish = probe_publish_ms(ref_store.current()->ranks());

  const hipa::shard::RouterStats before = router.stats();
  const LoadResult plain =
      closed_loop(logs, a.seconds / 2, n, sub_seed(a.seed, 3), routed);
  const hipa::shard::RouterStats after = router.stats();

  // Router tax: the same graph and mix on the in-process service.
  const LoadResult inproc = closed_loop(
      logs, a.seconds / 2, n, sub_seed(a.seed, 8),
      [&](unsigned, const Query& q, ClientLog& log) {
        QueryResult res;
        log.record(timed([&] { res = local.execute(q); }));
        if (!answer_matches(*expected, q, res)) ++log.failed;
      });

  report_load(r, "dist", plain);
  report_load(r, "in-process", inproc);
  const double p50_plain = plain.p50_s() * 1e6;
  const double p50_inproc = inproc.p50_s() * 1e6;
  r.metric("graph.convert_s", convert_s, "s");
  r.metric("serve.evaluate_us", ev.mix_us, "us");
  r.metric("serve.dispatch_us", dispatch, "us");
  r.metric("serve.unaccounted_frac",
           (p50_inproc - ev.mix_us - dispatch) / p50_inproc, "ratio");
  r.metric("serve.publish_ms", publish, "ms");
  r.metric("serve.query_p99_us", p99_us_or_zero(r, plain.latency_s), "us");
  r.metric("shard.encode_us", encode_us, "us");
  r.metric("shard.decode_us", decode_us, "us");
  r.metric("shard.wire_rtt_us", rtt, "us");
  r.metric("shard.envelopes_per_request",
           static_cast<double>(after.envelopes_sent - before.envelopes_sent) /
               static_cast<double>(after.requests - before.requests),
           "ratio");
  r.metric("shard.router_tax_us", p50_plain - p50_inproc, "us");
  r.outputs(plain.queries + inproc.queries, plain.failed + inproc.failed,
            "routed and in-process answers vs single process");

  // The segment-read and engine layers run in every shard's recompute
  // (each shard's first epoch, inside setup): measured with the shards'
  // own settings on the file they serve.
  report_oocore_layers(r, file.path, shard_oo, shard_pr, kEngineLayerSeconds);
}

}  // namespace perfbench
