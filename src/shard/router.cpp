#include "shard/router.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/error.hpp"
#include "serve/topk_index.hpp"

namespace hipa::shard {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Caps of the allocation-free merge fast path; wider fleets or deeper
/// k fall back to the (allocating) cold merge outside the hot region.
constexpr std::size_t kHotMergeParts = 64;
constexpr std::size_t kHotMergeK = 256;

/// Consecutive failed health probes before a shard is kDead.
constexpr unsigned kFailThreshold = 2;
/// Degraded thresholds against the scraped health sample.
constexpr std::int64_t kMaxQueueDepth = 1024;
constexpr std::int64_t kMaxEpochLag = 8;
constexpr double kMaxRefreshP99Seconds = 120.0;
/// Reconnect backoff: the base doubles up to the cap.
constexpr double kBackoffBaseSeconds = 0.05;
constexpr double kBackoffMaxSeconds = 1.0;

// shard-hot-path-begin
// The scatter/merge inner loops below run once per routed request on
// every caller thread; scripts/check_allocations.sh lints this region
// for allocation and locking tokens. Index arithmetic and comparator
// calls only.

/// K-way merge of descending (topk_less-sorted) partials into out.
/// `cursors` must hold `parts_count` zeros on entry. Returns entries
/// written (<= k). Identical selection order to serve::merge_top_k:
/// the global answer is bitwise the single-process answer.
std::size_t merge_sorted_partials(
    const std::span<const serve::TopKEntry>* parts, std::size_t parts_count,
    std::uint32_t* cursors, serve::TopKEntry* out, std::size_t k) {
  std::size_t filled = 0;
  while (filled < k) {
    std::size_t best = parts_count;
    for (std::size_t p = 0; p < parts_count; ++p) {
      if (cursors[p] >= parts[p].size()) continue;
      if (best == parts_count ||
          serve::topk_less(parts[p][cursors[p]],
                           parts[best][cursors[best]])) {
        best = p;
      }
    }
    if (best == parts_count) break;
    out[filled] = parts[best][cursors[best]];
    ++cursors[best];
    ++filled;
  }
  return filled;
}
// shard-hot-path-end

}  // namespace

ShardTarget tcp_target(const std::string& host, int port, int metrics_port) {
  ShardTarget t;
  t.name = host + ":" + std::to_string(port);
  t.connect = [host, port] { return connect_tcp(host, port); };
  t.probe_host = host;
  t.probe_port = metrics_port;
  return t;
}

// ---------------------------------------------------------------------------
// Waiter
// ---------------------------------------------------------------------------

void ShardRouter::Waiter::arrive() {
  // Notify UNDER the lock: the waiter destroys this object the moment
  // wait() returns, so touching cv after unlocking races a spurious
  // wakeup straight into a use-after-free.
  std::lock_guard<std::mutex> lock(mutex);
  --remaining;
  if (remaining == 0) cv.notify_all();
}

void ShardRouter::Waiter::wait() {
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [this] { return remaining == 0; });
}

// ---------------------------------------------------------------------------
// Construction / shard map
// ---------------------------------------------------------------------------

ShardRouter::ShardRouter(std::vector<ShardTarget> targets, RouterOptions opt)
    : opt_(opt) {
  HIPA_CHECK(!targets.empty(), "router needs at least one shard target");
  shards_.reserve(targets.size());
  for (ShardTarget& t : targets) {
    auto st = std::make_unique<ShardState>();
    st->target = std::move(t);
    shards_.push_back(std::move(st));
  }

  // Hello every shard to learn the map. The initial connection is kept
  // and handed to the worker so the first query needs no reconnect.
  std::vector<std::unique_ptr<Conn>> conns(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardState& st = *shards_[s];
    std::unique_ptr<Conn> conn = st.target.connect();
    HIPA_CHECK(conn != nullptr,
               "router: cannot connect shard '" << st.target.name << "'");
    HIPA_CHECK(conn->send(encode_hello(Hello{static_cast<std::uint32_t>(s)})),
               "router: hello send failed for '" << st.target.name << "'");
    Frame f;
    HIPA_CHECK(conn->recv(&f), "router: hello reply lost for '"
                                   << st.target.name << "'");
    const std::optional<HelloAck> ack = decode_hello_ack(f);
    HIPA_CHECK(ack.has_value(), "router: malformed hello ack from '"
                                    << st.target.name << "'");
    st.info = *ack;
    st.last_epoch.store(ack->epoch, std::memory_order_relaxed);
    if (!st.target.probe && !st.target.probe_host.empty()) {
      const int mp = st.target.probe_port > 0
                         ? st.target.probe_port
                         : static_cast<int>(ack->metrics_port);
      if (mp > 0) {
        const std::string host = st.target.probe_host;
        st.target.probe = [host, mp] { return poll_health(host, mp, 0.5); };
      }
    }
    conns[s] = std::move(conn);
  }

  // The shard map must tile [0, V) in target order: contiguous,
  // non-overlapping, complete — the distributed analogue of the
  // snapshot store's node slices.
  num_vertices_ = shards_.front()->info.num_vertices_global;
  topk_k_ = shards_.front()->info.topk_k;
  vid_t expect = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const HelloAck& info = shards_[s]->info;
    HIPA_CHECK(info.num_vertices_global == num_vertices_,
               "shard map: '" << shards_[s]->target.name << "' serves "
                              << info.num_vertices_global << " vertices, "
                              << "fleet serves " << num_vertices_);
    HIPA_CHECK(info.range.begin == expect && info.range.end > info.range.begin,
               "shard map: '" << shards_[s]->target.name << "' owns ["
                              << info.range.begin << ", " << info.range.end
                              << "), expected range starting at " << expect);
    expect = info.range.end;
  }
  HIPA_CHECK(expect == num_vertices_,
             "shard map: ranges cover [0, " << expect << ") of "
                                            << num_vertices_ << " vertices");

  initial_conns_ = std::move(conns);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { worker_loop(s); });
  }
  if (opt_.health_poll_seconds > 0) {
    poll_thread_ = std::thread([this] { poll_loop(); });
  }
}

ShardRouter::~ShardRouter() { stop(); }

void ShardRouter::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(poll_wake_mutex_);
  }
  poll_wake_cv_.notify_all();
  if (poll_thread_.joinable()) poll_thread_.join();
  for (auto& st : shards_) {
    {
      std::lock_guard<std::mutex> lock(st->mutex);
      st->shutdown = true;
    }
    st->cv.notify_all();
  }
  for (auto& st : shards_) {
    if (st->worker.joinable()) st->worker.join();
  }
}

VertexRange ShardRouter::shard_range(std::size_t shard) const {
  return shards_.at(shard)->info.range;
}

ShardHealth ShardRouter::health(std::size_t shard) const {
  return static_cast<ShardHealth>(
      shards_.at(shard)->health.load(std::memory_order_acquire));
}

std::uint64_t ShardRouter::shard_epoch(std::size_t shard) const {
  return shards_.at(shard)->last_epoch.load(std::memory_order_acquire);
}

void ShardRouter::update_target(std::size_t shard, ShardTarget target) {
  ShardState& st = *shards_.at(shard);
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    st.target = std::move(target);
    ++st.target_generation;
  }
  st.cv.notify_all();
}

// shard-hot-path-begin
// Ownership lookup: binary search over the contiguous shard tiling.
std::size_t ShardRouter::owner_of(vid_t v) const {
  std::size_t lo = 0;
  std::size_t hi = shards_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (shards_[mid]->info.range.begin <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}
// shard-hot-path-end

// ---------------------------------------------------------------------------
// Scatter + merge
// ---------------------------------------------------------------------------

namespace {

/// One planned subquery: which shard, what clipped form, and (batch
/// lookups) which original positions its answer scatters back into.
struct SubPlan {
  std::size_t shard = 0;
  serve::Query query;
  std::vector<std::uint32_t> positions;
  bool from_cache = false;
};

/// One sub-answer slot; workers write through Pending's pointers.
struct Sub {
  Answer answer;
  std::uint64_t epoch = 0;
  bool failed = false;
  bool stale = false;
};

}  // namespace

RouterResult ShardRouter::execute(const serve::Query& q) {
  RouterReply reply = execute_batch(std::span<const serve::Query>(&q, 1));
  return std::move(reply.results.front());
}

RouterReply ShardRouter::execute_batch(std::span<const serve::Query> queries) {
  const std::size_t n = queries.size();
  const std::size_t num_shards = shards_.size();
  RouterReply reply;
  reply.results.resize(n);
  if (n == 0) return reply;

  const double enqueue_time = now_seconds();

  // ---- plan: split every query by ownership -------------------------------
  std::vector<std::vector<SubPlan>> plans(n);
  std::vector<std::size_t> shard_touch(num_shards, 0);  // batch scatter scratch
  for (std::size_t i = 0; i < n; ++i) {
    const serve::Query& q = queries[i];
    switch (q.kind) {
      case serve::QueryKind::kPoint: {
        if (q.vertex >= num_vertices_) {
          reply.results[i].ok = false;
          reply.results[i].error = "vertex outside universe";
          break;
        }
        SubPlan p;
        p.shard = owner_of(q.vertex);
        p.query = q;
        plans[i].push_back(std::move(p));
        break;
      }
      case serve::QueryKind::kBatch: {
        bool bad = false;
        for (vid_t v : q.vertices) bad = bad || v >= num_vertices_;
        if (bad) {
          reply.results[i].ok = false;
          reply.results[i].error = "vertex outside universe";
          break;
        }
        // Pre-count per-shard splits (the RankService discipline), then
        // fill each shard's clipped vertex list + position map.
        std::fill(shard_touch.begin(), shard_touch.end(), 0);
        for (vid_t v : q.vertices) ++shard_touch[owner_of(v)];
        std::vector<std::size_t> plan_of(num_shards, SIZE_MAX);
        for (std::size_t s = 0; s < num_shards; ++s) {
          if (shard_touch[s] == 0) continue;
          plan_of[s] = plans[i].size();
          SubPlan p;
          p.shard = s;
          p.query.kind = serve::QueryKind::kBatch;
          p.query.vertices.reserve(shard_touch[s]);
          p.positions.reserve(shard_touch[s]);
          plans[i].push_back(std::move(p));
        }
        for (std::uint32_t pos = 0; pos < q.vertices.size(); ++pos) {
          SubPlan& p = plans[i][plan_of[owner_of(q.vertices[pos])]];
          p.query.vertices.push_back(q.vertices[pos]);
          p.positions.push_back(pos);
        }
        break;
      }
      case serve::QueryKind::kTopK: {
        // Fan out to every shard whose slice intersects the requested
        // range (all of them for a global query); a dead or degraded
        // shard's partial is substituted from its cache at merge time
        // instead of being waited on.
        for (std::size_t s = 0; s < num_shards; ++s) {
          const VertexRange owned = shards_[s]->info.range;
          if (!q.topk.global() && (q.topk.range.end <= owned.begin ||
                                   q.topk.range.begin >= owned.end)) {
            continue;
          }
          SubPlan p;
          p.shard = s;
          p.query = q;
          const auto h = static_cast<ShardHealth>(
              shards_[s]->health.load(std::memory_order_acquire));
          p.from_cache = q.topk.global() && h != ShardHealth::kAlive;
          plans[i].push_back(std::move(p));
        }
        break;
      }
    }
  }

  // ---- sub-answer slots (stable addresses for the workers) ----------------
  std::size_t total_subs = 0;
  for (const auto& ps : plans) total_subs += ps.size();
  std::vector<Sub> subs(total_subs);
  std::vector<std::size_t> sub_base(n, 0);

  Waiter waiter;
  waiter.remaining = 1;  // guard against arrivals racing the enqueue loop
  std::vector<std::vector<Pending>> to_enqueue(num_shards);
  {
    std::size_t base = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sub_base[i] = base;
      for (const SubPlan& p : plans[i]) {
        Sub& sub = subs[base++];
        if (p.from_cache) {
          ShardState& st = *shards_[p.shard];
          std::lock_guard<std::mutex> lock(st.cache_mutex);
          if (st.cached_topk_k == 0) {
            sub.failed = true;  // dead shard, nothing cached yet
          } else {
            sub.answer.topk = st.cached_topk;
            sub.epoch = st.cached_topk_epoch;
            sub.stale = true;
          }
          continue;
        }
        Pending pend;
        pend.query = p.query;
        pend.answer = &sub.answer;
        pend.epoch = &sub.epoch;
        pend.failed = &sub.failed;
        pend.stale = &sub.stale;
        pend.waiter = &waiter;
        pend.enqueued_at = enqueue_time;
        to_enqueue[p.shard].push_back(std::move(pend));
        {
          std::lock_guard<std::mutex> lock(waiter.mutex);
          ++waiter.remaining;
        }
      }
    }
  }

  // ---- coalesce: one queue splice + wake per shard ------------------------
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (to_enqueue[s].empty()) continue;
    ShardState& st = *shards_[s];
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      for (Pending& p : to_enqueue[s]) st.queue.push_back(std::move(p));
    }
    st.cv.notify_one();
  }
  waiter.arrive();  // drop the guard
  waiter.wait();

  // ---- merge --------------------------------------------------------------
  std::array<std::span<const serve::TopKEntry>, kHotMergeParts> parts;
  std::array<std::uint32_t, kHotMergeParts> cursors;
  std::array<serve::TopKEntry, kHotMergeK> merge_buf;
  std::uint64_t any_min = 0;
  std::uint64_t any_max = 0;
  bool any_epoch = false;
  std::uint64_t stale_merges = 0;
  std::uint64_t mixed_merges = 0;

  for (std::size_t i = 0; i < n; ++i) {
    RouterResult& r = reply.results[i];
    if (!r.ok || plans[i].empty()) {
      if (r.ok && queries[i].kind == serve::QueryKind::kTopK) {
        r.result.epoch = 0;  // empty-range top-k: nothing to merge
      }
      continue;
    }
    const std::span<Sub> my_subs(subs.data() + sub_base[i],
                                 plans[i].size());
    std::uint64_t emin = 0;
    std::uint64_t emax = 0;
    bool first = true;
    for (const Sub& sub : my_subs) {
      if (sub.failed) {
        r.ok = false;
        r.error = "shard unavailable";
        break;
      }
      if (first) {
        emin = emax = sub.epoch;
        first = false;
      } else {
        emin = std::min(emin, sub.epoch);
        emax = std::max(emax, sub.epoch);
      }
      r.stale = r.stale || sub.stale;
    }
    if (!r.ok) continue;
    r.result.epoch = emax;
    r.mixed_epochs = emin != emax;
    if (!any_epoch) {
      any_min = emin;
      any_max = emax;
      any_epoch = true;
    } else {
      any_min = std::min(any_min, emin);
      any_max = std::max(any_max, emax);
    }
    if (r.mixed_epochs) ++mixed_merges;
    if (r.stale) ++stale_merges;

    switch (queries[i].kind) {
      case serve::QueryKind::kPoint:
        r.result.ranks = std::move(my_subs[0].answer.ranks);
        break;
      case serve::QueryKind::kBatch: {
        r.result.ranks.resize(queries[i].vertices.size());
        for (std::size_t p = 0; p < plans[i].size(); ++p) {
          const SubPlan& plan = plans[i][p];
          const Answer& a = my_subs[p].answer;
          // shard-hot-path-begin
          // Scatter-back: sub-answer j lands at its recorded original
          // position; pure indexed stores.
          for (std::size_t j = 0; j < plan.positions.size(); ++j) {
            r.result.ranks[plan.positions[j]] = a.ranks[j];
          }
          // shard-hot-path-end
        }
        break;
      }
      case serve::QueryKind::kTopK: {
        const std::size_t k = queries[i].topk.k;
        if (my_subs.size() <= kHotMergeParts && k <= kHotMergeK) {
          for (std::size_t p = 0; p < my_subs.size(); ++p) {
            parts[p] = my_subs[p].answer.topk;
            cursors[p] = 0;
          }
          const std::size_t filled = merge_sorted_partials(
              parts.data(), my_subs.size(), cursors.data(),
              merge_buf.data(), k);
          r.result.topk.assign(merge_buf.data(), merge_buf.data() + filled);
        } else {
          // Cold shape (huge k or absurd fleet width): the shared
          // serve-layer merge.
          std::vector<std::vector<serve::TopKEntry>> partials;
          partials.reserve(my_subs.size());
          for (Sub& sub : my_subs) {
            partials.push_back(std::move(sub.answer.topk));
          }
          r.result.topk =
              serve::merge_top_k(partials, static_cast<unsigned>(k));
        }
        break;
      }
    }
  }
  reply.min_epoch = any_min;
  reply.max_epoch = any_max;
  reply.mixed_epochs = mixed_merges > 0 || (any_epoch && any_min != any_max);

  stats_requests_.fetch_add(n, std::memory_order_relaxed);
  stats_stale_.fetch_add(stale_merges, std::memory_order_relaxed);
  stats_mixed_.fetch_add(mixed_merges, std::memory_order_relaxed);
  return reply;
}

// ---------------------------------------------------------------------------
// Worker: per-shard envelope round-trips + reconnect/backoff
// ---------------------------------------------------------------------------

void ShardRouter::fail_expired(ShardState& st, double now) {
  // Called under st.mutex. Old entries fail in place; arrival order of
  // the survivors is preserved.
  std::deque<Pending> keep;
  while (!st.queue.empty()) {
    Pending p = std::move(st.queue.front());
    st.queue.pop_front();
    if (now - p.enqueued_at > opt_.query_timeout_seconds) {
      *p.failed = true;
      p.waiter->arrive();
      stats_timeouts_.fetch_add(1, std::memory_order_relaxed);
    } else {
      keep.push_back(std::move(p));
    }
  }
  st.queue.swap(keep);
}

void ShardRouter::settle_dead_topk(ShardState& st) {
  // Called under st.mutex once the shard is marked dead. Mirrors the
  // plan-time cache substitution for queries that were already in the
  // queue when the shard died: a stale-but-correct partial now beats
  // an answer after query_timeout. Point/batch lookups have no
  // substitute and keep waiting for the reconnect.
  std::deque<Pending> keep;
  while (!st.queue.empty()) {
    Pending p = std::move(st.queue.front());
    st.queue.pop_front();
    bool served = false;
    if (p.query.kind == serve::QueryKind::kTopK && p.query.topk.global()) {
      std::lock_guard<std::mutex> cache_lock(st.cache_mutex);
      if (st.cached_topk_k != 0) {
        p.answer->topk = st.cached_topk;
        *p.epoch = st.cached_topk_epoch;
        *p.stale = true;
        served = true;
      }
    }
    if (served) {
      p.waiter->arrive();
    } else {
      keep.push_back(std::move(p));
    }
  }
  st.queue.swap(keep);
}

bool ShardRouter::round_trip(ShardState& st, Conn& conn,
                             std::vector<Pending>& batch) {
  QueryBatch qb;
  qb.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  qb.queries.reserve(batch.size());
  for (const Pending& p : batch) qb.queries.push_back(p.query);
  if (!conn.send(encode_query_batch(qb))) return false;

  Frame f;
  while (conn.recv(&f)) {
    if (f.type == MsgType::kRepublishNotice) {
      const std::optional<RepublishNotice> notice =
          decode_republish_notice(f);
      if (notice.has_value()) {
        st.last_epoch.store(notice->epoch, std::memory_order_release);
        stats_notices_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (f.type == MsgType::kError) {
      // The shard rejected this envelope (router bug / map drift); the
      // connection itself is still good.
      for (Pending& p : batch) {
        *p.failed = true;
        p.waiter->arrive();
      }
      return true;
    }
    if (f.type != MsgType::kAnswerBatch) return false;
    std::optional<AnswerBatch> ab = decode_answer_batch(f);
    if (!ab.has_value() || ab->request_id != qb.request_id ||
        ab->answers.size() != batch.size()) {
      return false;
    }
    st.last_epoch.store(ab->epoch, std::memory_order_release);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Refresh the failover cache from full global top-k answers
      // before the entry is consumed.
      const serve::Query& q = batch[i].query;
      if (q.kind == serve::QueryKind::kTopK && q.topk.global()) {
        std::lock_guard<std::mutex> lock(st.cache_mutex);
        if (ab->epoch > st.cached_topk_epoch ||
            (ab->epoch == st.cached_topk_epoch &&
             q.topk.k >= st.cached_topk_k)) {
          st.cached_topk = ab->answers[i].topk;
          st.cached_topk_epoch = ab->epoch;
          st.cached_topk_k = q.topk.k;
        }
      }
      *batch[i].answer = std::move(ab->answers[i]);
      *batch[i].epoch = ab->epoch;
      batch[i].waiter->arrive();
    }
    stats_envelopes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ShardRouter::worker_loop(std::size_t s) {
  ShardState& st = *shards_[s];
  std::unique_ptr<Conn> conn = std::move(initial_conns_[s]);
  double backoff = kBackoffBaseSeconds;
  std::uint32_t seen_generation = 0;
  std::vector<Pending> batch;

  for (;;) {
    ShardTarget target;
    {
      std::unique_lock<std::mutex> lock(st.mutex);
      // Disconnected workers never park: the reconnect path below
      // paces itself with the backoff wait, and keeps re-helloing even
      // with an empty queue so a restarted shard re-registers (and the
      // fleet heals) without waiting for the next owner-bound query.
      st.cv.wait(lock, [&] {
        return st.shutdown || !st.queue.empty() ||
               st.target_generation != seen_generation || conn == nullptr;
      });
      if (st.shutdown) break;
      if (st.target_generation != seen_generation) {
        seen_generation = st.target_generation;
        if (conn != nullptr) conn->close();
        conn.reset();  // the replacement target owns the link now
      }
      if (conn != nullptr) {
        // Coalesce: take EVERYTHING pending into one envelope.
        batch.clear();
        while (!st.queue.empty()) {
          batch.push_back(std::move(st.queue.front()));
          st.queue.pop_front();
        }
      }
      target = st.target;  // copy closures for use outside the lock
    }

    if (conn == nullptr) {
      if (stopping_.load(std::memory_order_acquire)) break;
      std::unique_ptr<Conn> fresh = target.connect();
      bool ok = fresh != nullptr;
      if (ok) {
        ok = fresh->send(
            encode_hello(Hello{static_cast<std::uint32_t>(s)}));
        Frame f;
        ok = ok && fresh->recv(&f);
        const std::optional<HelloAck> ack =
            ok ? decode_hello_ack(f) : std::nullopt;
        // A reborn shard must still own the same slice — anything else
        // is a different fleet and routing to it would corrupt answers.
        ok = ack.has_value() && ack->range == st.info.range &&
             ack->num_vertices_global == num_vertices_;
        if (ok) {
          st.last_epoch.store(ack->epoch, std::memory_order_release);
          conn = std::move(fresh);
        }
      }
      if (ok) {
        const auto prev = static_cast<ShardHealth>(st.health.exchange(
            static_cast<int>(ShardHealth::kAlive),
            std::memory_order_acq_rel));
        if (prev == ShardHealth::kDead) {
          stats_failovers_.fetch_add(1, std::memory_order_relaxed);
        }
        st.probe_failures.store(0, std::memory_order_relaxed);
        stats_reconnects_.fetch_add(1, std::memory_order_relaxed);
        backoff = kBackoffBaseSeconds;
        continue;  // next iteration drains the queue
      }
      // Connect failed: the shard is dead until a hello succeeds.
      st.health.store(static_cast<int>(ShardHealth::kDead),
                      std::memory_order_release);
      std::unique_lock<std::mutex> lock(st.mutex);
      settle_dead_topk(st);
      fail_expired(st, now_seconds());
      // update_target interrupts the backoff (a respawned shard on a
      // new port should not wait out the old target's penalty).
      st.cv.wait_for(lock, std::chrono::duration<double>(backoff), [&] {
        return st.shutdown || st.target_generation != seen_generation;
      });
      backoff = std::min(backoff * 2.0, kBackoffMaxSeconds);
      continue;
    }

    if (batch.empty()) continue;
    if (round_trip(st, *conn, batch)) {
      // Every entry was answered (or failed) and arrived — drop them
      // NOW: anything left in `batch` at shutdown is failed+arrived a
      // second time, against a caller stack frame that already
      // returned.
      batch.clear();
    } else {
      // Broken mid-flight: the envelope is unanswered, the shard is
      // suspect. Requeue IN ORDER at the front and enter the
      // reconnect path.
      conn->close();
      conn.reset();
      st.health.store(static_cast<int>(ShardHealth::kDead),
                      std::memory_order_release);
      std::lock_guard<std::mutex> lock(st.mutex);
      for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
        st.queue.push_front(std::move(*it));
      }
      batch.clear();
      settle_dead_topk(st);
    }
  }

  // Shutdown: nothing more will be sent; fail everything still queued
  // or held so no caller blocks forever.
  if (conn != nullptr) conn->close();
  for (Pending& p : batch) {
    *p.failed = true;
    p.waiter->arrive();
  }
  std::lock_guard<std::mutex> lock(st.mutex);
  while (!st.queue.empty()) {
    Pending& p = st.queue.front();
    *p.failed = true;
    p.waiter->arrive();
    st.queue.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Health poller
// ---------------------------------------------------------------------------

void ShardRouter::poll_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(poll_wake_mutex_);
      poll_wake_cv_.wait_for(
          lock, std::chrono::duration<double>(opt_.health_poll_seconds),
          [this] { return stopping_.load(std::memory_order_acquire); });
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    for (auto& stp : shards_) {
      ShardState& st = *stp;
      std::function<std::optional<HealthSample>()> probe;
      {
        std::lock_guard<std::mutex> lock(st.mutex);
        probe = st.target.probe;
      }
      if (!probe) continue;
      const std::optional<HealthSample> h = probe();
      if (!h.has_value()) {
        const unsigned fails =
            st.probe_failures.fetch_add(1, std::memory_order_relaxed) + 1;
        if (fails >= kFailThreshold) {
          st.health.store(static_cast<int>(ShardHealth::kDead),
                          std::memory_order_release);
        }
        continue;
      }
      st.probe_failures.store(0, std::memory_order_relaxed);
      // Only the worker's successful hello resurrects a dead shard —
      // a live metrics port with a dead query port must not re-route.
      if (static_cast<ShardHealth>(st.health.load(
              std::memory_order_acquire)) == ShardHealth::kDead) {
        continue;
      }
      const bool drowning = h->queue_depth > kMaxQueueDepth ||
                            h->epoch_lag > kMaxEpochLag ||
                            h->refresh_p99_seconds >
                                kMaxRefreshP99Seconds;
      st.health.store(static_cast<int>(drowning ? ShardHealth::kDegraded
                                                : ShardHealth::kAlive),
                      std::memory_order_release);
    }
  }
}

RouterStats ShardRouter::stats() const {
  RouterStats s;
  s.requests = stats_requests_.load(std::memory_order_relaxed);
  s.envelopes_sent = stats_envelopes_.load(std::memory_order_relaxed);
  s.reconnects = stats_reconnects_.load(std::memory_order_relaxed);
  s.failovers = stats_failovers_.load(std::memory_order_relaxed);
  s.stale_merges = stats_stale_.load(std::memory_order_relaxed);
  s.mixed_epoch_merges = stats_mixed_.load(std::memory_order_relaxed);
  s.republish_notices = stats_notices_.load(std::memory_order_relaxed);
  s.timeouts = stats_timeouts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hipa::shard
