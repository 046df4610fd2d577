#include "serve/updates.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "engines/backend.hpp"
#include "engines/metrics_bridge.hpp"

namespace hipa::serve {

// ---------------------------------------------------------------------------
// UpdateQueue
// ---------------------------------------------------------------------------

UpdateQueue::~UpdateQueue() {
  Node* n = head_.exchange(nullptr, std::memory_order_acquire);
  while (n != nullptr) {
    Node* next = n->next;
    delete n;
    n = next;
  }
}

void UpdateQueue::push(EdgeUpdate u) {
  Node* node = new Node{u, nullptr};
  // Treiber push: link onto the current head until the CAS wins. The
  // release pairs with drain()'s acquire exchange, publishing the
  // node's contents to the consumer.
  Node* head = head_.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!head_.compare_exchange_weak(head, node,
                                        std::memory_order_release,
                                        std::memory_order_relaxed));
  pushed_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<EdgeUpdate> UpdateQueue::drain() {
  // One atomic exchange detaches the whole pending stack; nothing a
  // producer pushes afterwards is part of this batch.
  Node* n = head_.exchange(nullptr, std::memory_order_acquire);
  std::vector<EdgeUpdate> out;
  while (n != nullptr) {
    out.push_back(n->update);
    Node* next = n->next;
    delete n;
    n = next;
  }
  // The stack yields newest-first; callers want arrival order.
  std::reverse(out.begin(), out.end());
  drained_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// UpdateRefresher
// ---------------------------------------------------------------------------

UpdateRefresher::UpdateRefresher(vid_t num_vertices,
                                 std::vector<Edge> edges,
                                 SnapshotStore& store, UpdateQueue& queue,
                                 RefreshOptions opt)
    : num_vertices_(num_vertices),
      edges_(std::move(edges)),
      store_(store),
      queue_(queue),
      opt_(std::move(opt)) {
  HIPA_CHECK(num_vertices_ == store_.num_vertices(),
             "refresher vertex count " << num_vertices_
                                       << " != store vertices "
                                       << store_.num_vertices());
  for (const Edge& e : edges_) {
    HIPA_CHECK(e.src < num_vertices_ && e.dst < num_vertices_,
               "base edge (" << e.src << ", " << e.dst
                             << ") outside vertex universe "
                             << num_vertices_);
  }
  graph_ = graph::build_graph(num_vertices_, edges_, opt_.build);

  if (opt_.metrics) {
    namespace m = runtime::metrics;
    registry_ = opt_.registry != nullptr ? opt_.registry
                                         : &m::MetricsRegistry::global();
    delta_refreshes_metric_ =
        registry_->counter("hipa_refreshes_total", "Refresh cycles by kind",
                           {"kind", "delta"});
    full_refreshes_metric_ =
        registry_->counter("hipa_refreshes_total", "Refresh cycles by kind",
                           {"kind", "full"});
    updates_applied_metric_ = registry_->counter(
        "hipa_updates_applied_total", "Edge updates applied to the graph");
    delta_latency_metric_ = registry_->histogram(
        "hipa_refresh_seconds", "Refresh cycle latency by kind",
        {"kind", "delta"}, /*scale=*/1e-9);
    full_latency_metric_ = registry_->histogram(
        "hipa_refresh_seconds", "Refresh cycle latency by kind",
        {"kind", "full"}, /*scale=*/1e-9);
    batch_updates_metric_ = registry_->histogram(
        "hipa_refresh_batch_updates", "Edge updates per refresh batch");
    publish_epoch_metric_ = registry_->gauge(
        "hipa_publish_epoch", "Last epoch published by the refresher");
    queue_lag_metric_ = registry_->gauge(
        "hipa_update_queue_lag", "Updates still pending after a drain");
  }
}

UpdateRefresher::~UpdateRefresher() { stop(); }

engine::RunResult UpdateRefresher::full_run() {
  // Route through the kernel-generic facade, honoring the configured
  // rank-producing kernel (the snapshot store serves rank_t vectors,
  // so only the PageRank family can back a refresh).
  switch (opt_.full.kernel) {
    case algo::Kernel::kPageRank:
      return algo::run_method_native(opt_.full_method, graph_, opt_.full);
    case algo::Kernel::kPersonalized: {
      auto kr = algo::run_kernel_native<engine::PprKernel>(
          opt_.full_method, graph_, opt_.full.personalized, opt_.full);
      engine::RunResult result;
      result.report = std::move(kr.report);
      result.ranks = std::move(kr.values);
      return result;
    }
    case algo::Kernel::kBfs:
    case algo::Kernel::kWcc:
    case algo::Kernel::kSssp:
      break;
  }
  HIPA_CHECK(false, "refresh kernel must be rank-valued (pagerank or ppr), "
                    "got "
                        << algo::kernel_name(opt_.full.kernel));
  __builtin_unreachable();
}

std::uint64_t UpdateRefresher::publish_initial() {
  std::lock_guard<std::mutex> lock(refresh_mutex_);
  Timer timer;
  const engine::RunResult result = full_run();
  full_refreshes_.fetch_add(1, std::memory_order_relaxed);
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t epoch = store_.publish(result);
  full_refreshes_metric_.inc();
  full_latency_metric_.record(
      runtime::metrics::seconds_to_ns(timer.seconds()));
  publish_epoch_metric_.set(static_cast<std::int64_t>(epoch));
  if (registry_ != nullptr) {
    engine::fold_run_metrics(*registry_, result.report);
  }
  return epoch;
}

void UpdateRefresher::apply(const std::vector<EdgeUpdate>& updates) {
  for (const EdgeUpdate& u : updates) {
    HIPA_CHECK(u.edge.src < num_vertices_ && u.edge.dst < num_vertices_,
               "update edge (" << u.edge.src << ", " << u.edge.dst
                               << ") outside vertex universe "
                               << num_vertices_);
    if (u.remove) {
      // Drop every occurrence (parallel edges included).
      edges_.erase(std::remove(edges_.begin(), edges_.end(), u.edge),
                   edges_.end());
    } else {
      edges_.push_back(u.edge);
    }
  }
}

RefreshReport UpdateRefresher::refresh_now() {
  std::lock_guard<std::mutex> lock(refresh_mutex_);
  RefreshReport report;
  const std::vector<EdgeUpdate> batch = queue_.drain();
  if (batch.empty()) return report;

  Timer timer;
  apply(batch);
  // Rebuild the CSR bundle; the builder's canonicalization (sorted,
  // deduplicated) keeps repeated inserts idempotent.
  graph_ = graph::build_graph(num_vertices_, edges_, opt_.build);

  report.updates_applied = batch.size();
  report.full_run = batch.size() > opt_.small_batch_max;
  if (report.full_run) {
    const engine::RunResult result = full_run();
    report.iterations = result.report.iterations;
    report.epoch = store_.publish(result);
    full_refreshes_.fetch_add(1, std::memory_order_relaxed);
    if (registry_ != nullptr) {
      engine::fold_run_metrics(*registry_, result.report);
    }
  } else {
    engine::NativeBackend backend;
    const algo::DeltaResult result =
        algo::pagerank_delta(graph_, opt_.delta, backend);
    report.iterations = result.iterations;
    report.epoch = store_.publish(std::span<const rank_t>(result.ranks));
    delta_refreshes_.fetch_add(1, std::memory_order_relaxed);
  }
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  report.seconds = timer.seconds();

  const std::uint64_t wall_ns = runtime::metrics::seconds_to_ns(report.seconds);
  if (report.full_run) {
    full_refreshes_metric_.inc();
    full_latency_metric_.record(wall_ns);
  } else {
    delta_refreshes_metric_.inc();
    delta_latency_metric_.record(wall_ns);
  }
  updates_applied_metric_.inc(batch.size());
  batch_updates_metric_.record(batch.size());
  publish_epoch_metric_.set(static_cast<std::int64_t>(report.epoch));
  queue_lag_metric_.set(
      static_cast<std::int64_t>(queue_.approx_pending()));
  return report;
}

void UpdateRefresher::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] { background_loop(); });
}

void UpdateRefresher::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void UpdateRefresher::background_loop() {
  const auto poll = std::chrono::duration<double>(opt_.poll_seconds);
  while (running_.load(std::memory_order_acquire)) {
    if (queue_.approx_pending() > 0) {
      (void)refresh_now();
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait_for(lock, poll, [this] {
      return !running_.load(std::memory_order_acquire);
    });
  }
  // Final drain so updates pushed just before stop() are not lost.
  if (queue_.approx_pending() > 0) (void)refresh_now();
}

}  // namespace hipa::serve
