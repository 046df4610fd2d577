#include "algos/sssp.hpp"

#include <functional>
#include <queue>
#include <utility>

namespace hipa::algo {

SsspResult sssp_reference(const graph::Graph& g, vid_t source) {
  const vid_t n = g.num_vertices();
  HIPA_CHECK(source < n, "source out of range");
  SsspResult result;
  result.distance.assign(n, kSsspUnreached);
  result.distance[source] = 0.0f;
  using Item = std::pair<float, vid_t>;  // (distance, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  pq.emplace(0.0f, source);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > result.distance[v]) continue;  // stale entry
    const float w = engine::SsspKernel::weight(v);
    for (vid_t u : g.out.neighbors(v)) {
      const float nd = d + w;
      if (nd < result.distance[u]) {
        result.distance[u] = nd;
        pq.emplace(nd, u);
      }
    }
  }
  for (float d : result.distance) {
    if (d < kSsspUnreached) ++result.reached;
  }
  return result;
}

}  // namespace hipa::algo
