#include "algos/bfs.hpp"

#include <algorithm>
#include <queue>

namespace hipa::algo {

BfsResult bfs_reference(const graph::Graph& g, vid_t source) {
  const vid_t n = g.num_vertices();
  HIPA_CHECK(source < n, "source out of range");
  BfsResult result;
  result.distance.assign(n, kUnreached);
  result.distance[source] = 0;
  result.reached = 1;
  std::queue<vid_t> queue;
  queue.push(source);
  while (!queue.empty()) {
    const vid_t v = queue.front();
    queue.pop();
    for (vid_t u : g.out.neighbors(v)) {
      if (result.distance[u] == kUnreached) {
        result.distance[u] = result.distance[v] + 1;
        result.levels = std::max(result.levels, result.distance[u]);
        ++result.reached;
        queue.push(u);
      }
    }
  }
  return result;
}

}  // namespace hipa::algo
