// Compressed Sparse Row graph storage.
//
// A CsrGraph stores one edge direction: `offsets[v] .. offsets[v+1]`
// index into `targets`, giving v's neighbor list. The Graph bundle
// below pairs the out-direction with its transpose (in-direction),
// since PageRank engines need out-degrees (scatter / contribution) and
// in-neighbors (pull / gather).
#pragma once

#include <span>
#include <utility>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace hipa::graph {

/// Single-direction CSR adjacency structure. Immutable after build.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of prebuilt arrays. offsets.size() == V+1,
  /// offsets[0] == 0, offsets[V] == targets.size(), offsets monotone.
  CsrGraph(AlignedBuffer<eid_t> offsets, AlignedBuffer<vid_t> targets);

  [[nodiscard]] vid_t num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<vid_t>(offsets_.size() - 1);
  }
  [[nodiscard]] eid_t num_edges() const {
    return offsets_.empty() ? 0 : offsets_[offsets_.size() - 1];
  }

  /// Degree of v in this direction.
  [[nodiscard]] vid_t degree(vid_t v) const {
    return static_cast<vid_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbor list of v.
  [[nodiscard]] std::span<const vid_t> neighbors(vid_t v) const {
    return {targets_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  [[nodiscard]] std::span<const eid_t> offsets() const {
    return offsets_.span();
  }
  [[nodiscard]] std::span<const vid_t> targets() const {
    return targets_.span();
  }

  /// Sum of edges whose endpoints both lie in [r.begin, r.end).
  /// Convenience for partition statistics; O(E) worst case.
  [[nodiscard]] eid_t count_edges_within(VertexRange r) const;

  /// Build the reverse-direction CSR (transpose).
  [[nodiscard]] CsrGraph transpose() const;

 private:
  AlignedBuffer<eid_t> offsets_;
  AlignedBuffer<vid_t> targets_;
};

/// Reciprocal-degree table: inv[v] = 1 / degree(v), exactly 0 for
/// sinks. THE shared owner of the sink-vertex semantics — every engine
/// replaces its per-iteration `deg == 0 ? 0 : x / deg` divide with a
/// branchless `x * inv[v]` multiply (sinks contribute nothing because
/// their reciprocal is an exact +0). Computed once at preprocessing
/// time; `F` picks the engine's arithmetic width (float engines use
/// rank_t, the double-precision Polymer baseline uses double).
/// `degree(v)` reads v's degree from wherever it is kept (a CSR's
/// offsets, a segmented file's degree table); `inv` is caller storage.
template <class F, class Degree>
void fill_inverse_degrees(std::span<F> inv, Degree&& degree) {
  for (vid_t v = 0; v < inv.size(); ++v) {
    const eid_t d = degree(v);
    inv[v] = d == 0 ? F{0} : F{1} / static_cast<F>(d);
  }
}

/// The table for `g` in a buffer of its own.
template <class F>
[[nodiscard]] AlignedBuffer<F> inverse_degrees(const CsrGraph& g) {
  AlignedBuffer<F> inv(g.num_vertices());
  fill_inverse_degrees(inv.span(), [&g](vid_t v) { return g.degree(v); });
  return inv;
}

/// Out + in direction bundle used by the engines.
struct Graph {
  CsrGraph out;  ///< out-edges: scatter direction, out-degrees
  CsrGraph in;   ///< in-edges: pull direction

  [[nodiscard]] vid_t num_vertices() const { return out.num_vertices(); }
  [[nodiscard]] eid_t num_edges() const { return out.num_edges(); }

  /// Construct the bundle from an out-direction CSR (builds transpose).
  static Graph from_out(CsrGraph out_csr) {
    Graph g;
    g.in = out_csr.transpose();
    g.out = std::move(out_csr);
    return g;
  }
};

}  // namespace hipa::graph
