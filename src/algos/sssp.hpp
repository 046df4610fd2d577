// Serial Dijkstra, the correctness oracle for the engines' SsspKernel
// (engines/kernels.hpp). Edge weights are source-determined —
// w(u) = SsspKernel::weight(u), a fixed function of the source vertex
// id — because the PCPM bin format fans one message per (source
// vertex, destination partition) across that partition's destinations
// (DESIGN.md §3.11).
#pragma once

#include <vector>

#include "engines/kernels.hpp"
#include "graph/csr.hpp"

namespace hipa::algo {

/// Finite unreached sentinel shared with the kernel (absorption-proof:
/// sentinel + weight still loses every min against a real distance).
inline constexpr float kSsspUnreached = engine::SsspKernel::kUnreached;

struct SsspResult {
  std::vector<float> distance;  ///< >= kSsspUnreached if not reachable
  std::uint64_t reached = 0;
};

/// Serial Dijkstra reference over the kernel's weight function.
[[nodiscard]] SsspResult sssp_reference(const graph::Graph& g, vid_t source);

}  // namespace hipa::algo
