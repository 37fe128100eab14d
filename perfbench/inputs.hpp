// Seeded input generation: weighted R-MAT graphs, the writer's perturbed
// versions, traversal sources, and the copy into a C-API matrix.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "capi/lagraph_c.h"

namespace perfbench {

/// Edge weight in [1, 8] for the undirected pair {i, j}: integers, so path
/// sums are exact and Bellman-Ford, Dijkstra and the multi-source runs agree
/// bit for bit. The same pair gets the same weight in both directions.
double edge_weight(std::uint64_t seed, Index i, Index j);

/// R-MAT (scale, edge factor) with edge_weight values. `rmat_s` receives the
/// time spent inside lagraph::rmat.
gb::Matrix<double> weighted_rmat(int scale, int edge_factor, std::uint64_t seed,
                                 bool symmetric, double* rmat_s);

/// The same edges with every value 1.0.
gb::Matrix<double> unit_weights(const gb::Matrix<double>& a);

/// Version `k` of `base`: about 0.5% of the edges dropped and as many new
/// random edges added, so it differs from base in about 1% of edges.
gb::Matrix<double> perturb(const gb::Matrix<double>& base, std::uint64_t seed,
                           int k);

/// `k` distinct vertices that have at least one out-edge in every graph.
std::vector<Index> draw_sources(const std::vector<const gb::Matrix<double>*>& gs,
                                std::size_t k, Rng& rng);

/// A C-API copy of `a`.
GrB_Matrix to_capi(const gb::Matrix<double>& a);

}  // namespace perfbench
