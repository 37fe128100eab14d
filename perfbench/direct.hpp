// The algo_direct workload: one caller on the C++ drivers (no C boundary,
// service or Runner) over a symmetric R-MAT and a weighted copy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "lagraph/graph.hpp"

namespace perfbench {

inline constexpr int kDirectScale = 15;
inline constexpr int kDirectEdgeFactor = 16;
inline constexpr int kDirectSourcesPerRound = 4;

struct DirectFixture {
  std::shared_ptr<lagraph::Graph> g;   ///< unit weights: pagerank, bfs, cc, tc
  std::shared_ptr<lagraph::Graph> gw;  ///< integer weights in [1, 8]: sssp
  std::vector<Index> sources;
  double rmat_s = 0;
};

std::unique_ptr<DirectFixture> direct_setup(std::uint64_t seed);

struct DirectPhase {
  std::vector<Request> reqs;
  double elapsed_s = 0;
  MemSampler::Windows mem;  ///< per-window memory peaks
  double live_mb_end = 0;
  double ws_reuse_ratio = 0;  ///< caller-thread workspace reuses / checkouts
  SpanLog log;
};

/// Rounds of pagerank, bfs x4, sssp x4, cc and tc for `seconds`, after one
/// unrecorded warm-up round.
DirectPhase direct_phase(const DirectFixture& fx, double seconds, bool trace,
                         std::uint64_t seed, std::uint64_t stream,
                         Clock::time_point origin);

CheckReport check_direct(const DirectFixture& fx,
                         const std::vector<Request>& reqs);

}  // namespace perfbench
