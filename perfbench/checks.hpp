// Output checks, run after the timed phases: every result a workload saw is
// compared with a direct driver run on the same graph (bit-identical
// fingerprints), and the driver itself is compared with the textbook
// algorithms in src/reference for a seeded sample of sources.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "lagraph/graph.hpp"
#include "reference/simple_graph.hpp"

namespace perfbench {

struct CheckReport {
  std::size_t checked = 0;       ///< results compared with the direct driver
  std::size_t unattributed = 0;  ///< graph version changed during the request
  std::size_t wrong = 0;         ///< result differs from the direct driver
  std::size_t ref_checked = 0;   ///< driver results compared with src/reference
  std::size_t ref_wrong = 0;
  void add(const CheckReport& o) {
    checked += o.checked;
    unattributed += o.unattributed;
    wrong += o.wrong;
    ref_checked += o.ref_checked;
    ref_wrong += o.ref_wrong;
  }
  bool pass() const { return wrong == 0 && ref_wrong == 0; }
};

/// Expected results for one graph: `g` serves pagerank, bfs, cc and tc,
/// `gw` (weighted) serves sssp. The driver's bfs and sssp results from
/// `ref_sources` are checked against src/reference BFS and Dijkstra, cc
/// against its union-find, tc against a textbook count, and pagerank ranks
/// must form a distribution.
class Oracle {
 public:
  Oracle(std::shared_ptr<const lagraph::Graph> g,
         std::shared_ptr<const lagraph::Graph> gw,
         std::vector<Index> ref_sources);

  /// Compare one observed fingerprint (tc: the triangle count) with the
  /// driver's, reference-checking the driver the first time a key is seen.
  void check(int algo, Index src, std::uint64_t observed, CheckReport& rep);

 private:
  std::uint64_t expected(int algo, Index src, CheckReport& rep);
  bool reference_ok(int algo, Index src, std::uint64_t fingerprint);
  const ref::SimpleGraph& simple(bool weighted);

  std::shared_ptr<const lagraph::Graph> g_, gw_;
  std::set<Index> ref_sources_;
  std::map<std::pair<int, Index>, std::uint64_t> memo_;
  std::unique_ptr<ref::SimpleGraph> sg_, sgw_;
};

}  // namespace perfbench
