#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lagraph/lagraph.hpp"

namespace perfbench {

namespace {

/// Fingerprint of the direct driver result the serving layer would return.
std::uint64_t driver_fingerprint(const lagraph::Graph& g,
                                 const lagraph::Graph& gw, int algo, Index src) {
  switch (algo) {
    case kPagerank:
      return hash_vector(lagraph::pagerank(g, 0.85, 1e-9, 100).rank);
    case kBfs:
      return hash_vector(
          lagraph::bfs(g, src, lagraph::BfsVariant::direction_optimizing).level);
    case kSssp:
      return hash_vector(lagraph::sssp_bellman_ford(gw, src).dist);
    case kCc:
      return hash_vector(lagraph::connected_components_run(g).labels);
    default:
      return lagraph::triangle_count(g, lagraph::TriangleMethod::sandia_ll);
  }
}

}  // namespace

Oracle::Oracle(std::shared_ptr<const lagraph::Graph> g,
               std::shared_ptr<const lagraph::Graph> gw,
               std::vector<Index> ref_sources)
    : g_(std::move(g)),
      gw_(std::move(gw)),
      ref_sources_(ref_sources.begin(), ref_sources.end()) {}

void Oracle::check(int algo, Index src, std::uint64_t observed,
                   CheckReport& rep) {
  ++rep.checked;
  if (expected(algo, src, rep) != observed) ++rep.wrong;
}

std::uint64_t Oracle::expected(int algo, Index src, CheckReport& rep) {
  const auto key = std::make_pair(algo, src);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const std::uint64_t h = driver_fingerprint(*g_, *gw_, algo, src);
  const bool sampled = (algo != kBfs && algo != kSssp) || ref_sources_.count(src);
  if (sampled) {
    ++rep.ref_checked;
    if (!reference_ok(algo, src, h)) ++rep.ref_wrong;
  }
  memo_.emplace(key, h);
  return h;
}

const ref::SimpleGraph& Oracle::simple(bool weighted) {
  auto& slot = weighted ? sgw_ : sg_;
  if (!slot) {
    slot = std::make_unique<ref::SimpleGraph>(
        ref::SimpleGraph::from_matrix((weighted ? gw_ : g_)->adj()));
  }
  return *slot;
}

namespace {

/// Dense copy of a sparse result; absent entries read `absent`.
template <class T, class U>
std::vector<U> densify(const gb::Vector<T>& v, U absent) {
  std::vector<U> out(v.size(), absent);
  std::vector<Index> idx;
  std::vector<T> vals;
  v.extract_tuples(idx, vals);
  for (std::size_t k = 0; k < idx.size(); ++k) out[idx[k]] = static_cast<U>(vals[k]);
  return out;
}

/// Textbook "forward" triangle count on the undirected simple view: orient
/// each edge from lower to higher (degree, id) rank and intersect the sorted
/// out-lists. Same answer as ref::count_triangles, in near-linear time.
std::uint64_t forward_triangles(const ref::SimpleGraph& sg) {
  std::vector<std::vector<Index>> nb(sg.n);
  for (Index u = 0; u < sg.n; ++u) {
    for (const auto& [v, w] : sg.adj[u]) {
      if (u == v) continue;
      nb[u].push_back(v);
      nb[v].push_back(u);
    }
  }
  for (auto& l : nb) {
    std::sort(l.begin(), l.end());
    l.erase(std::unique(l.begin(), l.end()), l.end());
  }
  auto before = [&](Index a, Index b) {
    return nb[a].size() != nb[b].size() ? nb[a].size() < nb[b].size() : a < b;
  };
  std::vector<std::vector<Index>> out(sg.n);
  for (Index u = 0; u < sg.n; ++u) {
    for (Index v : nb[u]) {
      if (before(u, v)) out[u].push_back(v);
    }
  }
  std::uint64_t count = 0;
  for (Index u = 0; u < sg.n; ++u) {
    for (Index v : out[u]) {
      auto a = out[u].begin(), b = out[v].begin();
      while (a != out[u].end() && b != out[v].end()) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          ++count;
          ++a;
          ++b;
        }
      }
    }
  }
  return count;
}

}  // namespace

bool Oracle::reference_ok(int algo, Index src, std::uint64_t fingerprint) {
  switch (algo) {
    case kPagerank: {
      // The dense textbook power iteration is O(n^2) per step; check that
      // the driver's ranks form a distribution instead.
      const auto r = densify(lagraph::pagerank(*g_, 0.85, 1e-9, 100).rank, 0.0);
      double sum = 0;
      for (double x : r) {
        if (!(x > 0)) return false;
        sum += x;
      }
      return std::fabs(sum - 1.0) < 1e-6;
    }
    case kBfs: {
      const auto got = densify(
          lagraph::bfs(*g_, src, lagraph::BfsVariant::direction_optimizing).level,
          ref::kUnreached);
      return got == ref::bfs_levels(simple(false), src);
    }
    case kSssp: {
      const double inf = std::numeric_limits<double>::infinity();
      const auto got = densify(lagraph::sssp_bellman_ford(*gw_, src).dist, inf);
      return got == ref::dijkstra(simple(true), src);
    }
    case kCc: {
      const auto got = densify(lagraph::connected_components_run(*g_).labels,
                               ~Index{0});
      return got == ref::connected_components(simple(false));
    }
    default:  // tc: the fingerprint is the count itself
      return fingerprint == forward_triangles(simple(false));
  }
}

}  // namespace perfbench
