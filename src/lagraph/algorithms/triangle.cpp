// Exact triangle counting (§V cites Azad/Buluç/Gilbert and Wang et al.).
// Five classic algebraic formulations; the Sandia variants use the masked
// saxpy and the dot variant the masked dot product — together they exercise
// the "6 functions" of §II-A on a real workload.
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

namespace {

/// Pattern-only copy of the undirected adjacency, values = 1 (int64). The
/// diagonal is kept: the L/U methods drop it with tril(-1)/triu(1).
gb::Matrix<std::int64_t> pattern_of(const Graph& g) {
  const auto& a = g.undirected_view();
  gb::Matrix<std::int64_t> p(a.nrows(), a.ncols());
  gb::apply(p, gb::no_mask, gb::no_accum, gb::One{}, a);
  return p;
}

/// p without its diagonal, for the methods that multiply or mask with the
/// whole pattern.
gb::Matrix<std::int64_t> offdiag(const gb::Matrix<std::int64_t>& p) {
  gb::Matrix<std::int64_t> nodiag(p.nrows(), p.ncols());
  gb::select(nodiag, gb::no_mask, gb::no_accum, gb::SelOffdiag{}, p,
             std::int64_t{0});
  return nodiag;
}

}  // namespace

std::uint64_t triangle_count(const Graph& g, TriangleMethod method) {
  check_graph(g, "triangle_count");
  auto a = pattern_of(g);
  const Index n = a.nrows();
  gb::Matrix<std::int64_t> c(n, n);
  gb::Descriptor masked = gb::desc_s;
  std::int64_t total = 0;

  switch (method) {
    case TriangleMethod::burkhardt: {
      // ntri = sum((A*A) .* A) / 6
      a = offdiag(a);
      gb::mxm(c, a, gb::no_accum, gb::plus_pair<std::int64_t>(), a, a, masked);
      total = gb::reduce_scalar(gb::plus_monoid<std::int64_t>(), c) / 6;
      break;
    }
    case TriangleMethod::cohen: {
      // ntri = sum((L*U) .* A) / 2 — A is the mask, and L*U has a nonzero
      // diagonal, so the mask must not keep A's self-loops.
      a = offdiag(a);
      auto l = gb::tril(a, -1);
      auto u = gb::triu(a, 1);
      gb::mxm(c, a, gb::no_accum, gb::plus_pair<std::int64_t>(), l, u, masked);
      total = gb::reduce_scalar(gb::plus_monoid<std::int64_t>(), c) / 2;
      break;
    }
    case TriangleMethod::sandia_ll: {
      // ntri = sum(<L> L*L) — masked saxpy (Gustavson under the mask).
      auto l = gb::tril(a, -1);
      gb::Descriptor d = masked;
      d.mxm = gb::MxmMethod::gustavson;
      gb::mxm(c, l, gb::no_accum, gb::plus_pair<std::int64_t>(), l, l, d);
      total = gb::reduce_scalar(gb::plus_monoid<std::int64_t>(), c);
      break;
    }
    case TriangleMethod::sandia_uu: {
      auto u = gb::triu(a, 1);
      gb::Descriptor d = masked;
      d.mxm = gb::MxmMethod::gustavson;
      gb::mxm(c, u, gb::no_accum, gb::plus_pair<std::int64_t>(), u, u, d);
      total = gb::reduce_scalar(gb::plus_monoid<std::int64_t>(), c);
      break;
    }
    case TriangleMethod::dot: {
      // ntri = sum(<L> L * L') — masked dot product with early exit
      // opportunities under terminal monoids.
      auto l = gb::tril(a, -1);
      gb::Descriptor d = masked;
      d.mxm = gb::MxmMethod::dot;
      d.transpose_b = true;
      gb::mxm(c, l, gb::no_accum, gb::plus_pair<std::int64_t>(), l, l, d);
      total = gb::reduce_scalar(gb::plus_monoid<std::int64_t>(), c);
      break;
    }
  }
  return static_cast<std::uint64_t>(total);
}

}  // namespace lagraph
