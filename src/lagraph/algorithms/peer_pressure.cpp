// Peer-pressure clustering (§V cites Gilbert, Reinhardt & Shah). Every
// vertex adopts the label carrying the most weight among its neighbours:
// one plus_times mxm of the cluster-indicator matrix against the adjacency
// per round, then an argmax per column.
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

ClusterResult peer_pressure(const Graph& g, int max_iters,
                            const Checkpoint* resume) {
  check_graph(g, "peer_pressure");
  gb::check_value(max_iters > 0, "peer_pressure: max_iters must be positive");
  max_iters = scaled_max_iters(max_iters);
  const Index n = g.nrows();

  ClusterResult res;
  // Each vertex also votes for its own current label (A + I): without the
  // self-vote, bipartite structures oscillate forever (two vertices joined
  // by an edge would swap labels every round).
  gb::Matrix<double> a;
  std::vector<std::uint64_t> label(n);
  for (Index i = 0; i < n; ++i) label[i] = i;
  bool done = false;
  drive(
      res, "peer_pressure", resume,
      [&](const Checkpoint* from) {
        a = gb::Matrix<double>(n, n);
        gb::ewise_add(a, gb::no_mask, gb::no_accum, gb::First{},
                      g.undirected_view(),
                      gb::Matrix<double>::identity(n, 1.0));
        if (from != nullptr) {
          label = from->get_array<std::uint64_t>("label");
          gb::check_value(
              label.size() == static_cast<std::size_t>(n),
              "peer_pressure: resume capsule does not match this graph");
          res.iterations = static_cast<int>(from->get_i64("iterations"));
          res.residual = from->get_f64("residual");
        }
      },
      [&] { return !done && res.iterations < max_iters; },
      [&] {
        // Indicator: C(label(i), i) = 1.
        gb::Matrix<double> c(n, n);
        {
          std::vector<Index> ri(n), ci(n);
          std::vector<double> xv(n, 1.0);
          for (Index i = 0; i < n; ++i) {
            ri[i] = label[i];
            ci[i] = i;
          }
          c.build(ri, ci, xv, gb::Plus{});
        }

        // Votes: T(l, j) = sum of weights from label-l neighbours of j.
        gb::Matrix<double> votes(n, n);
        gb::mxm(votes, gb::no_mask, gb::no_accum, gb::plus_times<double>(), c,
                a);

        // New label of j = argmax_l votes(l, j); ties to the smaller label;
        // vertices with no neighbours keep their label.
        std::vector<Index> r, cc;
        std::vector<double> v;
        votes.extract_tuples(r, cc, v);
        std::vector<double> best(n, -1.0);
        std::vector<std::uint64_t> next(label);
        for (std::size_t k = 0; k < v.size(); ++k) {
          Index j = cc[k];
          if (v[k] > best[j] || (v[k] == best[j] && r[k] < next[j])) {
            best[j] = v[k];
            next[j] = r[k];
          }
        }
        // Flip count as a fused any-difference fold over the two label
        // vectors (plus over label != next), same kernel the convergence
        // checks in cc/sssp use.
        gb::Vector<std::uint64_t> lv(n), nv(n);
        lv.load_full(gb::Buf<std::uint64_t>(label.begin(), label.end()));
        nv.load_full(gb::Buf<std::uint64_t>(next.begin(), next.end()));
        const auto flips = gb::fused_ewise_mult_reduce(
            gb::plus_monoid<std::uint64_t>(), gb::Identity{}, gb::Isne{}, lv,
            nv);

        // Commit: nothing below reaches a governor poll point.
        label = std::move(next);
        ++res.iterations;
        res.residual = static_cast<double>(flips);
        if (flips == 0) {
          res.converged = true;
          res.stop = StopReason::converged;
          done = true;
        }
      },
      [&](Checkpoint& cp) {
        cp.put_array("label", label);
        cp.put_i64("iterations", res.iterations);
        cp.put_f64("residual", res.residual);
      });

  res.labels = gb::Vector<std::uint64_t>(n);
  for (Index i = 0; i < n; ++i) res.labels.set_element(i, label[i]);
  return res;
}

}  // namespace lagraph
