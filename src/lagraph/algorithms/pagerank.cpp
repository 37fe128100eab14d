// PageRank with dangling-vertex handling, in the style of LAGraph's
// PageRank (§V cites Satish et al.'s GraphMat formulation). One vxm per
// iteration; everything else is elementwise.
#include <algorithm>
#include <cmath>
#include <span>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

PageRankResult pagerank(const Graph& g, double damping, double tol,
                        int max_iters, const Checkpoint* resume) {
  check_graph(g, "pagerank");
  gb::check_value(damping > 0.0 && damping < 1.0,
                  "pagerank: damping must be in (0, 1)");
  gb::check_value(tol > 0.0, "pagerank: tol must be positive");
  gb::check_value(max_iters > 0, "pagerank: max_iters must be positive");
  max_iters = scaled_max_iters(max_iters);

  const auto& a = g.adj();
  const Index n = a.nrows();
  const double teleport = (1.0 - damping) / static_cast<double>(n);

  PageRankResult res;
  // Out-degrees as doubles, cached on the graph; vertices with no out-edges
  // are absent.
  const gb::Vector<double>* outdeg = nullptr;
  bool finished = false;
  drive(
      res, "pagerank", resume,
      [&](const Checkpoint* from) {
        outdeg = &g.out_degree_fp64();
        if (from != nullptr) {
          res.rank = from->get_vector<double>("rank");
          gb::check_value(res.rank.size() == n,
                          "pagerank: resume capsule does not match this graph");
          res.iterations = static_cast<int>(from->get_i64("iterations"));
          res.residual = from->get_f64("residual");
        } else {
          res.rank = gb::Vector<double>::full(n, 1.0 / static_cast<double>(n));
        }
      },
      [&] { return !finished && res.iterations < max_iters; },
      [&] {
        // Dangling mass: rank held by vertices with no out-edges, summed in
        // one pass (apply→reduce fused; no dangling vector committed).
        double dmass = gb::fused_apply_reduce(gb::plus_monoid<double>(),
                                              gb::Identity{}, res.rank,
                                              *outdeg, gb::desc_rsc);

        // w = damping * rank ./ outdeg  (contribution per out-edge), the
        // divide and the damping scale in one pass.
        gb::Vector<double> w(n);
        gb::fused_ewise_mult_apply(
            w, gb::Div{}, gb::BindSecond<gb::Times, double>{{}, damping},
            res.rank, *outdeg);

        // next = teleport + damping * dangling/n everywhere, then += w' * A,
        // with the L1 change against the previous iterate folded out of the
        // product's epilogue.
        // plus_FIRST, not plus_times: PageRank splits rank by out-degree, so
        // each out-edge carries w(i) regardless of the edge's stored weight
        // (weighted adjacencies would otherwise diverge).
        gb::Vector<double> next(n);
        const double delta = gb::vxm_fill_accum_residual(
            next, gb::Plus{}, gb::plus_first<double>(), w, a,
            teleport + damping * dmass / static_cast<double>(n),
            gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, res.rank);

        res.rank = std::move(next);
        res.residual = delta;
        ++res.iterations;
        if (!std::isfinite(delta)) {
          // A NaN/Inf residual means the iterate escaped — report divergence
          // honestly instead of spinning until max_iters with garbage ranks.
          res.stop = StopReason::diverged;
          finished = true;
        } else if (delta < tol) {
          res.converged = true;
          res.stop = StopReason::converged;
          finished = true;
        }
      },
      [&](Checkpoint& cp) {
        cp.put_vector("rank", res.rank);
        cp.put_i64("iterations", res.iterations);
        cp.put_f64("residual", res.residual);
      });
  return res;
}

PprMsResult pagerank_personalized_ms(const Graph& g,
                                     const std::vector<Index>& sources,
                                     double damping, double tol, int max_iters,
                                     const Checkpoint* resume) {
  check_graph(g, "pagerank_personalized_ms");
  gb::check_value(damping > 0.0 && damping < 1.0,
                  "pagerank_personalized_ms: damping must be in (0, 1)");
  gb::check_value(tol > 0.0, "pagerank_personalized_ms: tol must be positive");
  gb::check_value(max_iters > 0,
                  "pagerank_personalized_ms: max_iters must be positive");
  max_iters = scaled_max_iters(max_iters);

  const auto& a = g.adj();
  const Index n = a.nrows();
  const Index k = static_cast<Index>(sources.size());
  gb::check_value(k > 0, "pagerank_personalized_ms: empty source batch");
  for (Index s : sources) {
    gb::check_index(s < n, "pagerank_personalized_ms: source out of range");
  }

  PprMsResult res;
  res.iterations.assign(static_cast<std::size_t>(k), 0);
  res.row_stop.assign(static_cast<std::size_t>(k),
                      static_cast<std::uint8_t>(StopReason::max_iters));

  // Loop state. Every per-iteration kernel below is row-local (reads only
  // row r of the iterate to produce row r of the next), and every within-row
  // combination order is fixed (saxpy in ascending stream order, dots and
  // row-reduces left-to-right), so row r's trajectory is bit-identical for
  // any batch it rides in — including the k = 1 batch that defines the
  // single-seed semantics. Rows that meet tol are frozen immediately and
  // compacted out of the active iterate; without the freeze, batch siblings
  // still iterating would keep "improving" a converged row past the point
  // where its solo run returned, changing its bits. Frozen rows ride in the
  // capsule as one k x n matrix; the source list is stored for validation (a
  // capsule resumes only the batch it was captured from).
  gb::Matrix<double> r_act;                // active iterate (|active| x n)
  std::vector<std::uint64_t> active;       // original row of each active row
  std::vector<Index> fr, fc;               // frozen tuples (original rows)
  std::vector<double> fv;
  gb::Vector<double> dang;                 // 1.0 at vertices with no out-edges
  gb::Matrix<double> dinv;                 // diag(damping / outdeg)
  bool finished = false;

  auto build_frozen = [&](const std::vector<Index>& r,
                          const std::vector<Index>& c,
                          const std::vector<double>& v) {
    gb::Matrix<double> frozen(k, n);
    if (!r.empty()) frozen.build(r, c, v, gb::Second{});
    return frozen;
  };

  // One round of the batched iteration. Everything lands in locals and is
  // committed to the loop state only after the last kernel.
  auto iterate = [&] {
    const Index ka = static_cast<Index>(active.size());
    // Dangling mass per row, forced onto the pull (dot) path: each row's
    // products combine left-to-right in ascending vertex order, no matter
    // how many rows share the batch.
    gb::Vector<double> dm(ka);
    gb::Descriptor dpull;
    dpull.mxv = gb::MxvMethod::pull;
    gb::mxv(dm, gb::no_mask, gb::no_accum, gb::plus_times<double>(), r_act,
            dang, dpull);
    std::vector<double> dmh(static_cast<std::size_t>(ka), 0.0);
    {
      std::vector<Index> di;
      std::vector<double> dv;
      dm.extract_tuples(di, dv);
      for (std::size_t t = 0; t < di.size(); ++t)
        dmh[static_cast<std::size_t>(di[t])] = dv[t];
    }
    // w = damping * rank ./ outdeg, as rank x diag(damping/outdeg): every
    // product lands on a distinct output slot, so there is no combination
    // order at all.
    gb::Matrix<double> w(ka, n);
    gb::mxm(w, gb::no_mask, gb::no_accum, gb::plus_times<double>(), r_act,
            dinv);
    // p = w +.first A — the batched edge pass (plus_FIRST for the same
    // reason as the global driver: rank splits by out-degree, edge weights
    // must not scale it).
    gb::Matrix<double> p(ka, n);
    gb::mxm(p, gb::no_mask, gb::no_accum, gb::plus_first<double>(), w, a);
    // Teleport + dangling mass return to each row's own seed.
    gb::Matrix<double> next(ka, n);
    {
      std::vector<Index> sr(static_cast<std::size_t>(ka));
      std::vector<Index> sc(static_cast<std::size_t>(ka));
      std::vector<double> sv(static_cast<std::size_t>(ka));
      for (Index j = 0; j < ka; ++j) {
        sr[static_cast<std::size_t>(j)] = j;
        sc[static_cast<std::size_t>(j)] =
            sources[static_cast<std::size_t>(active[static_cast<std::size_t>(j)])];
        sv[static_cast<std::size_t>(j)] =
            (1.0 - damping) + damping * dmh[static_cast<std::size_t>(j)];
      }
      gb::Matrix<double> s(ka, n);
      s.build(sr, sc, sv, gb::Plus{});
      gb::ewise_add(next, gb::no_mask, gb::no_accum, gb::Plus{}, p, s);
    }
    // Per-row L1 residual: |next - rank| row-reduced left-to-right.
    gb::Matrix<double> diff(ka, n);
    gb::ewise_add(diff, gb::no_mask, gb::no_accum, gb::Minus{}, next, r_act);
    gb::apply(diff, gb::no_mask, gb::no_accum, gb::Abs{}, diff);
    gb::Vector<double> resid(ka);
    gb::reduce(resid, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(),
               diff);
    std::vector<double> residh(static_cast<std::size_t>(ka), 0.0);
    {
      std::vector<Index> ri;
      std::vector<double> rv;
      resid.extract_tuples(ri, rv);
      for (std::size_t t = 0; t < ri.size(); ++t)
        residh[static_cast<std::size_t>(ri[t])] = rv[t];
    }
    std::vector<std::size_t> frz, srv;
    for (std::size_t j = 0; j < static_cast<std::size_t>(ka); ++j) {
      const double rj = residh[j];
      if (!std::isfinite(rj) || rj < tol) {
        frz.push_back(j);
      } else {
        srv.push_back(j);
      }
    }
    gb::Matrix<double> r_next;
    if (!frz.empty() && !srv.empty()) {
      // Compact the survivors so frozen rows stop being computed (and stop
      // changing). The extract is the last kernel.
      std::vector<Index> sel(srv.begin(), srv.end());
      r_next = gb::Matrix<double>(static_cast<Index>(sel.size()), n);
      gb::extract(r_next, gb::no_mask, gb::no_accum, next,
                  gb::IndexSel(std::span<const Index>(sel)),
                  gb::IndexSel::all(n));
    }
    std::vector<Index> mr, mc;
    std::vector<double> mv;
    if (!frz.empty()) next.extract_tuples(mr, mc, mv);

    // Commit (host-side only — nothing below can trip).
    const int done_iters = res.rounds + 1;
    if (!frz.empty()) {
      std::vector<std::uint8_t> freeze_row(active.size(), 0);
      for (std::size_t j : frz) freeze_row[j] = 1;
      for (std::size_t t = 0; t < mr.size(); ++t) {
        const auto j = static_cast<std::size_t>(mr[t]);
        if (!freeze_row[j]) continue;
        fr.push_back(static_cast<Index>(active[j]));
        fc.push_back(mc[t]);
        fv.push_back(mv[t]);
      }
      for (std::size_t j : frz) {
        const auto row = static_cast<std::size_t>(active[j]);
        res.iterations[row] = done_iters;
        res.row_stop[row] = static_cast<std::uint8_t>(
            std::isfinite(residh[j]) ? StopReason::converged
                                     : StopReason::diverged);
      }
    }
    std::vector<std::uint64_t> still;
    still.reserve(srv.size());
    for (std::size_t j : srv) {
      const auto row = static_cast<std::size_t>(active[j]);
      res.iterations[row] = done_iters;
      still.push_back(active[j]);
    }
    if (srv.empty()) {
      active.clear();
    } else if (frz.empty()) {
      r_act = std::move(next);
      active = std::move(still);
    } else {
      r_act = std::move(r_next);
      active = std::move(still);
    }
    ++res.rounds;
  };

  // The last step: rows still active hit the iteration cap and freeze as
  // they stand. Built in locals, so a trip here leaves the capsule intact.
  auto finish = [&] {
    std::vector<Index> r = fr, c = fc;
    std::vector<double> v = fv;
    if (!active.empty()) {
      std::vector<Index> mr, mc;
      std::vector<double> mv;
      r_act.extract_tuples(mr, mc, mv);
      for (std::size_t t = 0; t < mr.size(); ++t) {
        r.push_back(static_cast<Index>(active[static_cast<std::size_t>(mr[t])]));
        c.push_back(mc[t]);
        v.push_back(mv[t]);
      }
    }
    res.rank = build_frozen(r, c, v);
    bool any_diverged = false, all_converged = true;
    for (auto s : res.row_stop) {
      any_diverged |= s == static_cast<std::uint8_t>(StopReason::diverged);
      all_converged &= s == static_cast<std::uint8_t>(StopReason::converged);
    }
    res.stop = any_diverged    ? StopReason::diverged
               : all_converged ? StopReason::converged
                               : StopReason::max_iters;
    finished = true;
  };

  drive(
      res, "pagerank_personalized_ms", resume,
      [&](const Checkpoint* from) {
        const gb::Vector<double>& outdeg = g.out_degree_fp64();
        dang = gb::Vector<double>(n);
        gb::assign_scalar(dang, outdeg, gb::no_accum, 1.0,
                          gb::IndexSel::all(n), gb::desc_sc);
        {
          std::vector<Index> di;
          std::vector<double> dv;
          outdeg.extract_tuples(di, dv);
          for (double& v : dv) v = damping / v;
          dinv = gb::Matrix<double>(n, n);
          dinv.build(di, di, dv, gb::Second{});
        }
        if (from != nullptr) {
          auto saved = from->get_array<std::uint64_t>("sources");
          gb::check_value(
              saved.size() == sources.size() &&
                  std::equal(saved.begin(), saved.end(), sources.begin()),
              "pagerank_personalized_ms: capsule is for another batch");
          gb::Matrix<double> frozen = from->get_matrix<double>("frozen");
          gb::check_value(frozen.nrows() == k && frozen.ncols() == n,
                          "pagerank_personalized_ms: capsule mismatch");
          frozen.extract_tuples(fr, fc, fv);
          r_act = from->get_matrix<double>("active_rank");
          active = from->get_array<std::uint64_t>("active");
          res.iterations = from->get_array<std::int64_t>("iterations");
          auto rs = from->get_array<std::uint64_t>("row_stop");
          res.row_stop.assign(rs.begin(), rs.end());
          res.rounds = static_cast<int>(from->get_i64("rounds"));
        } else {
          active.resize(static_cast<std::size_t>(k));
          std::vector<Index> rows(static_cast<std::size_t>(k));
          std::vector<double> ones(static_cast<std::size_t>(k), 1.0);
          for (Index r = 0; r < k; ++r) {
            active[static_cast<std::size_t>(r)] = static_cast<std::uint64_t>(r);
            rows[static_cast<std::size_t>(r)] = r;
          }
          // rank0 = e_seed per row: all mass starts on the teleport seed.
          r_act = gb::Matrix<double>(k, n);
          r_act.build(rows, sources, ones, gb::Second{});
        }
      },
      [&] { return !finished; },
      [&] {
        if (!active.empty() && res.rounds < max_iters) {
          iterate();
        } else {
          finish();
        }
      },
      [&](Checkpoint& cp) {
        cp.put_matrix("frozen", build_frozen(fr, fc, fv));
        cp.put_matrix("active_rank", r_act);
        cp.put_array("active", active);
        cp.put_array("iterations", res.iterations);
        cp.put_array("row_stop", std::vector<std::uint64_t>(
                                     res.row_stop.begin(), res.row_stop.end()));
        cp.put_i64("rounds", res.rounds);
        cp.put_array("sources", std::vector<std::uint64_t>(sources.begin(),
                                                           sources.end()));
      });
  return res;
}

PprResult pagerank_personalized(const Graph& g, Index source, double damping,
                                double tol, int max_iters,
                                const Checkpoint* resume) {
  PprMsResult ms = pagerank_personalized_ms(g, std::vector<Index>{source},
                                            damping, tol, max_iters, resume);
  PprResult res;
  res.stop = ms.stop;
  res.checkpoint = std::move(ms.checkpoint);
  res.iterations = ms.iterations.empty() ? 0
                                         : static_cast<int>(ms.iterations[0]);
  res.converged =
      !ms.row_stop.empty() &&
      ms.row_stop[0] == static_cast<std::uint8_t>(StopReason::converged);
  res.rank = gb::Vector<double>(g.adj().nrows());
  if (ms.rank.nrows() > 0) {
    std::vector<Index> mr, mc;
    std::vector<double> mv;
    ms.rank.extract_tuples(mr, mc, mv);
    res.rank.build(mc, mv, gb::Second{});
  }
  return res;
}

}  // namespace lagraph
