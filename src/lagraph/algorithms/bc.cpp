// Batched Brandes betweenness centrality (§V cites the Combinatorial BLAS
// formulation). A batch of sources advances level-synchronously as rows of a
// frontier matrix (forward sweep accumulating shortest-path counts), then
// dependencies flow backwards through the stored per-level patterns.
//
// Resumable in three phases, which the driver's one step dispatches on:
// 0 = forward sweep in progress (capsule carries paths + frontier + the level
// patterns so far), 1 = forward sweep complete (the dense dependency matrix
// is deterministic and is rebuilt, not stored), 2 = backward sweep in
// progress (capsule carries bcu + the level index; d = 0 is the final
// reduction).
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

BcResult betweenness_run(const Graph& g, const std::vector<Index>& sources,
                         const Checkpoint* resume) {
  check_graph(g, "betweenness");
  const auto& a = g.adj();
  const Index n = a.nrows();
  const Index ns = sources.size();
  for (Index k = 0; k < ns; ++k) {
    gb::check_index(sources[k] < n, "betweenness: source out of range");
  }

  BcResult res;
  gb::Matrix<double> a1;        // pattern-only adjacency (graph-derived)
  gb::Matrix<double> paths;     // paths(k, v) = #shortest s_k->v paths so far
  gb::Matrix<double> frontier;  // newest level's counts (phase 0 only)
  gb::Matrix<double> bcu;       // dependency accumulator (phase 2 only)
  std::vector<gb::Matrix<bool>> levels;  // per-level frontier patterns
  std::uint64_t phase = 0;
  std::size_t d = 0;  // backward level index (phase 2 only)
  bool done = false;

  // Phase 0: one forward level. The whole level builds into temporaries;
  // paths / frontier / levels stay intact until the commit.
  auto forward = [&] {
    gb::Matrix<bool> pat(ns, n);
    gb::apply(pat, gb::no_mask, gb::no_accum,
              gb::BindSecond<gb::Second, bool>{{}, true}, frontier);

    // next<!paths, replace, s> = frontier +.x A1
    gb::Matrix<double> next(ns, n);
    gb::mxm(next, paths, gb::no_accum, gb::plus_times<double>(), frontier, a1,
            gb::desc_rsc);
    const bool exhausted = next.nvals() == 0;
    gb::Matrix<double> np(ns, n);
    if (!exhausted) {
      // paths += next (patterns disjoint thanks to the mask).
      gb::ewise_add(np, gb::no_mask, gb::no_accum, gb::Plus{}, paths, next);
    }

    // Commit: plain moves and a push_back, no kernel poll points.
    levels.push_back(std::move(pat));
    res.levels = levels.size();
    if (exhausted) {
      phase = 1;
      return;
    }
    paths = std::move(np);
    frontier = std::move(next);
  };

  // Phase 1: bcu(k, v) starts at 1 everywhere (dense), so it is a pure
  // function of (ns, n) and need not live in the capsule.
  auto seed_dependencies = [&] {
    gb::Matrix<double> b(ns, n);
    std::vector<Index> r, c;
    std::vector<double> v;
    r.reserve(ns * n);
    c.reserve(ns * n);
    for (Index k = 0; k < ns; ++k) {
      for (Index j = 0; j < n; ++j) {
        r.push_back(k);
        c.push_back(j);
      }
    }
    v.assign(r.size(), 1.0);
    b.build(r, c, v, gb::Plus{});
    bcu = std::move(b);
    phase = 2;
    d = levels.empty() ? 0 : levels.size() - 1;
  };

  // Phase 2, d >= 1: dependencies flow backwards one stored level.
  auto backward = [&] {
    // w<S[d], replace, s> = bcu ./ paths   (the (1+delta)/sigma factor;
    // bcu already contains the +1).
    gb::Matrix<double> w(ns, n);
    gb::ewise_mult(w, levels[d], gb::no_accum, gb::Div{}, bcu, paths,
                   gb::desc_rs);
    // w<S[d-1], replace, s> = w +.x A1'   (pull the factor up one level).
    gb::Matrix<double> t(ns, n);
    gb::Descriptor dt = gb::desc_rs;
    dt.transpose_b = true;
    gb::mxm(t, levels[d - 1], gb::no_accum, gb::plus_times<double>(), w, a1,
            dt);
    // bcu<S[d-1]> += t .* paths, committed by a single move so a mid-step
    // trip leaves bcu at the previous level's state.
    gb::Matrix<double> upd(ns, n);
    gb::ewise_mult(upd, levels[d - 1], gb::no_accum, gb::Times{}, t, paths,
                   gb::desc_s);
    gb::Matrix<double> nb(ns, n);
    gb::ewise_add(nb, gb::no_mask, gb::no_accum, gb::Plus{}, bcu, upd);
    bcu = std::move(nb);
    --d;
  };

  // Phase 2, d == 0: final reduction + per-source baseline strip. Reads bcu
  // and writes only the result vector.
  auto reduce_centrality = [&] {
    // centrality(v) = sum_k bcu(k, v) - ns  (strip the +1 baseline).
    gb::Vector<double> bc(n);
    gb::reduce(bc, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(), bcu,
               gb::desc_t0);
    gb::apply(bc, gb::no_mask, gb::no_accum,
              gb::BindSecond<gb::Minus, double>{{}, static_cast<double>(ns)},
              bc);

    // Brandes excludes the source's dependency on itself (delta(s) is not
    // part of bc(s)); strip the self-dependency each batch row accumulated
    // at its own source.
    for (Index k = 0; k < ns; ++k) {
      double self = bcu.extract_element(k, sources[k]).value_or(1.0) - 1.0;
      if (self != 0.0) {
        auto cur = bc.extract_element(sources[k]).value_or(0.0);
        bc.set_element(sources[k], cur - self);
      }
    }
    res.centrality = std::move(bc);
    done = true;
  };

  drive(
      res, "betweenness", resume,
      [&](const Checkpoint* from) {
        // Path counting ignores weights; A1 is graph-derived, so it is
        // rebuilt deterministically rather than checkpointed.
        a1 = gb::Matrix<double>(n, n);
        gb::apply(a1, gb::no_mask, gb::no_accum, gb::One{}, a);
        if (from != nullptr) {
          phase = from->get_u64("phase");
          d = static_cast<std::size_t>(from->get_u64("d"));
          paths = from->get_matrix<double>("paths");
          gb::check_value(
              paths.nrows() == ns && paths.ncols() == n,
              "betweenness: resume capsule does not match this run");
          const auto nlevels = from->get_u64("level_count");
          levels.reserve(nlevels);
          for (std::uint64_t i = 0; i < nlevels; ++i) {
            levels.push_back(
                from->get_matrix<bool>("level" + std::to_string(i)));
          }
          if (phase == 0) frontier = from->get_matrix<double>("frontier");
          if (phase == 2) bcu = from->get_matrix<double>("bcu");
        } else {
          paths = gb::Matrix<double>(ns, n);
          std::vector<Index> r(ns), c(ns);
          std::vector<double> v(ns, 1.0);
          for (Index k = 0; k < ns; ++k) {
            r[k] = k;
            c[k] = sources[k];
          }
          paths.build(r, c, v, gb::Plus{});
          frontier = paths.dup();
        }
        res.levels = levels.size();
      },
      [&] { return !done; },
      [&] {
        if (phase == 0) {
          forward();
        } else if (phase == 1) {
          seed_dependencies();
        } else if (d >= 1) {
          backward();
        } else {
          reduce_centrality();
        }
      },
      [&](Checkpoint& cp) {
        cp.put_u64("phase", phase);
        cp.put_u64("d", d);
        cp.put_matrix("paths", paths);
        cp.put_u64("level_count", levels.size());
        for (std::size_t i = 0; i < levels.size(); ++i) {
          cp.put_matrix("level" + std::to_string(i), levels[i]);
        }
        if (phase == 0) cp.put_matrix("frontier", frontier);
        if (phase == 2) cp.put_matrix("bcu", bcu);
      });
  return res;
}

gb::Vector<double> betweenness(const Graph& g,
                               const std::vector<Index>& sources) {
  BcResult res = betweenness_run(g, sources);
  rethrow_interruption(res.stop);
  return std::move(res.centrality);
}

}  // namespace lagraph
