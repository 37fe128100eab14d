#include "layers.hpp"

#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include <omp.h>

#include "lagraph/lagraph.hpp"
#include "lagraph/runner.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/workspace.hpp"

namespace perfbench {

namespace {

void ok_or_throw(GrB_Info info, const char* what) {
  if (info != GrB_SUCCESS) {
    throw std::runtime_error(std::string(what) + " failed: " + std::to_string(info));
  }
}

/// The ladder's state: both graph snapshots, a reusable C result vector and
/// the counters the driver rung collects.
struct LadderCtx {
  const LadderTarget& t;
  std::shared_ptr<const lagraph::Graph> g, gw;
  GrB_Vector out = nullptr;
  std::vector<GrB_Index> idx;
  std::vector<double> vals;
  LadderResult& res;
  bool count = false;  ///< collect the driver counters on this call
  /// Set by each rung when its call returns, so fingerprinting the result
  /// stays outside the timed interval.
  Clock::time_point done;
};

std::uint64_t driver_rung(LadderCtx& cx, int algo, Index src) {
  switch (algo) {
    case kPagerank: {
      auto r = lagraph::pagerank(*cx.g, 0.85, 1e-9, 100);
      cx.done = Clock::now();
      if (cx.count) cx.res.pr_iterations += r.iterations;
      return hash_vector(r.rank);
    }
    case kBfs: {
      auto r = lagraph::bfs(*cx.g, src, lagraph::BfsVariant::direction_optimizing);
      cx.done = Clock::now();
      if (cx.count) {
        cx.res.bfs_levels += r.depth;
        for (auto d : r.directions) cx.res.bfs_pull_levels += d == gb::MxvMethod::pull;
      }
      return hash_vector(r.level);
    }
    case kSssp: {
      auto r = lagraph::sssp_bellman_ford(*cx.gw, src);
      cx.done = Clock::now();
      if (cx.count) cx.res.sssp_iterations += r.iterations;
      return hash_vector(r.dist);
    }
    default: {
      auto r = lagraph::connected_components_run(*cx.g);
      cx.done = Clock::now();
      return hash_vector(r.labels);
    }
  }
}

std::uint64_t runner_rung(LadderCtx& cx, int algo, Index src) {
  lagraph::Runner runner;  // the service's runner options: no slicing
  auto drive = [&](auto&& algo_call, auto member) {
    auto r = runner.run(algo_call);
    cx.done = Clock::now();
    return hash_vector(r.*member);
  };
  std::uint64_t h = 0;
  switch (algo) {
    case kPagerank:
      h = drive([&](const lagraph::Checkpoint* cp) {
        return lagraph::pagerank(*cx.g, 0.85, 1e-9, 100, cp);
      }, &lagraph::PageRankResult::rank);
      break;
    case kBfs:
      h = drive([&](const lagraph::Checkpoint* cp) {
        return lagraph::bfs(*cx.g, src, lagraph::BfsVariant::direction_optimizing, cp);
      }, &lagraph::BfsResult::level);
      break;
    case kSssp:
      h = drive([&](const lagraph::Checkpoint* cp) {
        return lagraph::sssp_bellman_ford(*cx.gw, src, cp);
      }, &lagraph::SsspResult::dist);
      break;
    default:
      h = drive([&](const lagraph::Checkpoint* cp) {
        return lagraph::connected_components_run(*cx.g, cp);
      }, &lagraph::CcResult::labels);
      break;
  }
  cx.res.runner_slices += runner.report().slices;
  cx.res.runner_retries += runner.report().retries;
  ++cx.res.runner_runs;
  return h;
}

const char* graph_for(const LadderTarget& t, int algo) {
  return algo == kSssp ? t.wgraph : t.graph;
}

std::uint64_t serving_rung(LadderCtx& cx, int algo, Index src) {
  const std::uint64_t id =
      cx.t.cpp->submit_algorithm(algo_name(algo), graph_for(cx.t, algo), src);
  const lagraph::ServiceJobResult& r = cx.t.cpp->wait(id);
  cx.done = Clock::now();
  const std::uint64_t h = hash_result(r.n, r.idx.data(), r.vals.data(), r.idx.size());
  cx.t.cpp->release(id);
  return h;
}

std::uint64_t capi_rung(LadderCtx& cx, int algo, Index src) {
  std::uint64_t id = 0;
  const auto t0 = Clock::now();
  ok_or_throw(LAGraph_Service_submit(cx.t.capi, algo_name(algo), graph_for(cx.t, algo),
                                     src, &id),
              "LAGraph_Service_submit");
  const auto t1 = Clock::now();
  ok_or_throw(LAGraph_Service_wait(cx.out, cx.t.capi, id), "LAGraph_Service_wait");
  cx.done = Clock::now();
  cx.res.submit_us.push_back(ms_between(t0, t1) * 1e3);
  GrB_Index nv = cx.idx.size();
  ok_or_throw(GrB_Vector_extractTuples_FP64(cx.idx.data(), cx.vals.data(), &nv, cx.out),
              "GrB_Vector_extractTuples_FP64");
  GrB_Index n = 0;
  GrB_Vector_size(&n, cx.out);
  LAGraph_Service_release(cx.t.capi, id);
  return hash_result(n, cx.idx.data(), cx.vals.data(), nv);
}

std::uint64_t call_rung(LadderCtx& cx, int rung, int algo, Index src) {
  switch (rung) {
    case kDriverRung:
      return driver_rung(cx, algo, src);
    case kRunnerRung:
      return runner_rung(cx, algo, src);
    case kServingRung:
      return serving_rung(cx, algo, src);
    default:
      return capi_rung(cx, algo, src);
  }
}

}  // namespace

LadderResult run_ladder(const LadderTarget& t, SpanLog& log, CheckReport& rep) {
  LadderResult res;
  LadderCtx cx{t, t.cpp->snapshot(t.graph), t.cpp->snapshot(t.wgraph), nullptr,
               {}, {}, res, false, {}};
  const Index n = cx.g->nrows();
  GrB_Vector_new(&cx.out, n);
  cx.idx.resize(n);
  cx.vals.resize(n);
  static const char* rung_span[kNumRungs] = {"ladder.driver", "ladder.runner",
                                             "ladder.serving", "ladder.capi"};

  const auto ws0 = gb::platform::Workspace::thread_stats();
  std::uint64_t reqno = 0;
  for (int rep_i = 0; rep_i < t.reps; ++rep_i) {
    for (int algo : kLadderAlgos) {
      // pagerank and cc take no source; they repeat once per source slot so
      // every algorithm gets the same number of samples.
      for (Index src : t.sources) {
        const bool counting =
            rep_i == 0 && (algo == kBfs || algo == kSssp || src == t.sources[0]);
        double ms[kNumRungs];
        std::uint64_t h[kNumRungs];
        // Alternate the rung order between reps so warm-cache and ordering
        // effects cancel in the paired differences.
        for (int k = 0; k < kNumRungs; ++k) {
          const int rung = rep_i % 2 == 0 ? k : kNumRungs - 1 - k;
          cx.count = counting && rung == kDriverRung;
          const auto t0 = Clock::now();
          h[rung] = call_rung(cx, rung, algo, src);
          ms[rung] = ms_between(t0, cx.done);
          log.add(rung_span[rung], t0, cx.done, -1, reqno);
        }
        for (int rung = 0; rung < kNumRungs; ++rung) {
          res.t[algo][rung].push_back(ms[rung]);
          if (rung == kDriverRung) continue;
          res.self[algo][rung].push_back(ms[rung] - ms[rung - 1]);
          ++rep.checked;
          if (h[rung] != h[kDriverRung]) ++rep.wrong;
        }
        ++reqno;
      }
    }
    const auto t0 = Clock::now();
    (void)lagraph::triangle_count(*cx.g, lagraph::TriangleMethod::sandia_ll);
    const auto t1 = Clock::now();
    log.add("ladder.driver", t0, t1, -1, reqno++);
    res.t[kTc][kDriverRung].push_back(ms_between(t0, t1));
  }
  const auto ws1 = gb::platform::Workspace::thread_stats();
  res.ws_reuse_ratio = reuse_ratio(ws0, ws1);

  // wait() after a poll has seen DONE: the cost of handing the finished
  // result across the C boundary (building the result vector).
  for (int rep_i = 0; rep_i < t.reps; ++rep_i) {
    for (int algo : {kPagerank, kCc}) {
      std::uint64_t id = 0;
      ok_or_throw(LAGraph_Service_submit(t.capi, algo_name(algo), t.graph, 0, &id),
                  "LAGraph_Service_submit");
      LAGraph_JobState st = LAGraph_JOB_QUEUED;
      while (LAGraph_Service_poll(t.capi, id, &st) == GrB_SUCCESS &&
             (st == LAGraph_JOB_QUEUED || st == LAGraph_JOB_RUNNING)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const auto t0 = Clock::now();
      ok_or_throw(LAGraph_Service_wait(cx.out, t.capi, id), "LAGraph_Service_wait");
      res.ready_wait_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      LAGraph_Service_release(t.capi, id);
    }
  }

  // Unloaded publish (C dup + freeze + Versioned publish) under a spare
  // name, and a bare Graph::freeze of the same matrix.
  for (int rep_i = 0; rep_i < t.reps + 2; ++rep_i) {
    const auto t0 = Clock::now();
    ok_or_throw(LAGraph_Service_publish(t.capi, "spare", t.publish_src),
                "LAGraph_Service_publish");
    res.publish_ms.push_back(ms_since(t0));
    lagraph::Graph fresh(cx.g->adj().dup(), lagraph::Kind::directed);
    const auto t1 = Clock::now();
    fresh.freeze();
    res.freeze_ms.push_back(ms_since(t1));
  }
  GrB_Vector_free(&cx.out);
  return res;
}

// --- single GraphBLAS ops ------------------------------------------------------

namespace {

struct OpTimes {
  std::vector<double> t1, tn;
};

}  // namespace

void measure_ops(const lagraph::Graph& g, int tn, int reps, std::uint64_t seed,
                 Metrics& m) {
  const gb::Matrix<double>& a = g.adj();
  const Index n = a.nrows();
  const double damping = 0.85;

  // The PageRank step exactly as the driver calls it on its first iteration.
  const gb::Vector<double>& outdeg = g.out_degree_fp64();
  const auto rank = gb::Vector<double>::full(n, 1.0 / static_cast<double>(n));
  gb::Vector<double> contrib(n);
  gb::fused_ewise_mult_apply(contrib, gb::Div{},
                             gb::BindSecond<gb::Times, double>{{}, damping}, rank,
                             outdeg);
  const double fill = (1.0 - damping) / static_cast<double>(n);

  // Frontiers: 1% of vertices (push) and every vertex (pull).
  const gb::Vector<double> sparse_u =
      lagraph::random_vector(n, std::max<Index>(1, n / 100), seed ^ 0x5eed);
  const auto dense_u = gb::Vector<double>::full(n, 1.0);

  const gb::Matrix<double> l = gb::tril(g.undirected_view(), -1);
  gb::Matrix<double> at(n, n);
  gb::transpose(at, gb::no_mask, gb::no_accum, a);
  std::int64_t dot_flops = 0;

  struct Op {
    const char* name;
    std::function<void()> body;
  };
  const std::vector<Op> ops = {
      {"vxm_pr_step",
       [&] {
         gb::Vector<double> next(n);
         (void)gb::vxm_fill_accum_residual(next, gb::Plus{}, gb::plus_first<double>(),
                                           contrib, a, fill, gb::plus_monoid<double>(),
                                           gb::Abs{}, gb::Minus{}, rank);
       }},
      {"mxv_push",
       [&] {
         gb::Vector<double> y(n);
         gb::Descriptor d;
         d.mxv = gb::MxvMethod::push;
         gb::vxm(y, gb::no_mask, gb::no_accum, gb::plus_times<double>(), sparse_u, a, d);
       }},
      {"mxv_pull",
       [&] {
         gb::Vector<double> y(n);
         gb::Descriptor d;
         d.mxv = gb::MxvMethod::pull;
         gb::vxm(y, gb::no_mask, gb::no_accum, gb::plus_times<double>(), dense_u, a, d);
       }},
      {"mxm_dot_masked",
       [&] {
         gb::Matrix<std::int64_t> c(n, n);
         gb::Descriptor d = gb::desc_s;
         d.mxm = gb::MxmMethod::dot;
         d.transpose_b = true;
         gb::mxm(c, l, gb::no_accum, gb::plus_pair<std::int64_t>(), l, l, d);
         dot_flops = gb::reduce_scalar(gb::plus_monoid<std::int64_t>(), c);
       }},
      {"transpose",
       [&] {
         gb::Matrix<double> c(n, n);
         gb::transpose(c, gb::no_mask, gb::no_accum, a);
       }},
      {"ewise_add",
       [&] {
         gb::Matrix<double> c(n, n);
         gb::ewise_add(c, gb::no_mask, gb::no_accum, gb::Plus{}, a, at);
       }},
      {"reduce_rows",
       [&] {
         gb::Vector<double> r(n);
         gb::reduce(r, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(), a);
       }},
  };

  std::vector<OpTimes> times(ops.size());
  for (int rep_i = 0; rep_i <= reps; ++rep_i) {  // rep 0 warms up
    for (std::size_t k = 0; k < ops.size(); ++k) {
      for (int threads : {1, tn}) {
        omp_set_num_threads(threads);
        const auto t0 = Clock::now();
        ops[k].body();
        const double ms = ms_since(t0);
        if (rep_i > 0) (threads == 1 ? times[k].t1 : times[k].tn).push_back(ms);
      }
    }
  }
  omp_set_num_threads(tn);

  const std::string nt = count_note(static_cast<std::size_t>(reps));
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const std::string base = std::string("graphblas.") + ops[k].name;
    const double t1 = median(times[k].t1), tnm = median(times[k].tn);
    if (k == 0 || std::string(ops[k].name) == "mxm_dot_masked") {
      m.set(base + "_ms.t1", t1, "ms", nt);
      m.set(base + "_ms.tN", tnm, "ms", nt + ", N=" + std::to_string(tn));
    } else {
      m.set(base + "_ms", tnm, "ms", nt + ", N=" + std::to_string(tn));
    }
    m.set(base + ".speedup", tnm > 0 ? t1 / tnm : 0.0, "x", "t1/tN");
  }
  m.set("graphblas.mxm_dot_masked_flops", static_cast<double>(dot_flops), "count",
        "computed: sum of C<L>=L*L' under plus_pair");
}

// --- multi-source vs solo ------------------------------------------------------

namespace {

/// Fingerprint of row r of a k x n result, as its solo vector would hash.
template <class T>
std::vector<std::uint64_t> row_hashes(const gb::Matrix<T>& m) {
  std::vector<Index> ri, ci;
  std::vector<T> vi;
  m.extract_tuples(ri, ci, vi);
  std::vector<std::uint64_t> out;
  std::size_t k = 0;
  for (Index r = 0; r < m.nrows(); ++r) {
    std::vector<Index> idx;
    std::vector<double> vals;
    for (; k < ri.size() && ri[k] == r; ++k) {
      idx.push_back(ci[k]);
      vals.push_back(static_cast<double>(vi[k]));
    }
    out.push_back(hash_result(m.ncols(), idx.data(), vals.data(), idx.size()));
  }
  return out;
}

}  // namespace

void measure_batch_pairs(const lagraph::Graph& g, const lagraph::Graph& gw,
                         const std::vector<Index>& sources, int reps, Metrics& m,
                         CheckReport& rep) {
  std::vector<double> bk, bs, sk, ss;
  for (int rep_i = 0; rep_i < reps; ++rep_i) {
    auto t0 = Clock::now();
    auto bfs_k = lagraph::bfs_level_ms(g, sources);
    bk.push_back(ms_since(t0));
    std::vector<std::uint64_t> solo_bfs, solo_sssp;
    t0 = Clock::now();
    for (Index s : sources) {
      auto r = lagraph::bfs(g, s, lagraph::BfsVariant::direction_optimizing);
      if (rep_i == 0) solo_bfs.push_back(hash_vector(r.level));
    }
    bs.push_back(ms_since(t0));
    t0 = Clock::now();
    auto sssp_k = lagraph::sssp_bellman_ford_ms(gw, sources);
    sk.push_back(ms_since(t0));
    t0 = Clock::now();
    for (Index s : sources) {
      auto r = lagraph::sssp_bellman_ford(gw, s);
      if (rep_i == 0) solo_sssp.push_back(hash_vector(r.dist));
    }
    ss.push_back(ms_since(t0));
    if (rep_i == 0) {
      const auto hb = row_hashes(bfs_k.level), hs = row_hashes(sssp_k.dist);
      for (std::size_t k = 0; k < sources.size(); ++k) {
        rep.checked += 2;
        rep.wrong += (hb[k] != solo_bfs[k]) + (hs[k] != solo_sssp[k]);
      }
    }
  }
  const std::string nt = count_note(static_cast<std::size_t>(reps));
  m.set("driver.bfs_k8_ms", median(bk), "ms", nt);
  m.set("driver.bfs_solo8_ms", median(bs), "ms", nt);
  m.set("driver.sssp_k8_ms", median(sk), "ms", nt);
  m.set("driver.sssp_solo8_ms", median(ss), "ms", nt);
  m.set("driver.bfs_batch_gain", median(bs) / median(bk), "x", "solo8/k8");
  m.set("driver.sssp_batch_gain", median(ss) / median(sk), "x", "solo8/k8");
}

// --- effective cores -----------------------------------------------------------

namespace {

double omp_loop_ms(int threads, std::int64_t n, double& sink) {
  const auto t0 = Clock::now();
  double s = 0;
#pragma omp parallel for num_threads(threads) reduction(+ : s) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    double x = static_cast<double>(i & 1023) * 1e-3;
    for (int k = 0; k < 32; ++k) x = x * 0.999 + 0.5;
    s += x;
  }
  sink += s;
  return ms_since(t0);
}

}  // namespace

double cores_effective(int nproc) {
  constexpr std::int64_t kItems = 1 << 20;
  double sink = 0;
  std::vector<double> t1, tn;
  omp_loop_ms(nproc, kItems, sink);  // wake the thread pool
  for (int rep_i = 0; rep_i < 7; ++rep_i) {
    t1.push_back(omp_loop_ms(1, kItems, sink));
    tn.push_back(omp_loop_ms(nproc, kItems, sink));
  }
  return sink != 0 ? median(t1) / median(tn) : 0.0;
}

}  // namespace perfbench
