#include "direct.hpp"

#include "inputs.hpp"
#include "lagraph/lagraph.hpp"
#include "platform/memory.hpp"
#include "platform/workspace.hpp"

namespace perfbench {

std::unique_ptr<DirectFixture> direct_setup(std::uint64_t seed) {
  auto fx = std::make_unique<DirectFixture>();
  gb::Matrix<double> w = weighted_rmat(kDirectScale, kDirectEdgeFactor, seed,
                                       /*symmetric=*/true, &fx->rmat_s);
  fx->g = std::make_shared<lagraph::Graph>(unit_weights(w), lagraph::Kind::undirected);
  Rng rng(seed, 7);
  fx->sources = draw_sources({&w}, kSourcePool, rng);
  fx->gw = std::make_shared<lagraph::Graph>(std::move(w), lagraph::Kind::undirected);
  // Lazy caches (both orientations, degrees, views) are built here, not in
  // the first timed call.
  fx->g->freeze();
  fx->gw->freeze();
  return fx;
}

namespace {

/// One driver call of rq.algo: the latency lands in rq.ms, the result's
/// fingerprint (tc: the count) in rq.hash.
void direct_call(const DirectFixture& fx, Request& rq) {
  auto timed = [&](auto&& call) {
    const auto t0 = Clock::now();
    auto r = call();
    rq.ms = ms_since(t0);
    return r;
  };
  switch (rq.algo) {
    case kPagerank:
      rq.hash =
          hash_vector(timed([&] { return lagraph::pagerank(*fx.g, 0.85, 1e-9, 100); }).rank);
      break;
    case kBfs:
      rq.hash = hash_vector(timed([&] {
                              return lagraph::bfs(*fx.g, rq.src,
                                                  lagraph::BfsVariant::direction_optimizing);
                            }).level);
      break;
    case kSssp:
      rq.hash =
          hash_vector(timed([&] { return lagraph::sssp_bellman_ford(*fx.gw, rq.src); }).dist);
      break;
    case kCc:
      rq.hash =
          hash_vector(timed([&] { return lagraph::connected_components_run(*fx.g); }).labels);
      break;
    default:
      rq.hash = timed([&] {
        return lagraph::triangle_count(*fx.g, lagraph::TriangleMethod::sandia_ll);
      });
      break;
  }
}

std::vector<Request> make_round(const DirectFixture& fx, Rng& rng) {
  std::vector<Index> src(kDirectSourcesPerRound);
  for (auto& s : src) s = fx.sources[rng.below(fx.sources.size())];
  std::vector<Request> round;
  round.push_back({kPagerank});
  for (Index s : src) round.push_back({kBfs, s});
  for (Index s : src) round.push_back({kSssp, s});
  round.push_back({kCc});
  round.push_back({kTc});
  return round;
}

}  // namespace

DirectPhase direct_phase(const DirectFixture& fx, double seconds, bool trace,
                         std::uint64_t seed, std::uint64_t stream,
                         Clock::time_point origin) {
  DirectPhase ph{{}, 0, {}, 0, 0, SpanLog(trace, origin)};
  Rng rng(seed, 200 + stream);
  for (Request& rq : make_round(fx, rng)) direct_call(fx, rq);  // warm-up

  MemSampler mem(kMemWindowMs);
  const auto ws0 = gb::platform::Workspace::thread_stats();
  const auto start = Clock::now();
  const auto deadline = start + from_ms(seconds * 1e3);
  auto last = start;
  std::uint64_t reqno = 0;
  // Whole rounds only, so the mix of calls is the same in every run.
  while (Clock::now() < deadline) {
    for (Request rq : make_round(fx, rng)) {
      const auto t0 = Clock::now();
      direct_call(fx, rq);
      last = Clock::now();
      ph.reqs.push_back(rq);
      ph.log.add(algo_name(rq.algo), t0, t0 + from_ms(rq.ms), -1, reqno++);
    }
  }
  const auto ws1 = gb::platform::Workspace::thread_stats();
  ph.elapsed_s = ms_between(start, last) / 1e3;
  ph.mem = mem.finish();
  ph.live_mb_end =
      static_cast<double>(gb::platform::MemoryMeter::current_bytes()) / (1 << 20);
  ph.ws_reuse_ratio = reuse_ratio(ws0, ws1);
  return ph;
}

CheckReport check_direct(const DirectFixture& fx,
                         const std::vector<Request>& reqs) {
  CheckReport rep;
  const std::vector<Index> sample(fx.sources.begin(), fx.sources.begin() + 4);
  Oracle oracle(fx.g, fx.gw, sample);
  for (const auto& rq : reqs) oracle.check(rq.algo, rq.src, rq.hash, rep);
  return rep;
}

}  // namespace perfbench
