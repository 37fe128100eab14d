#include "serve.hpp"

#include <stdexcept>
#include <thread>

#include "inputs.hpp"
#include "lagraph/lagraph.hpp"
#include "platform/epoch.hpp"

namespace perfbench {

ServeConfig ServeConfig::batched_mix() {
  ServeConfig c;
  c.batched = true;
  c.readers = 4;
  c.deck = {kBfs, kBfs, kBfs, kBfs, kSssp, kSssp, kSssp, kSssp, kPagerank, kPagerank};
  return c;
}

ServeConfig ServeConfig::churn_mix() {
  ServeConfig c;
  c.readers = 3;
  c.writer = true;
  c.versions = 4;
  c.deck = {kPagerank, kBfs, kSssp, kCc};
  return c;
}

ServeFixture::~ServeFixture() {
  if (svc != nullptr) LAGraph_Service_free(&svc);
  for (auto& m : cmats) GrB_Matrix_free(&m);
}

namespace {

void ok_or_throw(GrB_Info info, const char* what) {
  if (info != GrB_SUCCESS) {
    throw std::runtime_error(std::string(what) + " failed: " + std::to_string(info));
  }
}

}  // namespace

std::unique_ptr<ServeFixture> serve_setup(const ServeConfig& cfg,
                                          std::uint64_t seed) {
  auto fx = std::make_unique<ServeFixture>();
  fx->mats.push_back(weighted_rmat(kServeScale, kServeEdgeFactor, seed,
                                   /*symmetric=*/false, &fx->rmat_s));
  for (int k = 1; k < cfg.versions; ++k) {
    fx->mats.push_back(perturb(fx->mats.front(), seed, k));
  }
  for (const auto& m : fx->mats) fx->cmats.push_back(to_capi(m));
  std::vector<const gb::Matrix<double>*> all;
  for (const auto& m : fx->mats) all.push_back(&m);
  Rng rng(seed, 7);
  fx->sources = draw_sources(all, kSourcePool, rng);
  if (cfg.batched) {
    ok_or_throw(LAGraph_Service_new_ex(&fx->svc, cfg.workers, 64, 0, 0, 0, 0,
                                       /*batch_max=*/8, /*window_us=*/2000),
                "LAGraph_Service_new_ex");
  } else {
    ok_or_throw(LAGraph_Service_new(&fx->svc, cfg.workers, 64, 0, 0, 0, 0),
                "LAGraph_Service_new");
  }
  ok_or_throw(LAGraph_Service_publish(fx->svc, "g", fx->cmats.front()),
              "LAGraph_Service_publish");
  return fx;
}

ServiceCounters ServiceCounters::read(LAGraph_Service s) {
  ServiceCounters c;
  LAGraph_Service_stats(s, &c.submitted, &c.shed, &c.completed, &c.failed,
                        &c.cancelled, &c.watchdog, nullptr, nullptr);
  LAGraph_Service_batch_stats(s, &c.batches, &c.batched);
  return c;
}

ServiceCounters ServiceCounters::minus(const ServiceCounters& o) const {
  return {submitted - o.submitted, shed - o.shed,         completed - o.completed,
          failed - o.failed,       cancelled - o.cancelled, watchdog - o.watchdog,
          batches - o.batches,     batched - o.batched};
}

namespace {

struct ClientCtx {
  LAGraph_Service svc;
  const char* graph;
  Index n;
  int versions;
  std::vector<int> deck;
  const std::vector<Index>* sources;
  Clock::time_point start, deadline;
  Rng rng;
  SpanLog* log;
  std::vector<Request> out;
  Clock::time_point last_end;
};

int version_index(std::uint64_t counter, int versions) {
  return static_cast<int>((counter - 1) % static_cast<std::uint64_t>(versions));
}

void client_loop(ClientCtx& cx) {
  GrB_Vector result = nullptr;
  GrB_Vector_new(&result, cx.n);
  std::vector<GrB_Index> idx(cx.n);
  std::vector<double> vals(cx.n);
  std::vector<int> deck = cx.deck;
  std::size_t pos = deck.size();
  std::uint64_t reqno = 0;
  for (;;) {
    if (Clock::now() >= cx.deadline) break;
    if (pos == deck.size()) {
      shuffle(deck, cx.rng);
      pos = 0;
    }
    Request rq;
    rq.algo = deck[pos++];
    if (rq.algo == kBfs || rq.algo == kSssp) {
      rq.src = (*cx.sources)[cx.rng.below(cx.sources->size())];
    }
    std::uint64_t v1 = 0, v2 = 0;
    LAGraph_Service_version(cx.svc, cx.graph, &v1);
    const auto t0 = Clock::now();
    const bool measured = t0 >= cx.start;
    std::uint64_t id = 0;
    GrB_Info info =
        LAGraph_Service_submit(cx.svc, algo_name(rq.algo), cx.graph, rq.src, &id);
    const auto t1 = Clock::now();
    auto t2 = t1;
    if (info == GrB_SUCCESS) {
      info = LAGraph_Service_wait(result, cx.svc, id);
      t2 = Clock::now();
      GrB_Index nv = cx.n;
      if (info == GrB_SUCCESS) {
        info = GrB_Vector_extractTuples_FP64(idx.data(), vals.data(), &nv, result);
      }
      if (info == GrB_SUCCESS) {
        rq.hash = hash_result(cx.n, idx.data(), vals.data(), nv);
      }
      LAGraph_Service_release(cx.svc, id);
      LAGraph_Service_version(cx.svc, cx.graph, &v2);
      if (v1 != 0 && v1 == v2) rq.version = version_index(v1, cx.versions);
    }
    rq.info = static_cast<int>(info);
    rq.ms = ms_between(t0, t2);
    if (!measured) continue;
    cx.out.push_back(rq);
    cx.last_end = t2;
    if (cx.log->on()) {
      const std::uint64_t r = reqno++;
      const auto root = cx.log->add("request", t0, t2, -1, r);
      cx.log->add("capi.submit", t0, t1, root, r);
      if (t2 > t1) cx.log->add("capi.wait", t1, t2, root, r);
    }
  }
  GrB_Vector_free(&result);
}

}  // namespace

PhaseResult serve_phase(ServeFixture& fx, const ServeConfig& cfg,
                        const PhaseSpec& spec, std::uint64_t seed,
                        Clock::time_point origin) {
  PhaseResult res;
  const Index n = fx.mats.front().nrows();
  const auto start = Clock::now() + from_ms(spec.warm_s * 1e3);
  const auto deadline = start + from_ms(spec.seconds * 1e3);
  const std::vector<Index>* sources = spec.sources ? spec.sources : &fx.sources;

  for (int c = 0; c <= spec.clients; ++c) res.logs.emplace_back(spec.trace, origin);
  std::vector<ClientCtx> ctx;
  ctx.reserve(static_cast<std::size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    ctx.push_back({fx.svc, spec.graph, n, cfg.versions, cfg.deck, sources, start,
                   deadline, Rng(seed, spec.stream * 100 + static_cast<std::uint64_t>(c)),
                   &res.logs[static_cast<std::size_t>(c)], {}, start});
  }

  std::vector<std::thread> threads;
  for (auto& cx : ctx) threads.emplace_back([&cx] { client_loop(cx); });

  // The writer republishes on a fixed 250 ms schedule inside the measured
  // window, cycling through the versions built at setup: publishing
  // version (counter % versions) keeps "counter - 1 mod versions" the index
  // of the version a counter value names.
  SpanLog& wlog = res.logs.back();
  std::thread writer;
  if (spec.writer) {
    writer = std::thread([&] {
      for (int p = 1;; ++p) {
        const auto due = start + from_ms(p * kWriterPeriodMs);
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        std::uint64_t counter = 0;
        LAGraph_Service_version(fx.svc, spec.graph, &counter);
        const auto t0 = Clock::now();
        LAGraph_Service_publish(fx.svc, spec.graph,
                                fx.cmats[counter % fx.cmats.size()]);
        const auto t1 = Clock::now();
        res.publish_ms.push_back(ms_between(t0, t1));
        wlog.add("capi.publish", t0, t1, -1, 0);
      }
    });
  }

  std::this_thread::sleep_until(start);
  MemSampler mem(kMemWindowMs);
  const ServiceCounters before = ServiceCounters::read(fx.svc);
  const auto limbo0 = static_cast<std::int64_t>(gb::platform::Epoch::limbo_size());

  for (auto& t : threads) t.join();
  if (writer.joinable()) writer.join();

  res.mem = mem.finish();
  res.live_mb_end =
      static_cast<double>(gb::platform::MemoryMeter::current_bytes()) / (1 << 20);
  res.delta = ServiceCounters::read(fx.svc).minus(before);
  res.epoch_freed = limbo0 + static_cast<std::int64_t>(res.publish_ms.size()) -
                    static_cast<std::int64_t>(gb::platform::Epoch::limbo_size());
  Clock::time_point last = start;
  for (auto& cx : ctx) {
    last = std::max(last, cx.last_end);
    res.reqs.insert(res.reqs.end(), cx.out.begin(), cx.out.end());
  }
  res.elapsed_s = ms_between(start, last) / 1e3;
  return res;
}

CheckReport check_serve(const ServeFixture& fx,
                        const std::vector<Request>& reqs) {
  CheckReport rep;
  // Reference sample: the first four pool sources (the pool order is seeded).
  const std::vector<Index> sample(fx.sources.begin(), fx.sources.begin() + 4);
  std::vector<std::unique_ptr<Oracle>> oracles(fx.mats.size());
  for (const auto& rq : reqs) {
    if (!rq.ok()) continue;
    if (rq.version < 0) {
      ++rep.unattributed;
      continue;
    }
    auto& o = oracles[static_cast<std::size_t>(rq.version)];
    if (!o) {
      auto g = std::make_shared<lagraph::Graph>(fx.mats[rq.version].dup(),
                                                lagraph::Kind::directed);
      o = std::make_unique<Oracle>(g, g, sample);
    }
    o->check(rq.algo, rq.src, rq.hash, rep);
  }
  return rep;
}

}  // namespace perfbench
