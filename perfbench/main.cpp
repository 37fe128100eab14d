// perfbench — the repository benchmark. One binary runs one workload:
//
//   perfbench --workload <serve_batched|serve_churn|algo_direct> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (client-side spans, the layer ladder, single ops) and
// the tracing overhead. Both check every output they produce after the
// timed phases. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a fuller record (environment, sample counts, spans) is written to
// <out>/<workload>-seed<n>-trace<t>.json. See README.md beside this file.
#include <omp.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "direct.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "lagraph/serving.hpp"
#include "platform/workspace.hpp"
#include "serve.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr int kLadderSources = 4;
constexpr std::size_t kPairSources = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload serve_batched|serve_churn|algo_direct"
               " --seed N --seconds S --trace 0|1 [--commit ID] [--out DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--seed") o.seed = std::stoull(val);
      if (key == "--seconds") o.seconds = std::stod(val);
    } catch (const std::exception&) {
      usage("bad value for " + key);
    }
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed" || key == "--seconds") {
      // parsed above
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--commit") {
      o.commit = val;
    } else if (key == "--out") {
      o.out = val;
    } else {
      usage("unknown option " + key);
    }
  }
  if (o.workload != "serve_batched" && o.workload != "serve_churn" &&
      o.workload != "algo_direct") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

/// OpenMP reads OMP_NUM_THREADS once at start-up, and service worker threads
/// take it as their kernel thread count, so the benchmark fixes it by
/// re-executing itself with the value the workload needs.
void pin_kernel_threads(int threads, char** argv) {
  const std::string want = std::to_string(threads);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have != nullptr && want == have) return;
  setenv("OMP_NUM_THREADS", want.c_str(), 1);
  execv("/proc/self/exe", argv);
  std::perror("perfbench: re-exec");
  std::exit(2);
}

struct Env {
  int nproc = 1;
  int workers = 0;         ///< service workers of the measured phase (0 = none)
  int kernel_threads = 1;  ///< OpenMP threads per kernel call
};

// --- summaries -------------------------------------------------------------------

struct Summary {
  std::size_t attempted = 0, errors = 0, ok = 0;
  std::map<int, std::size_t> error_codes;
  double rps = 0, p50 = 0, p99 = 0;
  double algo_p50[kNumAlgos] = {};
  std::size_t algo_n[kNumAlgos] = {};
};

Summary summarize(const std::vector<Request>& reqs, double elapsed_s) {
  Summary s;
  std::vector<double> all, per[kNumAlgos];
  for (const auto& rq : reqs) {
    ++s.attempted;
    if (!rq.ok()) {
      ++s.errors;
      ++s.error_codes[rq.info];
      continue;
    }
    all.push_back(rq.ms);
    per[rq.algo].push_back(rq.ms);
  }
  s.ok = all.size();
  s.rps = elapsed_s > 0 ? static_cast<double>(s.ok) / elapsed_s : 0;
  s.p50 = median(all);
  s.p99 = p99_supported(all.size()) ? percentile(all, 0.99) : 0;
  for (int a = 0; a < kNumAlgos; ++a) {
    s.algo_p50[a] = median(per[a]);
    s.algo_n[a] = per[a].size();
  }
  return s;
}

/// The metrics every workload reports on the untraced run (BENCHMARK.json
/// end_to_end), plus the workload-specific ones under e2e.* (0 = does not
/// apply on this workload).
void end_to_end(Metrics& m, const Summary& s, double setup_s,
                const MemSampler::Windows& mem, const std::vector<double>& publish_ms,
                const std::string& prefix_specific) {
  const std::string windows = std::to_string(mem.rss_mb.size()) + " windows of " +
                              std::to_string(static_cast<int>(kMemWindowMs)) + " ms";
  m.set("setup_s", setup_s, "s",
        "median of " + std::to_string(kSetupReps) + " set-ups after an untimed one");
  m.set("throughput_rps", s.rps, "1/s", count_note(s.ok));
  m.set("latency_p50_ms", s.p50, "ms", count_note(s.ok));
  m.set("peak_mem_mb", median(mem.rss_mb), "MiB", "resident set, median peak of " + windows);
  m.set("pagerank_p50_ms", s.algo_p50[kPagerank], "ms", count_note(s.algo_n[kPagerank]));
  m.set("bfs_p50_ms", s.algo_p50[kBfs], "ms", count_note(s.algo_n[kBfs]));
  m.set("sssp_p50_ms", s.algo_p50[kSssp], "ms", count_note(s.algo_n[kSssp]));
  m.set("platform.meter_peak_mb", median(mem.meter_mb), "MiB",
        "MemoryMeter, median peak of " + windows);
  const std::string& p = prefix_specific;
  m.set(p + "latency_p99_ms", s.p99, "ms",
        p99_supported(s.ok) ? count_note(s.ok) : "n/a: under 1000 samples");
  m.set(p + "publish_p50_ms", median(publish_ms), "ms", count_note(publish_ms.size()));
  m.set(p + "cc_p50_ms", s.algo_p50[kCc], "ms", count_note(s.algo_n[kCc]));
  m.set(p + "tc_p50_ms", s.algo_p50[kTc], "ms", count_note(s.algo_n[kTc]));
  m.set(p + "peak_mem_max_mb",
        mem.rss_mb.empty() ? 0.0 : *std::max_element(mem.rss_mb.begin(), mem.rss_mb.end()),
        "MiB", "resident set, largest window peak");
}

/// Names of the end_to_end metrics in BENCHMARK.json, in order.
const std::vector<std::string>& gated_names() {
  static const std::vector<std::string> names = {
      "setup_s",         "throughput_rps", "latency_p50_ms", "peak_mem_mb",
      "pagerank_p50_ms", "bfs_p50_ms",     "sssp_p50_ms"};
  return names;
}

// --- the run ----------------------------------------------------------------------

struct Outcome {
  Metrics report;  ///< everything measured, printed and written out
  std::vector<std::string> last_line;  ///< metric names for the result line
  CheckReport checks;
  std::size_t attempted = 0, failed = 0;
  std::map<int, std::size_t> errors;  ///< GrB_Info of failed requests -> count
};

/// Build the fixture once untimed (allocator first touch, thread start-up),
/// then kSetupReps timed times, keeping the last; medians go to the outputs.
template <class Make>
auto timed_setups(Make make, double& setup_s, double& rmat_s) {
  auto fx = make();
  std::vector<double> t, r;
  for (int i = 0; i < kSetupReps; ++i) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = make();
    t.push_back(ms_since(t0) / 1e3);
    r.push_back(fx->rmat_s);
  }
  setup_s = median(t);
  rmat_s = median(r);
  return fx;
}

void ladder_metrics(Metrics& m, const LadderResult& lr) {
  const int algos[] = {kPagerank, kBfs, kSssp, kCc};
  m.set("capi.wait_ready_p50_us", median(lr.ready_wait_us), "us",
        count_note(lr.ready_wait_us.size()));
  m.set("capi.publish_p50_ms", median(lr.publish_ms), "ms",
        "unloaded, " + count_note(lr.publish_ms.size()));
  const char* layer[kNumRungs] = {"", "runner", "serving", "capi"};
  for (int rung = kCapiRung; rung > kDriverRung; --rung) {
    for (int a : algos) {
      m.set(std::string(layer[rung]) + ".self_ms." + algo_name(a), median(lr.self[a][rung]),
            "ms", "paired, " + count_note(lr.self[a][rung].size()));
    }
  }
  m.set("serving.freeze_ms", median(lr.freeze_ms), "ms", count_note(lr.freeze_ms.size()));
  m.set("runner.slices", static_cast<double>(lr.runner_slices), "count",
        "over " + std::to_string(lr.runner_runs) + " runs");
  m.set("runner.retries", static_cast<double>(lr.runner_retries), "count",
        "over " + std::to_string(lr.runner_runs) + " runs");
  for (int a : {kPagerank, kBfs, kSssp, kCc, kTc}) {
    m.set(std::string("driver.") + algo_name(a) + "_ms", median(lr.t[a][kDriverRung]), "ms",
          "unloaded, " + count_note(lr.t[a][kDriverRung].size()));
  }
  m.set("driver.pagerank.iterations", static_cast<double>(lr.pr_iterations), "count");
  m.set("driver.sssp.iterations", static_cast<double>(lr.sssp_iterations), "count",
        "summed over the ladder sources");
  m.set("driver.bfs.levels", static_cast<double>(lr.bfs_levels), "count",
        "summed over the ladder sources");
  m.set("driver.bfs.pull_levels", static_cast<double>(lr.bfs_pull_levels), "count",
        "summed over the ladder sources");
}

void service_metrics(Metrics& m, const ServiceCounters& d) {
  m.set("service.mean_batch",
        d.batches ? static_cast<double>(d.batched) / static_cast<double>(d.batches) : 0.0,
        "count", "batched_requests / batches");
  m.set("service.batches", static_cast<double>(d.batches), "count");
  m.set("service.batched_requests", static_cast<double>(d.batched), "count");
  m.set("service.shed", static_cast<double>(d.shed), "count");
  m.set("service.failed", static_cast<double>(d.failed), "count");
  m.set("service.cancelled", static_cast<double>(d.cancelled), "count");
  m.set("service.watchdog_cancels", static_cast<double>(d.watchdog), "count");
}

/// Per-algorithm p50 of the loaded run minus the matching unloaded rung.
void contention_metrics(Metrics& m, const Summary& loaded, const LadderResult& lr,
                        int rung) {
  for (int a : {kPagerank, kBfs, kSssp, kCc}) {
    const double v = loaded.algo_n[a] ? loaded.algo_p50[a] - median(lr.t[a][rung]) : 0.0;
    m.set(std::string("service.contention_p50_ms.") + algo_name(a), v, "ms",
          loaded.algo_n[a] ? count_note(loaded.algo_n[a]) : "n/a: not in the mix");
  }
}

/// Largest relative gap between the ladder's top rung and the unloaded
/// one-client end-to-end p50, over the algorithms the workload sends.
double top_rung_gap(const Summary& unloaded, const LadderResult& lr, int rung) {
  double gap = 0;
  for (int a = 0; a < kNumAlgos; ++a) {
    if (unloaded.algo_n[a] == 0 || lr.t[a][rung].empty()) continue;
    gap = std::max(gap, std::fabs(median(lr.t[a][rung]) / unloaded.algo_p50[a] - 1.0));
  }
  return gap;
}

void shared_layer_metrics(Metrics& m, const Env& env, double rmat_s,
                          const Summary& untraced, const Summary& traced) {
  m.set("platform.cores_effective", cores_effective(env.nproc), "x",
        "plain OpenMP loop, " + std::to_string(env.nproc) + " threads vs 1");
  m.set("util.rmat_s", rmat_s, "s", "median over set-ups");
  m.set("trace.overhead_p50_ms", traced.p50 - untraced.p50, "ms",
        "traced minus untraced latency_p50_ms");
}

Outcome run_serve(const Options& o, const Env& env, Clock::time_point origin,
                  std::vector<SpanLog>& keep) {
  const bool churn = o.workload == "serve_churn";
  const ServeConfig cfg = churn ? ServeConfig::churn_mix() : ServeConfig::batched_mix();
  double setup_s = 0, rmat_s = 0;
  auto fx = timed_setups([&] { return serve_setup(cfg, o.seed); }, setup_s, rmat_s);

  Outcome out;
  PhaseSpec spec;
  // Never more client threads (readers plus the writer) than cores.
  spec.clients = std::min(cfg.readers, std::max(1, env.nproc - (cfg.writer ? 1 : 0)));
  spec.writer = cfg.writer;
  spec.seconds = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<Request> all;

  PhaseResult main = serve_phase(*fx, cfg, spec, o.seed, origin);
  const Summary s = summarize(main.reqs, main.elapsed_s);
  all = main.reqs;
  out.attempted = main.reqs.size();

  if (!o.trace) {
    out.checks = check_serve(*fx, main.reqs);
    end_to_end(out.report, s, setup_s, main.mem, main.publish_ms, "");
    out.last_line = gated_names();
    out.failed = s.errors + out.checks.wrong;
    out.errors = s.error_codes;
    return out;
  }

  // Traced half: the same load with client-side spans.
  spec.trace = true;
  spec.stream = 1;
  PhaseResult traced = serve_phase(*fx, cfg, spec, o.seed, origin);
  const Summary ts = summarize(traced.reqs, traced.elapsed_s);
  all.insert(all.end(), traced.reqs.begin(), traced.reqs.end());
  out.attempted += traced.reqs.size();

  // Ladder on a fresh name on the workload's own service, mirrored on a C++
  // GraphService with the same options.
  lagraph::GraphService::Options gopt;
  gopt.service.workers = cfg.workers;
  gopt.service.queue_limit = 64;
  gopt.service.batch_max = cfg.batched ? 8 : 1;
  gopt.service.batch_window_us = cfg.batched ? 2000 : 0;
  lagraph::GraphService cpp(gopt);
  cpp.publish("lg", lagraph::Graph(fx->mats.front().dup(), lagraph::Kind::directed));
  LAGraph_Service_publish(fx->svc, "lg", fx->cmats.front());
  LadderTarget lt;
  lt.cpp = &cpp;
  lt.capi = fx->svc;
  lt.publish_src = fx->cmats.front();
  lt.sources.assign(fx->sources.begin(), fx->sources.begin() + kLadderSources);
  lt.reps = 3;
  keep.emplace_back(true, origin);
  const LadderResult lr = run_ladder(lt, keep.back(), out.checks);

  // Unloaded one-client run on the ladder's graph and sources.
  PhaseSpec one;
  one.graph = "lg";
  one.clients = 1;
  one.seconds = 1.5;
  one.warm_s = 0.2;
  one.stream = 2;
  one.sources = &lt.sources;
  PhaseResult unloaded = serve_phase(*fx, cfg, one, o.seed, origin);
  const Summary us = summarize(unloaded.reqs, unloaded.elapsed_s);
  all.insert(all.end(), unloaded.reqs.begin(), unloaded.reqs.end());
  out.attempted += unloaded.reqs.size();

  Metrics& m = out.report;
  std::vector<double> submit_us;
  for (const auto& l : traced.logs) {
    for (double ms : l.durations_ms("capi.submit")) submit_us.push_back(ms * 1e3);
  }
  m.set("capi.submit_p50_us", median(submit_us), "us", "loaded, " + count_note(submit_us.size()));
  ladder_metrics(m, lr);
  service_metrics(m, traced.delta);
  contention_metrics(m, ts, lr, kCapiRung);
  measure_batch_pairs(*cpp.snapshot("lg"), *cpp.snapshot("lg"), std::vector<Index>(
                          fx->sources.begin(), fx->sources.begin() + kPairSources),
                      3, m, out.checks);
  measure_ops(*cpp.snapshot("lg"), env.kernel_threads, 3, o.seed, m);
  m.set("platform.ws_reuse_ratio", lr.ws_reuse_ratio, "ratio",
        "caller thread over the ladder's driver and runner rungs");
  m.set("platform.epoch_freed", static_cast<double>(traced.epoch_freed), "count",
        "versions retired and freed during the traced phase");
  m.set("platform.live_mb_end", traced.live_mb_end, "MiB");
  shared_layer_metrics(m, env, rmat_s, s, ts);
  m.set("ladder.top_rung_gap", top_rung_gap(us, lr, kCapiRung), "ratio",
        "max |capi rung / unloaded one-client p50 - 1|");
  end_to_end(m, s, setup_s, main.mem, main.publish_ms, "e2e.");

  out.checks.add(check_serve(*fx, all));
  out.failed = s.errors + ts.errors + us.errors + out.checks.wrong;
  for (const Summary* x : {&s, &ts, &us}) {
    for (const auto& [code, n] : x->error_codes) out.errors[code] += n;
  }
  for (auto& l : traced.logs) keep.push_back(std::move(l));
  return out;
}

Outcome run_direct(const Options& o, const Env& env, Clock::time_point origin,
                   std::vector<SpanLog>& keep) {
  double setup_s = 0, rmat_s = 0;
  auto fx = timed_setups([&] { return direct_setup(o.seed); }, setup_s, rmat_s);

  Outcome out;
  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  DirectPhase main = direct_phase(*fx, seconds, false, o.seed, 0, origin);
  const Summary s = summarize(main.reqs, main.elapsed_s);
  out.attempted = main.reqs.size();

  if (!o.trace) {
    out.checks = check_direct(*fx, main.reqs);
    end_to_end(out.report, s, setup_s, main.mem, {}, "");
    out.last_line = gated_names();
    out.failed = s.errors + out.checks.wrong;
    out.errors = s.error_codes;
    return out;
  }

  DirectPhase traced = direct_phase(*fx, seconds, true, o.seed, 1, origin);
  const Summary ts = summarize(traced.reqs, traced.elapsed_s);
  out.attempted += traced.reqs.size();

  // The ladder needs a service: one worker, no batching, graphs published
  // from the same matrices (the kind is not used by the drivers).
  lagraph::GraphService::Options gopt;
  gopt.service.workers = 1;
  gopt.service.queue_limit = 64;
  lagraph::GraphService cpp(gopt);
  cpp.publish("lg", lagraph::Graph(fx->g->adj().dup(), lagraph::Kind::undirected));
  cpp.publish("lgw", lagraph::Graph(fx->gw->adj().dup(), lagraph::Kind::undirected));
  LAGraph_Service csvc = nullptr;
  LAGraph_Service_new(&csvc, 1, 64, 0, 0, 0, 0);
  GrB_Matrix cg = to_capi(fx->g->adj()), cgw = to_capi(fx->gw->adj());
  LAGraph_Service_publish(csvc, "lg", cg);
  LAGraph_Service_publish(csvc, "lgw", cgw);
  const ServiceCounters before = ServiceCounters::read(csvc);
  LadderTarget lt;
  lt.cpp = &cpp;
  lt.capi = csvc;
  lt.wgraph = "lgw";
  lt.publish_src = cg;
  lt.sources.assign(fx->sources.begin(), fx->sources.begin() + kLadderSources);
  lt.reps = 2;
  keep.emplace_back(true, origin);
  const LadderResult lr = run_ladder(lt, keep.back(), out.checks);
  const ServiceCounters delta = ServiceCounters::read(csvc).minus(before);
  LAGraph_Service_free(&csvc);
  GrB_Matrix_free(&cg);
  GrB_Matrix_free(&cgw);

  Metrics& m = out.report;
  m.set("capi.submit_p50_us", median(lr.submit_us), "us",
        "unloaded ladder, " + count_note(lr.submit_us.size()));
  ladder_metrics(m, lr);
  service_metrics(m, delta);
  contention_metrics(m, ts, lr, kDriverRung);
  measure_batch_pairs(*fx->g, *fx->gw, std::vector<Index>(
                          fx->sources.begin(), fx->sources.begin() + kPairSources),
                      2, m, out.checks);
  measure_ops(*fx->g, env.kernel_threads, 3, o.seed, m);
  m.set("platform.ws_reuse_ratio", traced.ws_reuse_ratio, "ratio",
        "caller thread over the traced phase");
  m.set("platform.epoch_freed", 0.0, "count", "no publishes on this workload");
  m.set("platform.live_mb_end", traced.live_mb_end, "MiB");
  shared_layer_metrics(m, env, rmat_s, s, ts);
  m.set("ladder.top_rung_gap", top_rung_gap(ts, lr, kDriverRung), "ratio",
        "max |driver rung / measured one-caller p50 - 1|");
  end_to_end(m, s, setup_s, main.mem, {}, "e2e.");

  std::vector<Request> all = main.reqs;
  all.insert(all.end(), traced.reqs.begin(), traced.reqs.end());
  out.checks.add(check_direct(*fx, all));
  out.failed = s.errors + ts.errors + out.checks.wrong;
  for (const Summary* x : {&s, &ts}) {
    for (const auto& [code, n] : x->error_codes) out.errors[code] += n;
  }
  keep.push_back(std::move(traced.log));
  return out;
}

/// BENCHMARK.json per_layer order: every name the traced run reports except
/// the workload-specific end-to-end copies, which follow them.
std::vector<std::string> layer_names(const Metrics& m) {
  std::vector<std::string> names;
  for (const auto& n : m.names()) {
    if (n.rfind("e2e.", 0) != 0 && std::find(gated_names().begin(), gated_names().end(), n) ==
                                       gated_names().end()) {
      names.push_back(n);
    }
  }
  for (const auto& n : m.names()) {
    if (n.rfind("e2e.", 0) == 0) names.push_back(n);
  }
  return names;
}

std::string env_json(const Options& o, const Env& env) {
  std::ostringstream s;
  s << "{\"workload\": " << json_str(o.workload) << ", \"seed\": " << o.seed
    << ", \"seconds\": " << json_num(o.seconds) << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"nproc\": " << env.nproc << ", \"workers\": " << env.workers
    << ", \"kernel_threads\": " << env.kernel_threads
    << ", \"compiler\": " << json_str(__VERSION__)
    << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
    << ", \"commit\": " << json_str(o.commit) << "}";
  return s.str();
}

void write_record(const Options& o, const Env& env, const Outcome& out,
                  const std::vector<SpanLog>& spans) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(o.out, ec);
  const std::string path = o.out + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  if (!f) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return;
  }
  f << "{\"env\": " << env_json(o, env) << ",\n \"metrics\": {";
  bool first = true;
  for (const auto& n : out.report.names()) {
    const Metric& mt = out.report.at(n);
    f << (first ? "\n  " : ",\n  ") << json_str(n) << ": {\"value\": " << json_num(mt.value)
      << ", \"unit\": " << json_str(mt.unit) << ", \"note\": " << json_str(mt.note) << "}";
    first = false;
  }
  f << "},\n \"checks\": {\"checked\": " << out.checks.checked
    << ", \"unattributed\": " << out.checks.unattributed << ", \"wrong\": " << out.checks.wrong
    << ", \"ref_checked\": " << out.checks.ref_checked
    << ", \"ref_wrong\": " << out.checks.ref_wrong << "},\n \"failed_by_info\": {";
  first = true;
  for (const auto& [code, n] : out.errors) {
    f << (first ? "" : ", ") << "\"" << code << "\": " << n;
    first = false;
  }
  f << "},\n \"spans\": [";
  first = true;
  std::size_t thread = 0;
  for (const auto& log : spans) {
    for (const Span& sp : log.spans()) {
      f << (first ? "\n  " : ",\n  ") << "{\"name\": " << json_str(sp.name)
        << ", \"thread\": " << thread << ", \"start_us\": " << json_num(sp.start_us)
        << ", \"end_us\": " << json_num(sp.end_us) << ", \"parent\": " << sp.parent
        << ", \"request\": " << sp.request << "}";
      first = false;
    }
    ++thread;
  }
  f << "]}\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  Env env;
  env.nproc = omp_get_num_procs();
  const bool serve = o.workload != "algo_direct";
  env.workers = serve ? 2 : 0;
  env.kernel_threads = serve ? std::max(1, env.nproc / 2) : env.nproc;
  pin_kernel_threads(env.kernel_threads, argv);

  std::vector<SpanLog> spans;
  Outcome out;
  try {
    const auto origin = Clock::now();
    out = serve ? run_serve(o, env, origin, spans) : run_direct(o, env, origin, spans);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  // Every library object the run created is gone: drop the workspace
  // buffers this thread and its OpenMP team retain, and whatever the meter
  // still counts is a leak or an accounting error.
#pragma omp parallel
  gb::platform::Workspace::clear_thread();
  out.report.set("platform.meter_residual_mb",
                 static_cast<double>(gb::platform::MemoryMeter::current_bytes()) / (1 << 20),
                 "MiB", "MemoryMeter after teardown; 0 when accounting balances");
  out.report.set(o.trace ? "e2e.fail_frac" : "fail_frac",
                 static_cast<double>(out.failed) /
                     static_cast<double>(std::max<std::size_t>(1, out.attempted)),
                 "ratio", "(failed + shed + cancelled + wrong) / attempted");
  if (o.trace) out.last_line = layer_names(out.report);
  write_record(o, env, out, spans);

  std::cout << "perfbench " << env_json(o, env) << "\n";
  for (const auto& n : out.report.names()) {
    const Metric& mt = out.report.at(n);
    std::printf("  %-34s %14.6g %-6s %s\n", n.c_str(), mt.value, mt.unit.c_str(),
                mt.note.c_str());
  }
  for (const auto& [code, n] : out.errors) {
    std::printf("failed requests: %zu returned GrB_Info %d\n", n, code);
  }
  std::printf("checks: %zu results vs driver (%zu wrong, %zu unattributed), "
              "%zu driver results vs src/reference (%zu wrong)\n",
              out.checks.checked, out.checks.wrong, out.checks.unattributed,
              out.checks.ref_checked, out.checks.ref_wrong);
  std::fflush(stdout);

  const bool correct = out.checks.pass();
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& n : out.last_line) {
    const Metric& mt = out.report.at(n);
    line << (first ? "" : ", ") << json_str(n) << ": {\"value\": " << json_num(mt.value)
         << ", \"unit\": " << json_str(mt.unit) << "}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
