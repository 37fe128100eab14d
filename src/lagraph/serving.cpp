#include "lagraph/serving.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <utility>

#include "lagraph/lagraph.hpp"

namespace lagraph {

namespace {

using BatchView = gb::platform::Service::BatchView;

/// Flatten a result vector and its drive's stop code into a job result.
template <class VecT>
void store_vector(const VecT& v, StopReason stop, ServiceJobResult& out) {
  std::vector<gb::Index> idx;
  std::vector<typename VecT::value_type> vals;
  v.extract_tuples(idx, vals);
  out.idx = std::move(idx);
  out.vals.assign(vals.begin(), vals.end());
  out.n = v.size();
  out.stop = stop;
}

ServiceJobResult& payload(const BatchView& view, std::size_t member) {
  return *static_cast<ServiceJobResult*>(view.payload(member));
}

/// The live members of a batch and the argument each contributes: row r of
/// the multi-source run is sources[r], owned by member_of_row[r].
struct BatchRows {
  std::vector<gb::Index> sources;
  std::vector<std::size_t> member_of_row;
};

BatchRows collect_rows(const BatchView& view) {
  BatchRows rows;
  rows.sources.reserve(view.size());
  rows.member_of_row.reserve(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (view.cancelled(i)) continue;
    rows.sources.push_back(static_cast<gb::Index>(view.arg(i)));
    rows.member_of_row.push_back(i);
  }
  return rows;
}

/// De-batch a (k x n) result matrix: row r belongs to member_of_row[r].
/// Tuples come out row-major sorted, so this is one pass. Members cancelled
/// after dispatch are skipped (the service finishes them State::cancelled;
/// their payload is left untouched).
template <class T>
void scatter_rows(const gb::Matrix<T>& m, const BatchRows& rows,
                  const BatchView& view, StopReason stop) {
  for (std::size_t member : rows.member_of_row) {
    if (view.cancelled(member)) continue;
    ServiceJobResult& out = payload(view, member);
    out.idx.clear();
    out.vals.clear();
    out.n = m.ncols();
    out.stop = stop;
    out.batch_size = rows.member_of_row.size();
  }
  std::vector<gb::Index> ri, ci;
  std::vector<T> vi;
  m.extract_tuples(ri, ci, vi);
  for (std::size_t t = 0; t < ri.size(); ++t) {
    const std::size_t member =
        rows.member_of_row[static_cast<std::size_t>(ri[t])];
    if (view.cancelled(member)) continue;
    ServiceJobResult& out = payload(view, member);
    out.idx.push_back(ci[t]);
    out.vals.push_back(static_cast<double>(vi[t]));
  }
}

/// A request's argument: ignored, a source vertex (range-checked at
/// submit) or an RNG seed.
enum class Arg { none, source, seed };

/// How coalesced requests share work. none: never coalesced. dedup: every
/// member asks for the same computation, so it runs once and fans out.
/// multi_source: the members' sources are the rows of one k-row run.
enum class Batch { none, dedup, multi_source };

/// One served algorithm. `run` serves a solo request and the k = 1 case of
/// a batch; `multi_source` runs k >= 2 rows and scatters them back.
struct Algorithm {
  std::string_view name;
  Arg arg;
  void (*run)(Runner&, const Graph&, std::uint64_t arg, ServiceJobResult&);
  Batch batch = Batch::none;
  void (*multi_source)(Runner&, const Graph&, const BatchRows&,
                       const BatchView&) = nullptr;
};

// Every served algorithm, named once. Multi-source SSSP stays unserved: a
// k-row Bellman-Ford lost to k solo runs end to end, and it fails the whole
// batch when any one source reaches a negative cycle.
const Algorithm kAlgorithms[] = {
    {"pagerank", Arg::none,
     [](Runner& r, const Graph& g, std::uint64_t, ServiceJobResult& out) {
       auto res = r.run([&](const Checkpoint* cp) {
         return pagerank(g, 0.85, 1e-9, 100, cp);
       });
       store_vector(res.rank, res.stop, out);
     },
     Batch::dedup},
    {"bfs", Arg::source,
     [](Runner& r, const Graph& g, std::uint64_t s, ServiceJobResult& out) {
       auto res = r.run([&](const Checkpoint* cp) {
         return bfs(g, s, BfsVariant::direction_optimizing, cp);
       });
       store_vector(res.level, res.stop, out);
     },
     Batch::multi_source,
     // Levels are variant-independent, so rows match the solo runs exactly.
     [](Runner& r, const Graph& g, const BatchRows& rows,
        const BatchView& view) {
       auto res = r.run([&](const Checkpoint* cp) {
         return bfs_level_ms(g, rows.sources, cp);
       });
       scatter_rows(res.level, rows, view, res.stop);
     }},
    {"sssp", Arg::source,
     [](Runner& r, const Graph& g, std::uint64_t s, ServiceJobResult& out) {
       auto res = r.run(
           [&](const Checkpoint* cp) { return sssp_bellman_ford(g, s, cp); });
       store_vector(res.dist, res.stop, out);
     }},
    {"cc", Arg::none,
     [](Runner& r, const Graph& g, std::uint64_t, ServiceJobResult& out) {
       auto res = r.run([&](const Checkpoint* cp) {
         return connected_components_run(g, cp);
       });
       store_vector(res.labels, res.stop, out);
     }},
    {"scc", Arg::none,
     [](Runner& r, const Graph& g, std::uint64_t, ServiceJobResult& out) {
       auto res = r.run([&](const Checkpoint* cp) {
         return strongly_connected_components_run(g, cp);
       });
       store_vector(res.labels, res.stop, out);
     }},
    {"coloring", Arg::seed,
     [](Runner& r, const Graph& g, std::uint64_t seed, ServiceJobResult& out) {
       auto res = r.run(
           [&](const Checkpoint* cp) { return coloring_run(g, seed, cp); });
       store_vector(res.colors, res.stop, out);
     }},
};

/// The one batch job every coalescing row shares. A batch that collapsed to
/// one live member, and every dedup batch, runs the row's solo `run` once
/// and copies the result to each live member; a multi-source batch of k >= 2
/// rows runs the row's hook. batch_size records the live members.
void run_batch(const Algorithm& algo, const Graph& g, Runner& runner,
               const BatchView& view) {
  const BatchRows rows = collect_rows(view);
  if (rows.member_of_row.empty()) return;
  if (rows.member_of_row.size() > 1 && algo.batch == Batch::multi_source) {
    algo.multi_source(runner, g, rows, view);
  } else {
    ServiceJobResult res;
    algo.run(runner, g, rows.sources[0], res);
    res.batch_size = rows.member_of_row.size();
    for (std::size_t member : rows.member_of_row) {
      if (!view.cancelled(member)) payload(view, member) = res;
    }
  }
}

}  // namespace

GraphService::GraphService(Options opts)
    : opts_(std::move(opts)), svc_(opts_.service) {}

void GraphService::publish(const std::string& name, Graph&& g) {
  auto sp = std::make_shared<Graph>(std::move(g));
  sp->freeze();
  gb::platform::Versioned<Graph>* cell;
  {
    std::lock_guard<std::mutex> lk(gm_);
    auto& slot = graphs_[name];
    if (!slot) slot = std::make_unique<gb::platform::Versioned<Graph>>();
    cell = slot.get();
  }
  cell->publish(std::move(sp));
}

std::shared_ptr<const Graph> GraphService::snapshot(
    const std::string& name) const {
  gb::platform::Versioned<Graph>* cell = nullptr;
  {
    std::lock_guard<std::mutex> lk(gm_);
    auto it = graphs_.find(name);
    if (it != graphs_.end()) cell = it->second.get();
  }
  gb::check_value(cell != nullptr, "GraphService: unknown graph name");
  auto snap = cell->acquire();
  gb::check_value(snap != nullptr, "GraphService: graph never published");
  return snap;
}

std::uint64_t GraphService::version(const std::string& name) const {
  std::lock_guard<std::mutex> lk(gm_);
  auto it = graphs_.find(name);
  return it == graphs_.end() ? 0 : it->second->version();
}

std::uint64_t GraphService::submit(const std::string& graph, Query q) {
  auto snap = snapshot(graph);  // isolation: the version current *now*
  auto res = std::make_shared<ServiceJobResult>();
  auto ticket = svc_.submit(
      [snap, res, q = std::move(q)](gb::platform::Governor& gov) {
        *res = q(*snap, gov);
      });
  return remember(std::move(ticket), std::move(res));
}

std::uint64_t GraphService::submit_algorithm(const std::string& algo,
                                             const std::string& graph,
                                             std::uint64_t arg) {
  const Algorithm* row = std::ranges::find(kAlgorithms, algo, &Algorithm::name);
  gb::check_value(row != std::end(kAlgorithms),
                  "GraphService: unknown algorithm");
  auto snap = snapshot(graph);
  if (row->arg == Arg::source) {
    gb::check_index(arg < static_cast<std::uint64_t>(snap->adj().nrows()),
                    "GraphService: source out of range");
  }
  auto res = std::make_shared<ServiceJobResult>();
  const RunnerOptions& ropts = opts_.runner;

  if (row->batch != Batch::none && svc_.policy().batch_max > 1) {
    // One open batch per (algorithm, snapshot identity). The snapshot
    // pointer is a sound key because the opener's job keeps the snapshot
    // alive for as long as the batch is joinable — the address cannot be
    // recycled under an open batch.
    const std::string key =
        algo + '|' +
        std::to_string(reinterpret_cast<std::uintptr_t>(snap.get()));
    auto ticket = svc_.submit_coalesced(
        key, arg, res,
        [row, snap, ropts](gb::platform::Governor& gov, const BatchView& view) {
          Runner runner(ropts, gov);  // external-governor mode
          run_batch(*row, *snap, runner, view);
        },
        /*self_governed=*/true);
    return remember(std::move(ticket), std::move(res));
  }

  auto ticket = svc_.submit(
      [row, snap, res, ropts, arg](gb::platform::Governor& gov) {
        Runner runner(ropts, gov);  // external-governor mode
        row->run(runner, *snap, arg, *res);
      },
      /*self_governed=*/true);
  return remember(std::move(ticket), std::move(res));
}

GraphService::Job GraphService::lookup(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(jm_);
  auto it = jobs_.find(id);
  gb::check_value(it != jobs_.end(), "GraphService: unknown job id");
  return it->second;
}

std::uint64_t GraphService::remember(gb::platform::Service::Ticket t,
                                     std::shared_ptr<ServiceJobResult> res) {
  std::lock_guard<std::mutex> lk(jm_);
  const std::uint64_t id = next_id_++;
  jobs_.emplace(id, Job{std::move(t), std::move(res)});
  return id;
}

GraphService::JobState GraphService::poll(std::uint64_t id) const {
  return lookup(id).ticket.state();
}

const ServiceJobResult& GraphService::wait(std::uint64_t id) {
  Job j = lookup(id);
  const JobState s = j.ticket.wait();
  if (s == JobState::failed) j.ticket.rethrow();
  if (s == JobState::cancelled) {
    // Cancelled before (or while) running: stamp the stop code. Serialised
    // under the job-table lock so concurrent waiters do not race the write.
    std::lock_guard<std::mutex> lk(jm_);
    if (j.result->stop == StopReason::none)
      j.result->stop = StopReason::cancelled;
  }
  return *j.result;
}

void GraphService::cancel(std::uint64_t id) { lookup(id).ticket.cancel(); }

void GraphService::release(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(jm_);
  jobs_.erase(id);
}

}  // namespace lagraph
