// lagraph::GraphService — the algorithm-level serving surface on top of
// gb::platform::Service: named published graphs with snapshot isolation,
// Runner-driven algorithm jobs, and a job table reachable from the C API.
//
// Publication model: publish(name, graph) freezes the graph (every lazy
// cache materialised) and installs it in a Versioned cell. Submitting a job
// acquires the version current *at submit time*; a writer republishing the
// name never blocks running readers and never changes what an in-flight job
// sees (snapshot isolation). A displaced version is parked in the
// retirement limbo and freed by the next publish (of any name) once nothing
// references it: a job's closure holds its snapshot only until the job is
// terminal, so retained versions are those live requests still read.
//
// Execution model: algorithm jobs are self-governed — a lagraph::Runner is
// bound to the request's Governor (external-governor mode), so slices arm
// deadlines/budgets per the configured RunnerOptions while cancel (client or
// watchdog) lands on the same governor the kernels poll. Interruptions
// surface as the job's StopReason, exactly like the direct Runner API.
//
// Served algorithms: serving.cpp holds one table, kAlgorithms[], with a row
// per algorithm — its name, what the request argument means, the solo run
// and an optional batch hook (dedup or multi-source). When the service
// policy enables coalescing (batch_max > 1), requests for a row with a hook
// route through Service::submit_coalesced, keyed by (algorithm, snapshot
// identity), and each member's ServiceJobResult is bit-identical to its solo
// run; a cancelled member is masked out, never killing siblings.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lagraph/graph.hpp"
#include "lagraph/runner.hpp"
#include "lagraph/scope.hpp"
#include "platform/epoch.hpp"
#include "platform/service.hpp"

namespace lagraph {

/// What a serving job hands back: a sparse (index, value) result vector plus
/// the StopReason of the drive (none/converged = complete; an interruption
/// code = partial result, same contract as the Runner API).
struct ServiceJobResult {
  std::vector<gb::Index> idx;
  std::vector<double> vals;
  gb::Index n = 0;  ///< dimension of the result vector
  StopReason stop = StopReason::none;
  /// How many requests shared the kernel run that produced this result:
  /// 0 = unbatched path, 1 = coalesced but ran alone, >1 = true batch.
  std::uint64_t batch_size = 0;
};

class GraphService {
 public:
  struct Options {
    gb::platform::ServicePolicy service;
    RunnerOptions runner;  ///< slice/retry shape for algorithm jobs
  };

  using JobState = gb::platform::Service::State;

  explicit GraphService(Options opts = {});
  ~GraphService() = default;

  // --- graph publication -----------------------------------------------------

  /// Freeze `g` and install it as the current version under `name`.
  /// Republishing replaces the version for *future* submissions only; jobs
  /// in flight keep the snapshot they acquired. The displaced version goes
  /// to the retirement limbo, and every retired version no job still
  /// references is freed here, on the publishing thread.
  void publish(const std::string& name, Graph&& g);

  /// The current published snapshot (throws gb::Error invalid_value when the
  /// name is unknown). Safe from any thread.
  [[nodiscard]] std::shared_ptr<const Graph> snapshot(
      const std::string& name) const;

  /// Version counter for `name` (0 = never published).
  [[nodiscard]] std::uint64_t version(const std::string& name) const;

  // --- job submission ----------------------------------------------------------

  /// Arbitrary query against the snapshot current at submit time, run under
  /// the service policy's deadline/budget. Throws OverloadedError when shed.
  using Query =
      std::function<ServiceJobResult(const Graph&, gb::platform::Governor&)>;
  std::uint64_t submit(const std::string& graph, Query q);

  /// Runner-driven job for a served algorithm, named by its row in the
  /// kAlgorithms table (serving.cpp), which also says what `arg` means.
  /// Throws gb::Error invalid_value for an unknown name, invalid_index for
  /// an out-of-range source, OverloadedError when shed.
  std::uint64_t submit_algorithm(const std::string& algo,
                                 const std::string& graph, std::uint64_t arg);

  // --- job control -------------------------------------------------------------

  [[nodiscard]] JobState poll(std::uint64_t id) const;

  /// Block until terminal; rethrows the job's error if it failed. The
  /// returned result lives until release(id) (or service destruction).
  const ServiceJobResult& wait(std::uint64_t id);

  void cancel(std::uint64_t id);

  /// Drop a finished job's record and result storage.
  void release(std::uint64_t id);

  [[nodiscard]] gb::platform::ServiceStats stats() const {
    return svc_.stats();
  }

  /// Free every retired graph version nothing references any more. publish
  /// already does this; the explicit call is for callers that drop their
  /// own snapshot references and want the memory back before the next one.
  std::size_t drain_retired() { return gb::platform::Epoch::drain(); }

  /// Wait for in-flight work to finish, then drain (Service::quiesce).
  std::size_t quiesce() { return svc_.quiesce(); }

  [[nodiscard]] gb::platform::Service& core() noexcept { return svc_; }

 private:
  struct Job {
    gb::platform::Service::Ticket ticket;
    std::shared_ptr<ServiceJobResult> result;
  };

  [[nodiscard]] Job lookup(std::uint64_t id) const;
  std::uint64_t remember(gb::platform::Service::Ticket t,
                         std::shared_ptr<ServiceJobResult> res);

  Options opts_;
  gb::platform::Service svc_;

  mutable std::mutex gm_;
  std::unordered_map<std::string,
                     std::unique_ptr<gb::platform::Versioned<Graph>>>
      graphs_;

  mutable std::mutex jm_;
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::uint64_t next_id_ = 1;
};

}  // namespace lagraph
