// Per-layer measurements for the traced run, all timed from outside the
// library around calls into each module's public functions:
//
//   * the layer ladder — the same unloaded requests called one layer higher
//     at each rung: driver -> Runner::run(driver) -> GraphService
//     submit_algorithm + wait -> LAGraph_Service_submit + wait. A layer's
//     self time is its rung minus the rung below, paired per request;
//   * single GraphBLAS ops at 1 thread and at the workload's kernel threads;
//   * multi-source (k = 8) drivers against 8 solo runs on the same sources;
//   * the effective-core calibration of a plain OpenMP loop.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "capi/lagraph_c.h"
#include "checks.hpp"
#include "lagraph/graph.hpp"
#include "lagraph/serving.hpp"

namespace perfbench {

enum Rung : int { kDriverRung = 0, kRunnerRung, kServingRung, kCapiRung, kNumRungs };

/// Algorithms on the ladder; tc has no Runner or service form, so it only
/// has the driver rung.
inline constexpr int kLadderAlgos[] = {kPagerank, kBfs, kSssp, kCc};

struct LadderTarget {
  lagraph::GraphService* cpp = nullptr;  ///< serving rung
  LAGraph_Service capi = nullptr;        ///< capi rung
  const char* graph = "lg";              ///< name on both services
  const char* wgraph = "lg";             ///< name sssp runs on
  GrB_Matrix publish_src = nullptr;      ///< what the publish timing republishes
  std::vector<Index> sources;            ///< bfs / sssp requests
  int reps = 3;
};

struct LadderResult {
  std::vector<double> t[kNumAlgos][kNumRungs];     ///< rung times (ms)
  std::vector<double> self[kNumAlgos][kNumRungs];  ///< rung minus rung below (ms)
  std::vector<double> submit_us, ready_wait_us, publish_ms, freeze_ms;
  std::int64_t pr_iterations = 0, sssp_iterations = 0, bfs_levels = 0,
               bfs_pull_levels = 0;
  std::int64_t runner_slices = 0, runner_retries = 0, runner_runs = 0;
  double ws_reuse_ratio = 0;  ///< caller thread, over the driver/runner rungs
};

/// Both services must already hold `graph` (and `wgraph`) built from the same
/// matrix. Every rung's result is checked against the driver rung's.
LadderResult run_ladder(const LadderTarget& t, SpanLog& log, CheckReport& rep);

/// GraphBLAS op timings on `g` at 1 and `tn` threads into `m`.
void measure_ops(const lagraph::Graph& g, int tn, int reps, std::uint64_t seed,
                 Metrics& m);

/// driver.{bfs,sssp}_{k8,solo8}_ms and the batch gains into `m`; checks each
/// multi-source row against its solo run.
void measure_batch_pairs(const lagraph::Graph& g, const lagraph::Graph& gw,
                         const std::vector<Index>& sources, int reps, Metrics& m,
                         CheckReport& rep);

/// Speed-up of a plain OpenMP loop at `nproc` threads over 1 thread.
double cores_effective(int nproc);

}  // namespace perfbench
