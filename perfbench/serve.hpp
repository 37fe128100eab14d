// The serving workloads: closed-loop clients on the C-API service
// (LAGraph_Service_*), one published R-MAT, optional writer republishing
// perturbed versions, and the post-run output checks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "capi/lagraph_c.h"

namespace perfbench {

struct ServeConfig {
  bool batched = false;     ///< LAGraph_Service_new_ex (batch_max 8, 2000 us)
  int workers = 2;
  int readers = 4;          ///< closed-loop client threads
  bool writer = false;      ///< republish every 250 ms
  int versions = 1;         ///< graph versions built at setup
  std::vector<int> deck;    ///< request mix: one shuffled deck per cycle
  static ServeConfig batched_mix();
  static ServeConfig churn_mix();
};

inline constexpr int kServeScale = 14;
inline constexpr int kServeEdgeFactor = 16;
inline constexpr double kWriterPeriodMs = 250.0;

/// Everything a serving run needs, built from the seed.
struct ServeFixture {
  std::vector<gb::Matrix<double>> mats;  ///< graph versions (0 = base)
  std::vector<GrB_Matrix> cmats;         ///< C copies the writer publishes
  std::vector<Index> sources;            ///< traversal sources (out-degree >= 1)
  LAGraph_Service svc = nullptr;
  double rmat_s = 0;

  ServeFixture() = default;
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;
  ~ServeFixture();
};

std::unique_ptr<ServeFixture> serve_setup(const ServeConfig& cfg,
                                          std::uint64_t seed);

struct ServiceCounters {
  std::uint64_t submitted = 0, shed = 0, completed = 0, failed = 0,
                cancelled = 0, watchdog = 0, batches = 0, batched = 0;
  static ServiceCounters read(LAGraph_Service s);
  ServiceCounters minus(const ServiceCounters& o) const;
};

struct PhaseResult {
  std::vector<Request> reqs;
  double elapsed_s = 0;
  std::vector<double> publish_ms;
  MemSampler::Windows mem;  ///< per-window memory peaks
  double live_mb_end = 0;
  std::int64_t epoch_freed = 0;
  ServiceCounters delta;
  std::vector<SpanLog> logs;  ///< one per client, then the writer's
};

struct PhaseSpec {
  const char* graph = "g";
  int clients = 1;
  bool writer = false;
  double seconds = 1;
  double warm_s = 0.5;
  bool trace = false;
  std::uint64_t stream = 0;  ///< separates the RNG streams of phases
  const std::vector<Index>* sources = nullptr;  ///< default: fixture pool
};

PhaseResult serve_phase(ServeFixture& fx, const ServeConfig& cfg,
                        const PhaseSpec& spec, std::uint64_t seed,
                        Clock::time_point origin);

/// Compare every attributable served result with the direct driver on
/// the version it was served from (see checks.hpp).
CheckReport check_serve(const ServeFixture& fx,
                        const std::vector<Request>& reqs);

}  // namespace perfbench
