// Shared helpers for the conformance tests: seeded random GraphBLAS objects
// and the descriptor sweep used to exercise every mask/accum/replace
// combination against the dense mimics.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include "capi/graphblas_c.h"
#include "lagraph/lagraph.hpp"
#include "platform/governor.hpp"
#include "reference/dense_ref.hpp"

namespace testutil {

using gb::Index;

// --- pre/post snapshots over the C API ------------------------------------
//
// Used by the fault-injection and governor soaks to assert the transactional
// contract: after any injected failure (OOM, cancellation, deadline, budget)
// the output object must compare equal to its pre-call snapshot.

struct MatrixSnapshot {
  GrB_Index nrows = 0, ncols = 0;
  std::vector<GrB_Index> r, c;
  std::vector<double> v;

  friend bool operator==(const MatrixSnapshot&,
                         const MatrixSnapshot&) = default;
};

struct VectorSnapshot {
  GrB_Index size = 0;
  std::vector<GrB_Index> i;
  std::vector<double> v;

  friend bool operator==(const VectorSnapshot&,
                         const VectorSnapshot&) = default;
};

inline MatrixSnapshot snapshot(GrB_Matrix a) {
  MatrixSnapshot s;
  EXPECT_EQ(GrB_Matrix_nrows(&s.nrows, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&s.ncols, a), GrB_SUCCESS);
  GrB_Index n = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&n, a), GrB_SUCCESS);
  // One extra slot so empty objects still hand out non-null pointers.
  s.r.resize(n + 1);
  s.c.resize(n + 1);
  s.v.resize(n + 1);
  GrB_Index cap = n + 1;
  EXPECT_EQ(
      GrB_Matrix_extractTuples_FP64(s.r.data(), s.c.data(), s.v.data(), &cap,
                                    a),
      GrB_SUCCESS);
  s.r.resize(cap);
  s.c.resize(cap);
  s.v.resize(cap);
  return s;
}

inline VectorSnapshot snapshot(GrB_Vector w) {
  VectorSnapshot s;
  EXPECT_EQ(GrB_Vector_size(&s.size, w), GrB_SUCCESS);
  GrB_Index n = 0;
  EXPECT_EQ(GrB_Vector_nvals(&n, w), GrB_SUCCESS);
  s.i.resize(n + 1);
  s.v.resize(n + 1);
  GrB_Index cap = n + 1;
  EXPECT_EQ(GrB_Vector_extractTuples_FP64(s.i.data(), s.v.data(), &cap, w),
            GrB_SUCCESS);
  s.i.resize(cap);
  s.v.resize(cap);
  return s;
}

inline gb::Matrix<double> random_matrix(Index nrows, Index ncols,
                                        double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> val(-4.0, 4.0);
  std::bernoulli_distribution keep(density);
  std::vector<Index> r, c;
  std::vector<double> v;
  for (Index i = 0; i < nrows; ++i) {
    for (Index j = 0; j < ncols; ++j) {
      if (keep(rng)) {
        r.push_back(i);
        c.push_back(j);
        // A few exact zeros so valued masks differ from structural ones.
        double x = val(rng);
        v.push_back(std::abs(x) < 0.4 ? 0.0 : x);
      }
    }
  }
  gb::Matrix<double> a(nrows, ncols);
  a.build(r, c, v, gb::Plus{});
  return a;
}

inline gb::Vector<double> random_vector(Index n, double density,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> val(-4.0, 4.0);
  std::bernoulli_distribution keep(density);
  gb::Vector<double> v(n);
  for (Index i = 0; i < n; ++i) {
    if (keep(rng)) {
      double x = val(rng);
      v.set_element(i, std::abs(x) < 0.4 ? 0.0 : x);
    }
  }
  return v;
}

/// The descriptor sweep: every combination of replace / complement /
/// structural (transposes are swept separately per operation).
inline std::vector<gb::Descriptor> mask_descriptor_sweep() {
  std::vector<gb::Descriptor> out;
  for (bool replace : {false, true}) {
    for (bool comp : {false, true}) {
      for (bool structural : {false, true}) {
        gb::Descriptor d;
        d.replace = replace;
        d.mask_complement = comp;
        d.mask_structural = structural;
        out.push_back(d);
      }
    }
  }
  return out;
}

inline std::string desc_name(const gb::Descriptor& d) {
  std::string s;
  s += d.replace ? "R" : "-";
  s += d.mask_complement ? "C" : "-";
  s += d.mask_structural ? "S" : "-";
  s += d.transpose_a ? "Ta" : "--";
  s += d.transpose_b ? "Tb" : "--";
  return s;
}

// --- resume soak -------------------------------------------------------------
//
// The contract every resumable driver documents, checked with the governor
// tripping at every sampled poll ordinal (dense early, geometric tail):
//   * an interrupted run, resumed ungoverned from its capsule, equals the
//     uninterrupted baseline exactly;
//   * a resumed run tripped again at polls 0-2 still hands back a non-empty
//     capsule, and that capsule resumes to the baseline too;
//   * a run on a freshly built (cold) input reports its interruption as a
//     StopReason and never lets a platform exception escape: the cached graph
//     properties it builds on first use fall inside the trip window.
// `make()` builds the input (a fresh Graph, or whatever `run` consumes),
// `run(input, capsule)` calls the driver, and `extract(result)` is what must
// match. Returns once an ordinal survives both the warm and the cold run.
template <class Make, class Run, class Extract>
void soak_resume_determinism(const std::string& name, Make&& make, Run&& run,
                             Extract&& extract) {
  using gb::platform::Governor;
  using lagraph::Checkpoint;
  using lagraph::is_interruption;
  const auto warm = make();
  const auto base = run(warm, nullptr);
  ASSERT_FALSE(is_interruption(base.stop)) << name;
  const auto want = extract(base);

  auto tripped = [&](const auto& input, const Checkpoint* cp,
                     std::uint64_t n) {
    Governor gov;
    gb::platform::GovernorScope s(&gov);
    gb::platform::ScopedTripAfter trip(n, Governor::Trip::cancel);
    return run(input, cp);
  };
  // Ungoverned resume. An empty capsule means capture was impossible (trip
  // during setup of a fresh run): restarting is the documented fallback.
  auto finish = [&](const Checkpoint& cp) {
    auto r = cp.empty() ? run(warm, nullptr) : run(warm, &cp);
    EXPECT_FALSE(is_interruption(r.stop)) << name << ": resumed run tripped";
    return extract(r);
  };

  constexpr std::uint64_t kMaxN = 200000;
  std::uint64_t stride = 1;
  for (std::uint64_t n = 0; n < kMaxN; n += stride) {
    auto part = tripped(warm, nullptr, n);
    const bool warm_hit = is_interruption(part.stop);
    if (warm_hit) {
      EXPECT_EQ(part.stop, lagraph::StopReason::cancelled)
          << name << " at poll " << n;
      EXPECT_EQ(finish(part.checkpoint), want)
          << name << ": interrupted at poll " << n
          << " + resume differs from the uninterrupted run";
      for (std::uint64_t m = 0; m < 3 && !part.checkpoint.empty(); ++m) {
        auto again = tripped(warm, &part.checkpoint, m);
        if (!is_interruption(again.stop)) {
          EXPECT_EQ(extract(again), want) << name << " resumed, poll " << n;
          continue;
        }
        EXPECT_FALSE(again.checkpoint.empty())
            << name << ": resumed run (poll " << n << ") tripped again at poll "
            << m << " and lost its capsule";
        EXPECT_EQ(finish(again.checkpoint), want)
            << name << ": second trip at poll " << m << " after poll " << n
            << " + resume differs";
      }
    }

    bool cold_hit = false;
    const auto cold = make();
    try {
      auto cpart = tripped(cold, nullptr, n);
      cold_hit = is_interruption(cpart.stop);
      if (cold_hit) {
        EXPECT_EQ(finish(cpart.checkpoint), want)
            << name << ": cold input interrupted at poll " << n
            << " + resume differs";
      } else {
        EXPECT_EQ(extract(cpart), want) << name << " cold, poll " << n;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << ": cold input, trip at poll " << n
                    << " escaped as an exception: " << e.what();
      cold_hit = true;
    }
    if (!warm_hit && !cold_hit) return;
    if (n >= 24) stride = 1 + n / 3;
  }
  ADD_FAILURE() << name << " never completed under poll trips";
}

}  // namespace testutil
