// PR3: thread-scaling of the cost-balanced parallel kernels. Runs the
// Gustavson mxm — unmasked (symbolic count, then numeric pass) and masked
// C<A> = A*A (one pass, rows staged at the mask's offsets) — plus
// dot/eWise/transpose companions on an RMAT-skewed input — the degree
// distribution equal-row chunking collapses on — and a uniform Erdős–Rényi
// control, at 1..max threads, and emits BENCH_PR3.json at the repo root.
//
// Speedup is a property of the machine: on a single-core container every
// ratio is ~1.0 by construction; the JSON records hardware_concurrency so
// the number can be read in context. `--quick` shrinks the inputs for CI
// smoke runs.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <thread>

#include "graphblas/graphblas.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/timer.hpp"

namespace {

using gb::Index;

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Best-of-k wall time of `body`, milliseconds.
template <class F>
double best_ms(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    gb::platform::Timer t;
    body();
    best = std::min(best, t.millis());
  }
  return best;
}

struct KernelResult {
  std::string kernel;
  std::string input;
  std::vector<std::pair<int, double>> ms_by_threads;
};

void run_kernels(const char* input_name, const gb::Matrix<double>& a,
                 const std::vector<int>& thread_counts, int reps,
                 std::vector<KernelResult>& out) {
  const Index n = a.nrows();
  auto sr = gb::plus_times<double>();

  auto bench_kernel = [&](const char* kernel, auto&& body) {
    KernelResult res{kernel, input_name, {}};
    for (int nt : thread_counts) {
      set_threads(nt);
      res.ms_by_threads.emplace_back(nt, best_ms(reps, body));
    }
    out.push_back(std::move(res));
    std::printf("  %-22s", kernel);
    for (auto& [nt, ms] : out.back().ms_by_threads) {
      std::printf("  %dT: %8.2f ms", nt, ms);
    }
    double t1 = out.back().ms_by_threads.front().second;
    double tn = out.back().ms_by_threads.back().second;
    std::printf("  (speedup %.2fx)\n", tn > 0 ? t1 / tn : 0.0);
  };

  bench_kernel("mxm_gustavson", [&] {
    gb::Descriptor d = gb::desc_default;
    d.mxm = gb::MxmMethod::gustavson;
    gb::Matrix<double> c(n, n);
    gb::mxm(c, gb::no_mask, gb::no_accum, sr, a, a, d);
  });
  bench_kernel("mxm_gustavson_masked", [&] {
    gb::Descriptor d = gb::desc_s;
    d.mxm = gb::MxmMethod::gustavson;
    gb::Matrix<double> c(n, n);
    gb::mxm(c, a, gb::no_accum, sr, a, a, d);
  });
  bench_kernel("mxm_dot_masked", [&] {
    gb::Descriptor d = gb::desc_s;
    d.mxm = gb::MxmMethod::dot;
    gb::Matrix<double> c(n, n);
    gb::mxm(c, a, gb::no_accum, sr, a, a, d);
  });
  bench_kernel("ewise_add", [&] {
    gb::Matrix<double> c(n, n);
    gb::ewise_add(c, gb::no_mask, gb::no_accum, gb::Plus{}, a, a);
  });
  bench_kernel("transpose_bucket", [&] {
    gb::Matrix<double> c(n, n);
    gb::transpose(c, gb::no_mask, gb::no_accum, a);
  });
  bench_kernel("reduce_rows", [&] {
    gb::Vector<double> w(n);
    gb::reduce(w, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(), a);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int rmat_scale = quick ? 10 : 13;
  const int reps = quick ? 2 : 3;
  const int hw = max_threads();

  std::vector<int> thread_counts;
  for (int t = 1; t <= std::max(hw, 4); t *= 2) thread_counts.push_back(t);

  std::printf("bench_parallel_scaling: hardware threads = %u, omp max = %d\n",
              std::thread::hardware_concurrency(), hw);

  std::vector<KernelResult> results;

  std::printf("rmat-skew (scale %d, ef 8):\n", rmat_scale);
  auto skew = lagraph::rmat(rmat_scale, 8, 42);
  run_kernels("rmat_skew", skew, thread_counts, reps, results);

  const Index un = Index{1} << rmat_scale;
  std::printf("uniform (n %llu, m %llu):\n",
              static_cast<unsigned long long>(un),
              static_cast<unsigned long long>(8 * un));
  auto uni = lagraph::erdos_renyi(un, 8 * un, 43);
  run_kernels("uniform", uni, thread_counts, reps, results);

  set_threads(hw);  // restore

  const std::string path = std::string(LAGRAPH_SOURCE_DIR) + "/BENCH_PR3.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"parallel_scaling\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"omp_max_threads\": %d,\n", hw);
  std::fprintf(f, "  \"rmat_scale\": %d,\n  \"results\": [\n", rmat_scale);
  for (std::size_t k = 0; k < results.size(); ++k) {
    const auto& r = results[k];
    std::fprintf(f, "    {\"kernel\": \"%s\", \"input\": \"%s\", \"ms\": {",
                 r.kernel.c_str(), r.input.c_str());
    for (std::size_t j = 0; j < r.ms_by_threads.size(); ++j) {
      std::fprintf(f, "%s\"%d\": %.3f", j ? ", " : "",
                   r.ms_by_threads[j].first, r.ms_by_threads[j].second);
    }
    std::fprintf(f, "}}%s\n", k + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
