// The OpenMP parallel kernel paths (§II-A: "an OpenMP implementation is in
// progress" for SuiteSparse; here it exists). Determinism contract: the
// chunked parallel kernels must produce BIT-IDENTICAL results to the serial
// pass — per-chunk buffers concatenated in order, no shared accumulators.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"
#include "lagraph/util/generator.hpp"
#include "reference/dense_ref.hpp"

using gb::Index;

namespace {

/// RAII thread-count override so a failing assertion can't leak the
/// setting into other tests.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) {
#ifdef _OPENMP
    before_ = omp_get_max_threads();
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
  ~ThreadGuard() {
#ifdef _OPENMP
    omp_set_num_threads(before_);
#endif
  }

 private:
  int before_ = 1;
};

}  // namespace

TEST(Parallel, PullMxvBitIdenticalAcrossThreadCounts) {
  // Large enough to clear the parallel kernel's row threshold.
  auto a = lagraph::rmat(12, 8, 3);
  auto u = gb::Vector<double>::full(a.nrows(), 1.25);
  gb::Descriptor d;
  d.mxv = gb::MxvMethod::pull;

  gb::Vector<double> serial(a.nrows());
  {
    ThreadGuard guard(1);
    gb::mxv(serial, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, u,
            d);
  }
  for (int threads : {2, 4, 7}) {
    ThreadGuard guard(threads);
    gb::Vector<double> par(a.nrows());
    gb::mxv(par, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, u, d);
    EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
  }
}

TEST(Parallel, GustavsonMxmBitIdenticalAcrossThreadCounts) {
  auto a = lagraph::rmat(9, 8, 5);
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::gustavson;

  gb::Matrix<double> serial(a.nrows(), a.ncols());
  {
    ThreadGuard guard(1);
    gb::mxm(serial, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a,
            d);
  }
  for (int threads : {2, 4, 7}) {
    ThreadGuard guard(threads);
    gb::Matrix<double> par(a.nrows(), a.ncols());
    gb::mxm(par, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
    EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
  }
}

TEST(Parallel, MaskedGustavsonParallelIsCorrect) {
  auto a = lagraph::rmat(9, 8, 6);
  gb::Matrix<bool> mask(a.nrows(), a.ncols());
  gb::apply(mask, gb::no_mask, gb::no_accum, [](double) { return true; },
            lagraph::rmat(9, 2, 7));
  gb::Descriptor d = gb::desc_s;
  d.mxm = gb::MxmMethod::gustavson;

  gb::Matrix<std::int64_t> serial(a.nrows(), a.ncols());
  {
    ThreadGuard guard(1);
    gb::mxm(serial, mask, gb::no_accum, gb::plus_pair<std::int64_t>(), a, a,
            d);
  }
  ThreadGuard guard(4);
  gb::Matrix<std::int64_t> par(a.nrows(), a.ncols());
  gb::mxm(par, mask, gb::no_accum, gb::plus_pair<std::int64_t>(), a, a, d);
  EXPECT_TRUE(lagraph::isequal(serial, par));
}

TEST(Parallel, AlgorithmsUnchangedUnderParallelKernels) {
  auto adj = lagraph::rmat(10, 8, 8);
  lagraph::Graph g(adj.dup(), lagraph::Kind::undirected);
  lagraph::Graph g2(adj.dup(), lagraph::Kind::undirected);

  std::uint64_t tri_serial, tri_par;
  gb::Vector<std::uint64_t> cc_serial, cc_par;
  {
    ThreadGuard guard(1);
    tri_serial = lagraph::triangle_count(g);
    cc_serial = lagraph::connected_components(g);
  }
  {
    ThreadGuard guard(4);
    tri_par = lagraph::triangle_count(g2);
    cc_par = lagraph::connected_components(g2);
  }
  EXPECT_EQ(tri_serial, tri_par);
  EXPECT_TRUE(lagraph::isequal(cc_serial, cc_par));
}

TEST(Parallel, ChunkHelperCoversRangeExactlyOnce) {
  std::vector<int> hits(1000, 0);
  gb::platform::parallel_for_chunks(
      1000, 7, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
  for (int h : hits) EXPECT_EQ(h, 1);

  // Degenerate shapes.
  gb::platform::parallel_for_chunks(0, 4, [&](std::size_t, std::size_t,
                                              std::size_t) { FAIL(); });
  std::atomic<int> calls = 0;  // three one-item chunks may run at once
  gb::platform::parallel_for_chunks(
      3, 10, [&](std::size_t, std::size_t lo, std::size_t hi) {
        calls += static_cast<int>(hi - lo);
      });
  EXPECT_EQ(calls.load(), 3);
}

TEST(Parallel, ExclusiveScanComputesPointerArray) {
  std::vector<std::int64_t> v{3, 0, 5, 2};
  EXPECT_EQ(gb::platform::exclusive_scan(v), 10);
  EXPECT_EQ(v, (std::vector<std::int64_t>{0, 3, 3, 8}));

  std::vector<std::uint32_t> empty;
  EXPECT_EQ(gb::platform::exclusive_scan(empty), 0u);
}

// --- cost-balanced partitioner ------------------------------------------

TEST(Partitioner, BalancedCutCoversRangeMonotonically) {
  // Prefix of costs {5, 1, 1, 1, 20, 1, 1, 1} (total 31).
  std::vector<std::uint64_t> prefix{0, 5, 6, 7, 8, 28, 29, 30, 31};
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  for (std::size_t nchunks : {1u, 2u, 3u, 5u, 8u}) {
    std::size_t prev = gb::platform::balanced_cut(p, nchunks, 0);
    EXPECT_EQ(prev, 0u);
    for (std::size_t c = 1; c <= nchunks; ++c) {
      std::size_t cut = gb::platform::balanced_cut(p, nchunks, c);
      EXPECT_LE(prev, cut) << "nchunks=" << nchunks << " c=" << c;
      prev = cut;
    }
    EXPECT_EQ(prev, prefix.size() - 1) << "nchunks=" << nchunks;
  }
}

TEST(Partitioner, DominantItemIsIsolated) {
  // One item carries ~all the cost; with 4 chunks it must sit alone in its
  // chunk rather than dragging neighbours along (the equal-row failure).
  std::vector<std::uint64_t> costs{1, 1, 1, 1000, 1, 1, 1, 1};
  std::vector<std::uint64_t> prefix(costs.size() + 1, 0);
  for (std::size_t k = 0; k < costs.size(); ++k) prefix[k + 1] = prefix[k] + costs[k];
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  // The chunk containing item 3 must contain only item 3.
  std::size_t lo = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    std::size_t hi = gb::platform::balanced_cut(p, 4, c + 1);
    if (lo <= 3 && 3 < hi) {
      EXPECT_EQ(hi - lo, 1u) << "dominant item shares a chunk [" << lo << ","
                             << hi << ")";
    }
    lo = hi;
  }
}

TEST(Partitioner, AllZeroCostsFallBackToEqualSplit) {
  std::vector<std::uint64_t> prefix(101, 0);  // 100 items, all cost 0
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  std::size_t prev = 0;
  for (std::size_t c = 1; c <= 4; ++c) {
    std::size_t cut = gb::platform::balanced_cut(p, 4, c);
    EXPECT_EQ(cut, 100 * c / 4);
    EXPECT_LT(prev, cut);
    prev = cut;
  }
}

TEST(Partitioner, FewerItemsThanChunksStillCoversAll) {
  std::vector<std::uint64_t> prefix{0, 7, 9, 10};  // 3 items
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  std::vector<int> hits(3, 0);
  gb::platform::parallel_balanced_chunks_n(
      p, std::size_t{8}, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) ++hits[k];
      });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Partitioner, ChunkCountRespectsForcedOverrideAndClamps) {
  using gb::platform::chunk_count;
  EXPECT_EQ(chunk_count(0, 1000000), 0u);
  EXPECT_EQ(chunk_count(100, 0), 1u);  // below cost grain
  {
    gb::platform::ForcedChunks guard(5);
    EXPECT_EQ(chunk_count(100, 0), 5u);
    EXPECT_EQ(chunk_count(3, 1000000), 3u);  // clamped to item count
  }
  EXPECT_EQ(chunk_count(100, 0), 1u);  // guard restored
}

TEST(Partitioner, BalancedChunksPropagateExceptions) {
  std::vector<std::uint64_t> prefix{0, 1, 2, 3, 4};
  const std::span<const std::uint64_t> p(prefix.data(), prefix.size());
  EXPECT_THROW(gb::platform::parallel_balanced_chunks_n(
                   p, std::size_t{4},
                   [&](std::size_t c, std::size_t, std::size_t) {
                     if (c == 2) throw std::runtime_error("chunk 2");
                   }),
               std::runtime_error);
}

// --- determinism suite: every parallel kernel, 1 / 2 / max threads -------

namespace {

/// Run `body` serially for the reference, then at several thread counts
/// with a forced multi-chunk split (so the chunked code path runs even on
/// a single-core machine), asserting `check` each time.
template <class Body, class Check>
void determinism_sweep(Body&& body, Check&& check) {
  {
    ThreadGuard guard(1);
    body();  // reference fill
  }
  for (int threads : {1, 2, 4}) {
    ThreadGuard guard(threads);
    gb::platform::ForcedChunks force(3);
    check(threads);
  }
}

}  // namespace

TEST(Determinism, DotMxmMaskedAndComplemented) {
  auto a = lagraph::rmat(8, 8, 11);
  gb::Matrix<bool> mask(a.nrows(), a.ncols());
  gb::apply(mask, gb::no_mask, gb::no_accum, [](double) { return true; },
            lagraph::rmat(8, 2, 12));
  for (bool complement : {false, true}) {
    gb::Descriptor d = gb::desc_s;
    d.mxm = gb::MxmMethod::dot;
    d.mask_complement = complement;
    gb::Matrix<double> serial(a.nrows(), a.ncols());
    determinism_sweep(
        [&] {
          gb::mxm(serial, mask, gb::no_accum, gb::plus_times<double>(), a, a,
                  d);
        },
        [&](int threads) {
          gb::Matrix<double> par(a.nrows(), a.ncols());
          gb::mxm(par, mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
          EXPECT_TRUE(lagraph::isequal(serial, par))
              << threads << " threads, complement=" << complement;
        });
  }
}

TEST(Determinism, HeapMxm) {
  auto a = lagraph::rmat(8, 8, 13);
  gb::Descriptor d;
  d.mxm = gb::MxmMethod::heap;
  gb::Matrix<double> serial(a.nrows(), a.ncols());
  determinism_sweep(
      [&] {
        gb::mxm(serial, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a,
                a, d);
      },
      [&](int threads) {
        gb::Matrix<double> par(a.nrows(), a.ncols());
        gb::mxm(par, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a,
                d);
        EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
      });
}

namespace {

/// Same pattern and the same value bits, entry for entry.
bool bitwise_equal(const gb::Matrix<double>& x, const gb::Matrix<double>& y) {
  std::vector<Index> xr, xc, yr, yc;
  std::vector<double> xv, yv;
  x.extract_tuples(xr, xc, xv);
  y.extract_tuples(yr, yc, yv);
  return x.nrows() == y.nrows() && x.ncols() == y.ncols() && xr == yr &&
         xc == yc && xv.size() == yv.size() &&
         std::memcmp(xv.data(), yv.data(), xv.size() * sizeof(double)) == 0;
}

/// `a`'s pattern with non-integer values, so that sums of products round
/// and a different combination order would show in the low bits.
gb::Matrix<double> rounding_values(const gb::Matrix<double>& a) {
  gb::Matrix<double> out(a.nrows(), a.ncols());
  gb::apply_indexop(
      out, gb::no_mask, gb::no_accum,
      [](double, Index i, Index j, std::int64_t) {
        return 0.1 + static_cast<double>((i * 7 + j * 13) % 29) / 3.0;
      },
      a, std::int64_t{0});
  return out;
}

/// A 2^scale-square mask in the requested storage form, in a fresh object
/// (its sparse row view never read). Valued, with explicit zeros. The
/// sparse and bitmap masks take their pattern from an R-MAT graph and leave
/// every fifth row empty; the full mask stores every position.
gb::Matrix<double> masked_sweep_mask(int scale, gb::Format form) {
  const Index n = Index{1} << scale;
  std::vector<Index> rows, cols;
  std::vector<double> vals;
  if (form == gb::Format::full) {
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        rows.push_back(i);
        cols.push_back(j);
      }
    }
  } else {
    std::vector<double> ignored;
    lagraph::rmat(scale, 6, 77).extract_tuples(rows, cols, ignored);
    std::vector<Index> keep_r, keep_c;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (rows[k] % 5 == 0) continue;
      keep_r.push_back(rows[k]);
      keep_c.push_back(cols[k]);
    }
    rows = std::move(keep_r);
    cols = std::move(keep_c);
  }
  for (std::size_t k = 0; k < rows.size(); ++k)
    vals.push_back((rows[k] + 2 * cols[k]) % 3 == 0 ? 0.0 : 1.0);
  gb::Matrix<double> m(n, n);
  m.build(rows, cols, vals, gb::Plus{});
  m.set_format(form == gb::Format::sparse   ? gb::FormatMode::sparse
               : form == gb::Format::bitmap ? gb::FormatMode::bitmap
                                            : gb::FormatMode::full);
  return m;
}

}  // namespace

TEST(Determinism, MxmMethodsAgreeBitwise) {
  // The three families must agree bitwise on floats — the heap's ord
  // tie-break, the dot's walk and the mask-first saxpy all reproduce
  // Gustavson's k-ascending combination order.
  {
    auto a = lagraph::rmat(8, 8, 14);
    gb::Matrix<double> ref(a.nrows(), a.ncols());
    gb::Descriptor d;
    d.mxm = gb::MxmMethod::gustavson;
    gb::mxm(ref, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
    gb::platform::ForcedChunks force(3);
    for (auto m : {gb::MxmMethod::dot, gb::MxmMethod::heap}) {
      d.mxm = m;
      gb::Matrix<double> c(a.nrows(), a.ncols());
      gb::mxm(c, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
      EXPECT_TRUE(lagraph::isequal(ref, c));
    }
  }

  // Masked: valued / structural / complemented masks in every storage form,
  // at 1, 2 and 4 threads (one chunk, then the two-pass chunked kernels).
  // Every method must match the dense mimic bit for bit.
  constexpr int kScale = 7;
  auto a = rounding_values(lagraph::rmat(kScale, 8, 15));
  const Index n = a.nrows();
  const auto da = ref::from_gb(a);
  for (auto form : {gb::Format::sparse, gb::Format::bitmap, gb::Format::full}) {
    const auto dm = ref::from_gb(masked_sweep_mask(kScale, form));
    for (gb::Descriptor d :
         {gb::desc_default, gb::desc_s, gb::desc_c, gb::desc_sc}) {
      ref::DenseMat<double> expect(n, n);
      ref::mxm(expect, &dm, static_cast<const gb::Plus*>(nullptr),
               gb::plus_times<double>(), da, da, d);
      const auto want = ref::to_gb(expect);
      for (int threads : {1, 2, 4}) {
        ThreadGuard guard(threads);
        gb::platform::ForcedChunks force(threads);
        for (auto method : {gb::MxmMethod::gustavson, gb::MxmMethod::dot,
                            gb::MxmMethod::heap}) {
          const auto mask = masked_sweep_mask(kScale, form);
          EXPECT_EQ(mask.format(), form);
          d.mxm = method;
          gb::Matrix<double> c(n, n);
          gb::mxm(c, mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
          EXPECT_TRUE(bitwise_equal(want, c))
              << "form=" << gb::to_string(form)
              << " complement=" << d.mask_complement
              << " structural=" << d.mask_structural
              << " method=" << static_cast<int>(method)
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Parallel, MaskedMxmResolvesMaskViewBeforeForking) {
  // A bitmap mask's sparse row view is built lazily on first read. mxm must
  // build it once, on the calling thread, before its chunks fork: chunks
  // that each asked for it would build it concurrently (a data race under
  // TSan, a corrupted view without it).
  // Big enough that the four chunks overlap in time, so TSan sees them race.
  constexpr int kScale = 10;
  auto a = rounding_values(lagraph::rmat(kScale, 16, 16));
  const Index n = a.nrows();
  struct Case {
    gb::MxmMethod method;
    gb::Descriptor desc;
  };
  for (Case cs : {Case{gb::MxmMethod::gustavson, gb::desc_s},
                  Case{gb::MxmMethod::gustavson, gb::desc_sc},
                  Case{gb::MxmMethod::dot, gb::desc_sc},
                  Case{gb::MxmMethod::heap, gb::desc_s}}) {
    cs.desc.mxm = cs.method;
    gb::Matrix<double> serial(n, n);
    {
      ThreadGuard guard(1);
      gb::mxm(serial, masked_sweep_mask(kScale, gb::Format::bitmap),
              gb::no_accum, gb::plus_times<double>(), a, a, cs.desc);
    }
    ThreadGuard guard(4);
    gb::platform::ForcedChunks force(4);
    const auto mask = masked_sweep_mask(kScale, gb::Format::bitmap);
    ASSERT_EQ(mask.format(), gb::Format::bitmap);
    gb::Matrix<double> par(n, n);
    gb::mxm(par, mask, gb::no_accum, gb::plus_times<double>(), a, a, cs.desc);
    EXPECT_TRUE(bitwise_equal(serial, par))
        << "method=" << static_cast<int>(cs.method)
        << " complement=" << cs.desc.mask_complement;
  }
}

namespace {

/// A bool matrix of the given density whose stored values are true or
/// false at random, so boolean semirings see both.
gb::Matrix<bool> random_bool_matrix(Index m, Index n, double density,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution keep(density), truth(0.7);
  std::vector<Index> rows, cols;
  std::vector<double> vals;
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      if (!keep(rng)) continue;
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(truth(rng) ? 1.0 : -1.0);
    }
  }
  gb::Matrix<double> x(m, n);
  x.build(rows, cols, vals, gb::Plus{});
  gb::Matrix<bool> out(m, n);
  gb::apply(out, gb::no_mask, gb::no_accum, [](double v) { return v > 0; },
            x);
  return out;
}

}  // namespace

TEST(Parallel, BoolOutputsFromParallelChunks) {
  // SparseStore<bool>::x is a bit-packed Buf<bool>. A chunk that wrote its
  // rows' values straight into it would share a word with the next chunk's
  // first row: a race under TSan, lost bits without it. lor_land with no,
  // plain and complemented masks, every method, four chunks on four
  // threads, against the dense mimic. n = 200 keeps row ends off word
  // boundaries for the dense-native output at the end.
  constexpr Index n = 200;
  const auto a = random_bool_matrix(n, n, 0.05, 31);
  const auto mask = random_bool_matrix(n, n, 0.3, 32);
  const auto da = ref::from_gb(a);
  const auto dm = ref::from_gb(mask);
  ThreadGuard guard(4);
  gb::platform::ForcedChunks force(4);
  struct Case {
    bool masked;
    gb::Descriptor desc;
  };
  for (Case cs : {Case{false, gb::desc_default}, Case{true, gb::desc_default},
                  Case{true, gb::desc_c}}) {
    ref::DenseMat<bool> expect(n, n);
    ref::mxm(expect, cs.masked ? &dm : nullptr,
             static_cast<const gb::Lor*>(nullptr), gb::lor_land(), da, da,
             cs.desc);
    for (auto method : {gb::MxmMethod::gustavson, gb::MxmMethod::dot,
                        gb::MxmMethod::heap}) {
      cs.desc.mxm = method;
      gb::Matrix<bool> c(n, n);
      if (cs.masked) {
        gb::mxm(c, mask, gb::no_accum, gb::lor_land(), a, a, cs.desc);
      } else {
        gb::mxm(c, gb::no_mask, gb::no_accum, gb::lor_land(), a, a, cs.desc);
      }
      EXPECT_TRUE(ref::equal(expect, c))
          << "masked=" << cs.masked
          << " complement=" << cs.desc.mask_complement
          << " method=" << static_cast<int>(method);
    }
    if (!cs.masked) {
      // Gustavson's dense-native output: every slot of a bitmap C.
      gb::Matrix<bool> c(n, n);
      c.set_format(gb::FormatMode::bitmap);
      cs.desc.mxm = gb::MxmMethod::gustavson;
      gb::mxm(c, gb::no_mask, gb::no_accum, gb::lor_land(), a, a, cs.desc);
      EXPECT_EQ(c.format(), gb::Format::bitmap);
      EXPECT_TRUE(ref::equal(expect, c)) << "dense-native";
    }
  }
}

TEST(Parallel, BoolValuedKernelsStageTheirParallelWrites) {
  // The same packing hazard in every other kernel that writes values from
  // parallel chunks: apply and apply_indexop (sparse and bitmap), select,
  // the bucket transpose, reduce to a vector, dense ewise, dense-native pull
  // mxv and kronecker. Each must match its one-thread, one-chunk result.
  // Row-parallel loops fork only past kParallelGrain rows, so a tall,
  // narrow pair (9 columns: rows share 64-bit words) drives those.
  constexpr Index n = 200, tall = 4200, narrow = 9;
  const auto a = random_bool_matrix(n, n, 0.05, 33);
  const auto b = random_bool_matrix(n, n, 0.05, 34);
  const auto k = random_bool_matrix(12, 12, 0.3, 35);
  const auto t = random_bool_matrix(tall, narrow, 0.4, 36);
  auto dense = [](const gb::Matrix<bool>& x) {
    auto d = x.dup();
    d.set_format(gb::FormatMode::bitmap);
    return d;
  };
  const auto ad = dense(a), bd = dense(b), td = dense(t),
             ud = dense(random_bool_matrix(tall, narrow, 0.4, 37));
  const auto flip = [](bool v) { return !v; };
  const auto odd = [](bool v, Index i, Index j, std::int64_t) {
    return v != ((i + j) % 2 == 1);
  };
  struct Out {
    std::vector<gb::Matrix<bool>> mats;
    std::vector<gb::Vector<bool>> vecs;
  };
  auto run = [&] {
    Out out;
    auto mat = [&](Index rows, Index cols) -> gb::Matrix<bool>& {
      return out.mats.emplace_back(rows, cols);
    };
    gb::apply(mat(n, n), gb::no_mask, gb::no_accum, flip, a);
    gb::apply(mat(n, n), gb::no_mask, gb::no_accum, flip, ad);
    gb::apply_indexop(mat(n, n), gb::no_mask, gb::no_accum, odd, a,
                      std::int64_t{0});
    gb::apply_indexop(mat(n, n), gb::no_mask, gb::no_accum, odd, ad,
                      std::int64_t{0});
    gb::select(mat(n, n), gb::no_mask, gb::no_accum, gb::SelTril{}, a,
               std::int64_t{0});
    gb::transpose(mat(n, n), gb::no_mask, gb::no_accum, a.dup());
    gb::ewise_add(mat(n, n), gb::no_mask, gb::no_accum, gb::Lxor{}, ad, bd);
    gb::ewise_add(mat(tall, narrow), gb::no_mask, gb::no_accum, gb::Lxor{},
                  td, ud);
    gb::apply_indexop(mat(tall, narrow), gb::no_mask, gb::no_accum, odd, td,
                      std::int64_t{0});
    gb::kronecker(mat(n * 12, n * 12), gb::no_mask, gb::no_accum, gb::Land{},
                  a, k);
    auto& red = out.vecs.emplace_back(n);
    gb::reduce(red, gb::no_mask, gb::no_accum, gb::lor_monoid(), a);
    auto& pull = out.vecs.emplace_back(n);
    pull.set_format(gb::FormatMode::bitmap);
    gb::Descriptor d;
    d.mxv = gb::MxvMethod::pull;
    gb::mxv(pull, gb::no_mask, gb::no_accum, gb::lor_land(), a,
            gb::Vector<bool>::full(n, true), d);
    auto& tall_pull = out.vecs.emplace_back(tall);
    tall_pull.set_format(gb::FormatMode::bitmap);
    gb::mxv(tall_pull, gb::no_mask, gb::no_accum, gb::lor_land(), t,
            gb::Vector<bool>::full(narrow, true), d);
    return out;
  };
  Out serial;
  {
    ThreadGuard guard(1);
    serial = run();
  }
  ThreadGuard guard(4);
  gb::platform::ForcedChunks force(4);
  const Out par = run();
  for (std::size_t q = 0; q < serial.mats.size(); ++q)
    EXPECT_TRUE(lagraph::isequal(serial.mats[q], par.mats[q])) << "matrix " << q;
  for (std::size_t q = 0; q < serial.vecs.size(); ++q)
    EXPECT_TRUE(lagraph::isequal(serial.vecs[q], par.vecs[q])) << "vector " << q;
}

TEST(Parallel, PlainMaskedGustavsonEdgeCasesMatchMimic) {
  // The plain-masked Gustavson stages row i at M(i,:)'s offset and compacts
  // afterwards. Cases that stress that bound: hypersparse A and mask, A rows
  // with no mask row, mask rows with no A row, a valued mask with explicit
  // zeros, an empty result and a full mask. Bit for bit against the mimic,
  // with one chunk (the fused pass) and four (the staged pass), at 1, 2 and
  // 4 threads.
  constexpr Index n = 96;
  auto build = [](std::vector<Index> r, std::vector<Index> c,
                  gb::HyperMode hyper, auto&& value) {
    std::vector<double> v;
    for (std::size_t q = 0; q < r.size(); ++q) v.push_back(value(r[q], c[q]));
    gb::Matrix<double> m(n, n, gb::Layout::by_row, hyper);
    m.build(r, c, v, gb::Plus{});
    return m;
  };
  // Row i, if keep_row(i), holds columns (5i + 7t) % n for t < len(i).
  auto pattern = [](auto&& keep_row, auto&& len) {
    std::vector<Index> r, c;
    for (Index i = 0; i < n; ++i) {
      if (!keep_row(i)) continue;
      for (Index t = 0; t < len(i); ++t) {
        r.push_back(i);
        c.push_back((i * 5 + t * 7) % n);  // distinct for t < n: gcd(7, n) = 1
      }
    }
    return std::make_pair(r, c);
  };
  auto odd_values = [](Index i, Index j) {
    return 0.1 + static_cast<double>((i * 7 + j * 13) % 29) / 3.0;
  };
  auto ones = [](Index, Index) { return 1.0; };
  auto zeros_every_third = [](Index i, Index j) {
    return (i + 2 * j) % 3 == 0 ? 0.0 : 1.0;
  };
  auto all_rows = [](Index) { return true; };
  auto rows_mod = [](Index m, Index r) {
    return [m, r](Index i) { return i % m == r; };
  };
  auto len_of = [](Index l) { return [l](Index) { return l; }; };

  const auto [ar, ac] = pattern(all_rows, [](Index i) { return 2 + i % 9; });
  const auto a = build(ar, ac, gb::HyperMode::auto_mode, odd_values);
  const auto [hr, hc] = pattern(rows_mod(11, 3), len_of(6));
  const auto a_hyper = build(hr, hc, gb::HyperMode::always, odd_values);
  const auto [er, ec] = pattern(rows_mod(2, 0), len_of(5));
  const auto a_even = build(er, ec, gb::HyperMode::auto_mode, odd_values);
  // Strictly upper A: A*A is strictly upper too, so a lower mask keeps none.
  std::vector<Index> ur, uc, lr, lc, fr, fc;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      fr.push_back(i);
      fc.push_back(j);
      if (j > i && (i + j) % 4 == 0) {
        ur.push_back(i);
        uc.push_back(j);
      }
      if (j <= i) {
        lr.push_back(i);
        lc.push_back(j);
      }
    }
  }
  const auto a_upper = build(ur, uc, gb::HyperMode::auto_mode, odd_values);
  const auto [mr, mc] = pattern(all_rows, len_of(24));
  const auto [mhr, mhc] = pattern(rows_mod(7, 3), len_of(30));
  const auto [mor, moc] = pattern(rows_mod(2, 1), len_of(30));

  struct Case {
    const char* name;
    const gb::Matrix<double>& a;
    gb::Matrix<double> mask;
  };
  std::vector<Case> cases;
  cases.push_back({"hypersparse A and mask", a_hyper,
                   build(mhr, mhc, gb::HyperMode::always, ones)});
  cases.push_back({"A rows with no mask row", a,
                   build(mor, moc, gb::HyperMode::auto_mode, ones)});
  cases.push_back({"mask rows with no A row", a_even,
                   build(mr, mc, gb::HyperMode::auto_mode, ones)});
  cases.push_back({"valued mask with explicit zeros", a,
                   build(mr, mc, gb::HyperMode::auto_mode, zeros_every_third)});
  cases.push_back({"empty result", a_upper,
                   build(lr, lc, gb::HyperMode::auto_mode, ones)});
  cases.push_back({"full mask", a,
                   build(fr, fc, gb::HyperMode::auto_mode, zeros_every_third)});
  cases.back().mask.set_format(gb::FormatMode::full);

  for (const auto& cs : cases) {
    const auto da = ref::from_gb(cs.a);
    const auto dm = ref::from_gb(cs.mask);
    for (gb::Descriptor d : {gb::desc_default, gb::desc_s}) {
      ref::DenseMat<double> expect(n, n);
      ref::mxm(expect, &dm, static_cast<const gb::Plus*>(nullptr),
               gb::plus_times<double>(), da, da, d);
      const auto want = ref::to_gb(expect);
      d.mxm = gb::MxmMethod::gustavson;
      for (int threads : {1, 2, 4}) {
        for (int chunks : {1, 4}) {
          ThreadGuard guard(threads);
          gb::platform::ForcedChunks force(chunks);
          gb::Matrix<double> c(n, n);
          gb::mxm(c, cs.mask, gb::no_accum, gb::plus_times<double>(), cs.a,
                  cs.a, d);
          EXPECT_TRUE(bitwise_equal(want, c))
              << cs.name << " structural=" << d.mask_structural
              << " threads=" << threads << " chunks=" << chunks;
        }
      }
    }
  }
  EXPECT_TRUE(cases[0].a.is_hyper() && cases[0].mask.is_hyper());
  EXPECT_EQ(cases[4].mask.nvals(), n * (n + 1) / 2);
}

TEST(Parallel, PlainMaskedGustavsonIsOnePass) {
  // The symbolic pass exists only to give parallel chunks disjoint output
  // offsets; under a plain mask, M's pointer array already does, so the
  // chunked kernel visits each row once, like the one-chunk fused pass.
  // Every row visit is a governor poll, so the poll counts of four chunks
  // and of one tell the passes apart. A complemented mask still counts
  // first: there the gap is a whole pass over the rows.
  auto a = rounding_values(lagraph::rmat(9, 8, 36));
  const auto mask = masked_sweep_mask(9, gb::Format::sparse);
  const Index rows = a.by_row().nvec();
  auto polls = [&](gb::Descriptor d, int chunks) {
    d.mxm = gb::MxmMethod::gustavson;
    gb::platform::ForcedChunks force(chunks);
    gb::platform::Governor gov;
    gb::Matrix<double> c(a.nrows(), a.ncols());
    gb::platform::GovernorScope governed(&gov);
    gb::mxm(c, mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
    return gov.poll_count();
  };
  EXPECT_LT(polls(gb::desc_s, 4), polls(gb::desc_s, 1) + rows / 4)
      << "a plain mask ran a second pass over the rows";
  EXPECT_GE(polls(gb::desc_sc, 4), polls(gb::desc_sc, 1) + rows)
      << "a complemented mask no longer counts first";
}

TEST(Determinism, EwiseAddAndMult) {
  auto a = lagraph::rmat(8, 6, 15);
  auto b = lagraph::rmat(8, 6, 16);
  gb::Matrix<double> sum_serial(a.nrows(), a.ncols());
  gb::Matrix<double> prod_serial(a.nrows(), a.ncols());
  determinism_sweep(
      [&] {
        gb::ewise_add(sum_serial, gb::no_mask, gb::no_accum, gb::Plus{}, a, b);
        gb::ewise_mult(prod_serial, gb::no_mask, gb::no_accum, gb::Times{}, a,
                       b);
      },
      [&](int threads) {
        gb::Matrix<double> sum(a.nrows(), a.ncols());
        gb::Matrix<double> prod(a.nrows(), a.ncols());
        gb::ewise_add(sum, gb::no_mask, gb::no_accum, gb::Plus{}, a, b);
        gb::ewise_mult(prod, gb::no_mask, gb::no_accum, gb::Times{}, a, b);
        EXPECT_TRUE(lagraph::isequal(sum_serial, sum)) << threads;
        EXPECT_TRUE(lagraph::isequal(prod_serial, prod)) << threads;
      });
}

TEST(Determinism, ApplyAndSelectAndReduceVector) {
  auto a = lagraph::rmat(8, 8, 17);
  gb::Matrix<double> ap_serial(a.nrows(), a.ncols());
  gb::Matrix<double> idx_serial(a.nrows(), a.ncols());
  gb::Matrix<double> sel_serial(a.nrows(), a.ncols());
  gb::Vector<double> red_serial(a.nrows());
  auto idxop = [](double v, Index i, Index j, std::int64_t t) {
    return v + static_cast<double>(i * 3 + j + static_cast<Index>(t));
  };
  determinism_sweep(
      [&] {
        gb::apply(ap_serial, gb::no_mask, gb::no_accum,
                  [](double v) { return v * 2.5; }, a);
        gb::apply_indexop(idx_serial, gb::no_mask, gb::no_accum, idxop, a,
                          std::int64_t{1});
        gb::select(sel_serial, gb::no_mask, gb::no_accum, gb::SelTril{}, a,
                   std::int64_t{-1});
        gb::reduce(red_serial, gb::no_mask, gb::no_accum,
                   gb::plus_monoid<double>(), a);
      },
      [&](int threads) {
        gb::Matrix<double> ap(a.nrows(), a.ncols());
        gb::Matrix<double> idx(a.nrows(), a.ncols());
        gb::Matrix<double> sel(a.nrows(), a.ncols());
        gb::Vector<double> red(a.nrows());
        gb::apply(ap, gb::no_mask, gb::no_accum,
                  [](double v) { return v * 2.5; }, a);
        gb::apply_indexop(idx, gb::no_mask, gb::no_accum, idxop, a,
                          std::int64_t{1});
        gb::select(sel, gb::no_mask, gb::no_accum, gb::SelTril{}, a,
                   std::int64_t{-1});
        gb::reduce(red, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(),
                   a);
        EXPECT_TRUE(lagraph::isequal(ap_serial, ap)) << threads;
        EXPECT_TRUE(lagraph::isequal(idx_serial, idx)) << threads;
        EXPECT_TRUE(lagraph::isequal(sel_serial, sel)) << threads;
        EXPECT_TRUE(lagraph::isequal(red_serial, red)) << threads;
      });
}

TEST(Determinism, ReduceScalarFixedTreeAcrossThreadCounts) {
  // nnz >> 8192 so the fixed-width chunking actually splits; the combining
  // tree depends only on nnz, so the double result is EXACTLY equal at any
  // thread count.
  auto a = lagraph::rmat(11, 8, 18);
  double serial;
  {
    ThreadGuard guard(1);
    serial = gb::reduce_scalar(gb::plus_monoid<double>(), a);
  }
  for (int threads : {2, 4}) {
    ThreadGuard guard(threads);
    double par = gb::reduce_scalar(gb::plus_monoid<double>(), a);
    EXPECT_EQ(serial, par) << threads << " threads";
  }
}

TEST(Determinism, TransposeBucketParallel) {
  auto a = lagraph::rmat(9, 8, 19);
  gb::Matrix<double> serial(a.ncols(), a.nrows());
  determinism_sweep(
      [&] {
        auto fresh = a.dup();  // fresh dual-orientation cache each run
        gb::transpose(serial, gb::no_mask, gb::no_accum, fresh);
      },
      [&](int threads) {
        auto fresh = a.dup();
        gb::Matrix<double> par(a.ncols(), a.nrows());
        gb::transpose(par, gb::no_mask, gb::no_accum, fresh);
        EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
      });
}

TEST(Determinism, KroneckerParallel) {
  auto a = lagraph::rmat(5, 4, 20);
  auto b = lagraph::rmat(4, 4, 21);
  const Index m = a.nrows() * b.nrows();
  const Index n = a.ncols() * b.ncols();
  gb::Matrix<double> serial(m, n);
  determinism_sweep(
      [&] { gb::kronecker(serial, gb::no_mask, gb::no_accum, gb::Times{}, a, b); },
      [&](int threads) {
        gb::Matrix<double> par(m, n);
        gb::kronecker(par, gb::no_mask, gb::no_accum, gb::Times{}, a, b);
        EXPECT_TRUE(lagraph::isequal(serial, par)) << threads << " threads";
      });
}

// --- auto-select heuristics ----------------------------------------------

TEST(MxmAutoSelect, MaskedDensityCompareDoesNotOverflow) {
  // m * n == 2^64 wraps Index to exactly 0, flipping the density verdict:
  // the buggy compare saw `nvals*4 < 0` and never chose the masked-dot
  // method on huge hypersparse operands. All stores are empty, so only the
  // decision is observable — and it must be `dot`.
  const Index huge = Index{1} << 32;
  gb::Matrix<double> a(huge, huge), b(huge, huge), c(huge, huge);
  gb::Matrix<bool> mask(huge, huge);
  auto method = gb::mxm(c, mask, gb::no_accum, gb::plus_times<double>(), a, b,
                        gb::desc_s);
  EXPECT_EQ(method, gb::MxmMethod::dot);
}

TEST(MxmAutoSelect, VerySparseRowsPickHeap) {
  // A diagonal A (1 entry/row) against a sparse B: flops per row ~ B's row
  // length, far under the dense-accumulator threshold — heap must win.
  const Index n = 128;
  auto a = gb::Matrix<double>::identity(n);
  auto b = gb::Matrix<double>::identity(n);
  gb::Matrix<double> c(n, n);
  auto method = gb::mxm(c, gb::no_mask, gb::no_accum, gb::plus_times<double>(),
                        a, b);
  EXPECT_EQ(method, gb::MxmMethod::heap);

  // A denser operand must keep Gustavson.
  auto dense_a = lagraph::rmat(7, 8, 22);
  gb::Matrix<double> c2(dense_a.nrows(), dense_a.ncols());
  auto method2 = gb::mxm(c2, gb::no_mask, gb::no_accum,
                         gb::plus_times<double>(), dense_a, dense_a);
  EXPECT_EQ(method2, gb::MxmMethod::gustavson);
}

// --- kronecker dimension overflow ---------------------------------------

TEST(Kronecker, OutputDimensionOverflowThrows) {
  const Index big = Index{1} << 40;
  gb::Matrix<double> a(big, 2), b(big, 2), c(4, 4);
  try {
    gb::kronecker(c, gb::no_mask, gb::no_accum, gb::Times{}, a, b);
    FAIL() << "expected gb::Error";
  } catch (const gb::Error& e) {
    EXPECT_EQ(e.info(), gb::Info::index_out_of_bounds);
  }
}

TEST(Parallel, ExclusiveScanDetectsOverflow) {
  // Synthetic near-limit case: a 32-bit pointer array whose total nnz would
  // wrap. Without the check this silently corrupts every row offset; the
  // checked path throws, and the C API maps it to GrB_INDEX_OUT_OF_BOUNDS.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> wraps{kMax - 1, 1, 1};
  EXPECT_THROW(gb::platform::exclusive_scan(wraps), std::overflow_error);

  // Exactly at the limit is representable and must pass.
  std::vector<std::int32_t> fits{kMax - 1, 1};
  EXPECT_EQ(gb::platform::exclusive_scan(fits), kMax);
  EXPECT_EQ(fits, (std::vector<std::int32_t>{0, kMax - 1}));

  // Unsigned index type near 2^32.
  constexpr std::uint32_t kUMax = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> uwraps{kUMax, 1};
  EXPECT_THROW(gb::platform::exclusive_scan(uwraps), std::overflow_error);

  // Negative counts are malformed input, not a wrapped sum in disguise.
  std::vector<std::int32_t> negative{4, -1};
  EXPECT_THROW(gb::platform::exclusive_scan(negative), std::overflow_error);
}
