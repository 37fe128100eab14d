// GrB_reduce: row-reduce a matrix to a vector, or reduce a matrix/vector to
// a scalar, under a monoid (Table I "reduce"). Terminal monoids short-circuit
// (§II-A's early-exit mechanism).
//
// The row-reduce runs two passes over cost-balanced row chunks (count the
// non-empty rows, scan, fold each row into its precomputed slot); each row
// folds left-to-right exactly as the serial kernel did, so the result is
// bit-identical at any thread count. The matrix scalar reduce chunks the
// entry array at a FIXED chunk width (independent of thread count) and
// combines the per-chunk partials in chunk order, so its floating-point
// association is one fixed tree — again identical on 1 or N threads.
#pragma once

#include <span>
#include <vector>

#include "graphblas/mask_accum.hpp"
#include "graphblas/store_utils.hpp"
#include "platform/parallel.hpp"
#include "platform/workspace.hpp"

namespace gb {

namespace detail {
struct ws_reduce_counts;
struct ws_reduce_partials;

/// Fixed entry-chunk width for the scalar matrix reduce. Chunk boundaries —
/// and therefore the combining tree — depend only on nnz, never on the
/// thread count.
inline constexpr std::size_t kReduceChunk = 8192;

/// Fold a flat entry stream under a monoid with the fixed-chunk combining
/// tree: per-chunk identity-seeded partials combined in chunk order. The
/// association depends only on the stream length (and the forced_chunks test
/// hook), never on the thread count, so the result is bit-identical on 1 or
/// N threads. Shared by reduce_scalar(Matrix) and the fused matrix
/// ewise+reduce kernels (fused.hpp), which must combine identically.
/// Vals is any random-access container (Buf<T> included — the generic shape
/// keeps Buf<bool>'s packed proxy usable, which a span cannot view).
template <class M, class Vals>
[[nodiscard]] typename M::value_type reduce_entry_stream(const M& monoid,
                                                         const Vals& vals) {
  using ZT = typename M::value_type;
  const std::size_t nnz = vals.size();
  std::size_t nchunks = (nnz + kReduceChunk - 1) / kReduceChunk;
  if (int fc = platform::forced_chunks(); fc > 0 && nnz > 0) {
    // Test hook: a forced chunk count changes the combining tree, which for
    // non-associative floats changes the rounding — documented on the hook.
    nchunks = std::min(nnz, static_cast<std::size_t>(fc));
  }
  if (nchunks <= 1) {
    ZT acc = monoid.identity;
    for (std::size_t k = 0; k < nnz; ++k) {
      if ((k & 1023) == 0) platform::governor_poll();
      acc = monoid(acc, static_cast<ZT>(vals[k]));
      if (monoid.is_terminal(acc)) break;
    }
    return acc;
  }
  // storage_t: a Buf<bool> would pack the chunks' partials into shared
  // words, and concurrent bit writes race.
  auto partials_h =
      platform::Workspace::checkout<ws_reduce_partials, storage_t<ZT>>(
          nchunks);
  auto& partials = *partials_h;
  platform::parallel_for_chunks(
      nnz, nchunks, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        ZT acc = monoid.identity;
        for (std::size_t k = lo; k < hi; ++k) {
          acc = monoid(acc, static_cast<ZT>(vals[k]));
          if (monoid.is_terminal(acc)) break;
        }
        partials[c] = acc;
      });
  ZT acc = monoid.identity;
  for (std::size_t c = 0; c < nchunks; ++c) {
    acc = monoid(acc, static_cast<ZT>(partials[c]));
    if (monoid.is_terminal(acc)) break;
  }
  return acc;
}
}  // namespace detail

/// w<m> accum= reduce-rows(op(A)): w(i) = ⊕_j op(A)(i, j).
template <class CT, class MaskArg, class Accum, class M, class AT>
void reduce(Vector<CT>& w, const MaskArg& mask, const Accum& accum,
            const M& monoid, const Matrix<AT>& a,
            const Descriptor& desc = desc_default) {
  check_dims(w.size() == input_nrows(a, desc.transpose_a), "reduce: w/A shape");
  // Bitmap/full-native path: when the primary store is dense and its major
  // axis is the rows of op(A), fold each row's present slots in ascending
  // column order — the same left-to-right order the sparse kernel uses, so
  // results stay bit-identical — straight into a dense output.
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    const auto& rs = a.raw_store();
    const bool rows_major =
        (desc.transpose_a ? flip(a.layout()) : a.layout()) == Layout::by_row;
    if (rs.form != Format::sparse && rows_major &&
        dense_form_addressable(w.size(), 1)) {
      using ZT = typename M::value_type;
      const Index n = w.size();  // == rs.vdim
      const Index mdim = rs.mdim;
      Buf<storage_t<CT>> out(static_cast<std::size_t>(n), storage_t<CT>{});
      Buf<std::uint8_t> pres(static_cast<std::size_t>(n), 0);
      platform::parallel_for(static_cast<std::size_t>(n), [&](std::size_t k) {
        if ((k & 255) == 0) platform::governor_poll();
        const std::size_t base = k * static_cast<std::size_t>(mdim);
        bool seen = false;
        ZT acc{};
        for (Index j = 0; j < mdim; ++j) {
          const std::size_t slot = base + static_cast<std::size_t>(j);
          if (rs.form != Format::full && !rs.b[slot]) continue;
          if (!seen) {
            acc = static_cast<ZT>(rs.x[slot]);
            seen = true;
            continue;
          }
          if constexpr (always_terminal<M>) break;
          if (monoid.is_terminal(acc)) break;
          acc = monoid(acc, static_cast<ZT>(rs.x[slot]));
        }
        if (seen) {
          out[k] = static_cast<CT>(acc);
          pres[k] = 1;
        }
      });
      Index cnt = 0;
      for (Index i = 0; i < n; ++i) cnt += pres[i];
      w.commit_result_dense(std::move(out), std::move(pres), cnt);
      return;
    }
  }
  const auto& s = input_rows(a, desc.transpose_a);
  using ZT = typename M::value_type;
  Buf<Index> ti;
  Buf<storage_t<ZT>> tv;  // see unstage()
  const std::size_t nv = static_cast<std::size_t>(s.nvec());
  if (nv == 0) {
    write_back(w, mask, accum, std::move(ti), unstage<ZT>(std::move(tv)),
               desc);
    return;
  }
  const std::span<const Index> costs(s.p.data(), nv + 1);

  // Pass 1: which rows produce an output (the non-empty ones).
  auto counts_h =
      platform::Workspace::checkout<detail::ws_reduce_counts, Index>(nv + 1);
  auto& counts = *counts_h;
  for (std::size_t k = 0; k < nv; ++k) {
    counts[k] =
        s.vec_end(static_cast<Index>(k)) > s.vec_begin(static_cast<Index>(k))
            ? 1
            : 0;
  }
  const Index nout = platform::exclusive_scan(counts);
  ti.resize(static_cast<std::size_t>(nout));
  tv.resize(static_cast<std::size_t>(nout));

  // Pass 2: fold each row (serial left-to-right within the row) into its
  // precomputed output slot.
  platform::parallel_balanced_chunks(
      costs, [&](std::size_t, std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k) {
          if ((k & 255) == 0) platform::governor_poll();
          Index begin = s.vec_begin(static_cast<Index>(k));
          Index end = s.vec_end(static_cast<Index>(k));
          if (begin == end) continue;
          ZT acc = static_cast<ZT>(s.x[begin]);
          for (Index pos = begin + 1; pos < end; ++pos) {
            if constexpr (always_terminal<M>) break;
            if (monoid.is_terminal(acc)) break;
            acc = monoid(acc, static_cast<ZT>(s.x[pos]));
          }
          ti[counts[k]] = s.vec_id(static_cast<Index>(k));
          tv[counts[k]] = acc;
        }
      });
  write_back(w, mask, accum, std::move(ti), unstage<ZT>(std::move(tv)), desc);
}

/// Scalar reduce of a matrix: ⊕ over all entries. Returns the monoid
/// identity for an empty matrix (GrB semantics with an init value).
template <class M, class AT>
[[nodiscard]] typename M::value_type reduce_scalar(const M& monoid,
                                                   const Matrix<AT>& a) {
  const auto& s = a.by_row();
  return detail::reduce_entry_stream(monoid, s.x);
}

/// Scalar reduce of a vector.
template <class M, class UT>
[[nodiscard]] typename M::value_type reduce_scalar(const M& monoid,
                                                   const Vector<UT>& u) {
  using ZT = typename M::value_type;
  ZT acc = monoid.identity;
  if (u.is_dense_rep()) {
    // A full rep has no presence map and needs none — every slot counts.
    const bool u_full = u.is_full_rep();
    std::span<const std::uint8_t> present;
    if (!u_full) present = u.present();
    auto values = u.dense_values();
    for (Index i = 0; i < u.size(); ++i) {
      if ((i & 1023) == 0) platform::governor_poll();
      if (!u_full && !present[i]) continue;
      acc = monoid(acc, static_cast<ZT>(values[i]));
      if (monoid.is_terminal(acc)) break;
    }
  } else {
    auto val = u.values();
    for (std::size_t k = 0; k < val.size(); ++k) {
      if ((k & 1023) == 0) platform::governor_poll();
      acc = monoid(acc, static_cast<ZT>(val[k]));
      if (monoid.is_terminal(acc)) break;
    }
  }
  return acc;
}

}  // namespace gb
