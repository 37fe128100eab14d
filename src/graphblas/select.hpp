// GrB_select: keep the entries satisfying an index-unary predicate
// (tril/triu/diag/value tests). LAGraph's triangle counting and k-truss are
// built on this.
#pragma once

#include <span>
#include <vector>

#include "graphblas/mask_accum.hpp"
#include "graphblas/store_utils.hpp"
#include "platform/parallel.hpp"
#include "platform/workspace.hpp"

namespace gb {

namespace detail {
struct ws_select_counts;
}  // namespace detail

/// w<m> accum= select(f, u, thunk): keep u(i) where f(u(i), i, 0, thunk).
template <class CT, class MaskArg, class Accum, class SelOp, class UT, class S>
void select(Vector<CT>& w, const MaskArg& mask, const Accum& accum, SelOp f,
            const Vector<UT>& u, S thunk,
            const Descriptor& desc = desc_default) {
  check_dims(w.size() == u.size(), "select: w/u size");
  auto ui = u.indices();
  auto uv = u.values();
  Buf<Index> ti;
  Buf<UT> tv;
  for (std::size_t k = 0; k < ui.size(); ++k) {
    if ((k & 1023) == 0) platform::governor_poll();
    if (f(uv[k], ui[k], Index{0}, thunk)) {
      ti.push_back(ui[k]);
      tv.push_back(uv[k]);
    }
  }
  write_back(w, mask, accum, std::move(ti), std::move(tv), desc);
}

/// C<M> accum= select(f, op(A), thunk). Two passes over row chunks balanced
/// by the store's pointer array: the first counts survivors per row, an
/// exclusive scan fixes each row's output offset, and the second pass writes
/// the kept entries straight into the final arrays — so the result is
/// bit-identical for any thread count. The predicate runs twice per entry;
/// it is required to be pure (same contract as the C API's GrB_IndexUnaryOp).
template <class CT, class MaskArg, class Accum, class SelOp, class AT, class S>
void select(Matrix<CT>& c, const MaskArg& mask, const Accum& accum, SelOp f,
            const Matrix<AT>& a, S thunk,
            const Descriptor& desc = desc_default) {
  check_dims(c.nrows() == input_nrows(a, desc.transpose_a) &&
                 c.ncols() == input_ncols(a, desc.transpose_a),
             "select: C/A shape");
  const auto& s = input_rows(a, desc.transpose_a);
  SparseStore<AT> t(s.vdim);
  t.hyper = true;  // rows appear only as they keep entries
  t.p.assign(1, 0);
  const std::size_t nv = static_cast<std::size_t>(s.nvec());
  if (nv == 0) {
    write_back(c, mask, accum, std::move(t), desc);
    return;
  }
  const std::span<const Index> costs(s.p.data(), nv + 1);

  auto counts_h =
      platform::Workspace::checkout<detail::ws_select_counts, Index>(nv + 1);
  auto& counts = *counts_h;
  platform::parallel_balanced_chunks(
      costs, [&](std::size_t, std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k) {
          if ((k & 255) == 0) platform::governor_poll();
          Index row = s.vec_id(static_cast<Index>(k));
          Index cnt = 0;
          for (Index pos = s.vec_begin(static_cast<Index>(k));
               pos < s.vec_end(static_cast<Index>(k)); ++pos) {
            if (f(s.x[pos], row, s.i[pos], thunk)) ++cnt;
          }
          counts[k] = cnt;
        }
      });
  const Index nnz = platform::exclusive_scan(counts);
  t.i.resize(static_cast<std::size_t>(nnz));
  Buf<storage_t<AT>> x(static_cast<std::size_t>(nnz));  // see unstage()
  platform::parallel_balanced_chunks(
      costs, [&](std::size_t, std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k) {
          if ((k & 255) == 0) platform::governor_poll();
          Index row = s.vec_id(static_cast<Index>(k));
          Index out = counts[k];
          for (Index pos = s.vec_begin(static_cast<Index>(k));
               pos < s.vec_end(static_cast<Index>(k)); ++pos) {
            if (f(s.x[pos], row, s.i[pos], thunk)) {
              t.i[out] = s.i[pos];
              x[out] = s.x[pos];
              ++out;
            }
          }
        }
      });
  t.x = unstage<AT>(std::move(x));
  for (std::size_t k = 0; k < nv; ++k) {
    if (counts[k + 1] > counts[k]) {
      t.h.push_back(s.vec_id(static_cast<Index>(k)));
      t.p.push_back(counts[k + 1]);
    }
  }
  write_back(c, mask, accum, std::move(t), desc);
}

/// Convenience: strictly-lower-triangular part of A (LAGraph's tril(A, -1)).
template <class T>
[[nodiscard]] Matrix<T> tril(const Matrix<T>& a, std::int64_t k = 0) {
  Matrix<T> c(a.nrows(), a.ncols());
  select(c, no_mask, no_accum, SelTril{}, a, k);
  return c;
}

/// Convenience: strictly-upper-triangular part of A.
template <class T>
[[nodiscard]] Matrix<T> triu(const Matrix<T>& a, std::int64_t k = 0) {
  Matrix<T> c(a.nrows(), a.ncols());
  select(c, no_mask, no_accum, SelTriu{}, a, k);
  return c;
}

}  // namespace gb
