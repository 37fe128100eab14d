// GrB_apply: C<M> accum= f(A), elementwise unary transform (Table I "apply"),
// plus the index-unary variants (GrB_apply with GrB_IndexUnaryOp).
//
// The pattern is copied verbatim; only values change. Each output entry
// depends on exactly one input entry, so the value transforms run as flat
// parallel loops over nnz (value apply) or cost-balanced row chunks (the
// index-unary form, which needs the row id) — every write lands at the
// entry's own position, so results are bit-identical at any thread count.
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "graphblas/mask_accum.hpp"
#include "graphblas/store_utils.hpp"
#include "platform/parallel.hpp"

namespace gb {

/// w<m> accum= f(u).
template <class CT, class MaskArg, class Accum, class UnaryOp, class UT>
void apply(Vector<CT>& w, const MaskArg& mask, const Accum& accum, UnaryOp f,
           const Vector<UT>& u, const Descriptor& desc = desc_default) {
  check_dims(w.size() == u.size(), "apply: w/u size");
  // Bitmap/full-native path: when u already sits dense, transform slotwise
  // into a fresh accumulator — no sparse materialisation of u, no gather.
  // Slot writes are positional, so the result is bit-identical to the
  // sparse path at any thread count.
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    if (u.format() != Format::sparse && dense_form_addressable(u.size(), 1)) {
      const Index n = u.size();
      auto dv = u.dense_values();
      const bool u_full = u.is_full_rep();
      std::span<const std::uint8_t> up;
      if (!u_full) up = u.present();
      Buf<storage_t<CT>> out(static_cast<std::size_t>(n), storage_t<CT>{});
      Buf<std::uint8_t> pres(static_cast<std::size_t>(n), 0);
      platform::parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
        if (u_full || up[i]) {
          out[i] = static_cast<CT>(f(dv[i]));
          pres[i] = 1;
        }
      });
      w.commit_result_dense(std::move(out), std::move(pres), u.nvals());
      return;
    }
  }
  auto ui = u.indices();
  auto uv = u.values();
  using ZT = std::decay_t<decltype(f(uv[0]))>;
  Buf<Index> ti(ui.begin(), ui.end());
  Buf<ZT> tv(uv.size());
  platform::parallel_for(uv.size(), [&](std::size_t k) { tv[k] = f(uv[k]); });
  write_back(w, mask, accum, std::move(ti), std::move(tv), desc);
}

/// C<M> accum= f(op(A)).
template <class CT, class MaskArg, class Accum, class UnaryOp, class AT>
void apply(Matrix<CT>& c, const MaskArg& mask, const Accum& accum, UnaryOp f,
           const Matrix<AT>& a, const Descriptor& desc = desc_default) {
  check_dims(c.nrows() == input_nrows(a, desc.transpose_a) &&
                 c.ncols() == input_ncols(a, desc.transpose_a),
             "apply: C/A shape");
  // Bitmap/full-native path: value apply is orientation-agnostic (each slot
  // maps to itself), so a dense primary store transforms in place — no
  // sparse view, no pattern copy. The transposed view of a dense store is
  // the same arrays under the flipped layout tag.
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    const auto& rs = a.raw_store();
    if (rs.form != Format::sparse) {
      SparseStore<CT> t(rs.vdim);
      t.hyper = false;
      Buf<Index>().swap(t.p);
      t.form = rs.form;
      t.mdim = rs.mdim;
      t.bnvals = rs.bnvals;
      t.b = rs.b;  // empty for full form
      t.x.resize(rs.x.size());
      if (rs.form == Format::full) {
        platform::parallel_for(rs.x.size(), [&](std::size_t k) {
          t.x[k] = static_cast<CT>(f(rs.x[k]));
        });
      } else {
        platform::parallel_for(rs.x.size(), [&](std::size_t k) {
          if (rs.b[k]) t.x[k] = static_cast<CT>(f(rs.x[k]));
        });
      }
      const Layout out_layout =
          desc.transpose_a ? flip(a.layout()) : a.layout();
      c.adopt(std::move(t), out_layout);
      return;
    }
  }
  const auto& s = input_rows(a, desc.transpose_a);
  using ZT = std::decay_t<decltype(f(s.x[0]))>;
  SparseStore<ZT> t(s.vdim);
  t.hyper = s.hyper;
  t.h = s.h;
  t.p = s.p;
  t.i = s.i;
  t.x.resize(s.x.size());
  platform::parallel_for(s.x.size(),
                         [&](std::size_t k) { t.x[k] = f(s.x[k]); });
  write_back(c, mask, accum, std::move(t), desc);
}

/// w<m> accum= f(u, i, 0, thunk) — index-unary apply on a vector.
template <class CT, class MaskArg, class Accum, class IdxOp, class UT, class S>
void apply_indexop(Vector<CT>& w, const MaskArg& mask, const Accum& accum,
                   IdxOp f, const Vector<UT>& u, S thunk,
                   const Descriptor& desc = desc_default) {
  check_dims(w.size() == u.size(), "apply_indexop: w/u size");
  // Bitmap/full-native path: slot id *is* the index argument.
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    if (u.format() != Format::sparse && dense_form_addressable(u.size(), 1)) {
      const Index n = u.size();
      auto dv = u.dense_values();
      const bool u_full = u.is_full_rep();
      std::span<const std::uint8_t> up;
      if (!u_full) up = u.present();
      Buf<storage_t<CT>> out(static_cast<std::size_t>(n), storage_t<CT>{});
      Buf<std::uint8_t> pres(static_cast<std::size_t>(n), 0);
      platform::parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
        if (u_full || up[i]) {
          out[i] = static_cast<CT>(
              f(dv[i], static_cast<Index>(i), Index{0}, thunk));
          pres[i] = 1;
        }
      });
      w.commit_result_dense(std::move(out), std::move(pres), u.nvals());
      return;
    }
  }
  auto ui = u.indices();
  auto uv = u.values();
  using ZT = std::decay_t<decltype(f(uv[0], Index{0}, Index{0}, thunk))>;
  Buf<Index> ti(ui.begin(), ui.end());
  Buf<ZT> tv(uv.size());
  platform::parallel_for(uv.size(), [&](std::size_t k) {
    tv[k] = f(uv[k], ui[k], Index{0}, thunk);
  });
  write_back(w, mask, accum, std::move(ti), std::move(tv), desc);
}

/// C<M> accum= f(op(A), i, j, thunk) — index-unary apply on a matrix. The
/// operator sees the row id, so the loop runs over row chunks balanced by
/// the store's own pointer array (each row's cost is its entry count).
template <class CT, class MaskArg, class Accum, class IdxOp, class AT, class S>
void apply_indexop(Matrix<CT>& c, const MaskArg& mask, const Accum& accum,
                   IdxOp f, const Matrix<AT>& a, S thunk,
                   const Descriptor& desc = desc_default) {
  check_dims(c.nrows() == input_nrows(a, desc.transpose_a) &&
                 c.ncols() == input_ncols(a, desc.transpose_a),
             "apply_indexop: C/A shape");
  // Bitmap/full-native path: slot s = k*mdim + j decodes to the (row, col)
  // pair directly, with the major axis meaning rows or columns of C
  // depending on the adopted layout.
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    const auto& rs = a.raw_store();
    if (rs.form != Format::sparse) {
      const Layout out_layout =
          desc.transpose_a ? flip(a.layout()) : a.layout();
      const bool major_is_row = out_layout == Layout::by_row;
      const Index mdim = rs.mdim;
      SparseStore<CT> t(rs.vdim);
      t.hyper = false;
      Buf<Index>().swap(t.p);
      t.form = rs.form;
      t.mdim = mdim;
      t.bnvals = rs.bnvals;
      t.b = rs.b;
      t.x.resize(rs.x.size());
      platform::parallel_for(
          static_cast<std::size_t>(rs.vdim), [&](std::size_t k) {
            const Index kk = static_cast<Index>(k);
            const std::size_t base = k * static_cast<std::size_t>(mdim);
            for (Index j = 0; j < mdim; ++j) {
              const std::size_t s = base + static_cast<std::size_t>(j);
              if (rs.form == Format::full || rs.b[s]) {
                const Index row = major_is_row ? kk : j;
                const Index col = major_is_row ? j : kk;
                t.x[s] = static_cast<CT>(f(rs.x[s], row, col, thunk));
              }
            }
          });
      c.adopt(std::move(t), out_layout);
      return;
    }
  }
  const auto& s = input_rows(a, desc.transpose_a);
  using ZT = std::decay_t<decltype(f(s.x[0], Index{0}, Index{0}, thunk))>;
  SparseStore<ZT> t(s.vdim);
  t.hyper = s.hyper;
  t.h = s.h;
  t.p = s.p;
  t.i = s.i;
  Buf<storage_t<ZT>> x(s.x.size());  // see unstage()
  const std::size_t nv = static_cast<std::size_t>(s.nvec());
  const std::span<const Index> costs(s.p.data(), nv + 1);
  platform::parallel_balanced_chunks(
      costs, [&](std::size_t, std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k) {
          if ((k & 255) == 0) platform::governor_poll();
          Index row = s.vec_id(static_cast<Index>(k));
          for (Index pos = s.vec_begin(static_cast<Index>(k));
               pos < s.vec_end(static_cast<Index>(k)); ++pos) {
            x[pos] = f(s.x[pos], row, s.i[pos], thunk);
          }
        }
      });
  t.x = unstage<ZT>(std::move(x));
  write_back(c, mask, accum, std::move(t), desc);
}

}  // namespace gb
