// The physical storage of a GrB_Matrix: the four SuiteSparse:GraphBLAS
// forms (§II-A), all behind one struct:
//
//   standard     — pointer array `p` of size vdim+1; memory O(vdim + e);
//   hypersparse  — `h` lists only the non-empty major vectors, `p` has size
//                  nvec+1; memory O(e), so matrices with enormous dimensions
//                  are cheap as long as e << vdim;
//   bitmap       — dense value array `x` of size vdim*mdim plus a presence
//                  byte per slot in `b`; O(1) random access, and kernels in
//                  the dense regime write it directly with no index sort or
//                  dense->sparse compaction;
//   full         — the bitmap form with every slot present, so `b` is
//                  dropped entirely (iso-dense matrices, DNN layers).
//
// `form` distinguishes sparse (standard/hypersparse, per `hyper`) from the
// two dense forms; the compressed arrays and the dense arrays are never
// populated at the same time. Dense forms are only used when vdim*mdim is
// addressable (kDenseFormCap); conversions degrade gracefully to sparse.
//
// Orientation (rows-major vs columns-major) is a property of the *owner*;
// the store itself only knows "major" and "minor".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>

#include "graphblas/types.hpp"
#include "platform/alloc.hpp"
#include "platform/parallel.hpp"
#include "platform/workspace.hpp"

namespace gb {

namespace detail {
// Workspace call-site tags for the transpose kernels.
struct ws_transpose_sort;
struct ws_transpose_hist;
}  // namespace detail

/// Values that cost-balanced chunks write at computed positions are staged
/// as storage_t<T>: Buf<bool> packs 64 entries into a word, and a chunk
/// seam can fall anywhere, so two chunks would race on the read-modify-write
/// of the word they share. (platform::parallel_for needs no staging: its
/// blocks start on word boundaries.) unstage() hands the staged array over
/// on the calling thread — a move for every type but bool, one serial
/// conversion pass for bool.
template <class T>
[[nodiscard]] Buf<T> unstage(Buf<storage_t<T>>&& staged) {
  if constexpr (std::is_same_v<T, storage_t<T>>) {
    return std::move(staged);
  } else {
    return Buf<T>(staged.begin(), staged.end());
  }
}

// All arrays live in gb::Buf so every byte is metered and every growth
// is a fault-injection point (see platform/alloc.hpp).
template <class T>
struct SparseStore {
  Format form = Format::sparse;
  bool hyper = false;      ///< sparse form only: hypersparse layout
  Index vdim = 0;          ///< major dimension (number of possible vectors)
  Index mdim = 0;          ///< dense forms only: minor dimension
  Index bnvals = 0;        ///< bitmap form only: number of present slots
  Buf<Index> h;            ///< hyper only: sorted ids of non-empty vectors
  Buf<Index> p;            ///< sparse: vector start offsets; size nvec()+1
  Buf<Index> i;            ///< sparse: minor indices, size nnz
  Buf<std::uint8_t> b;     ///< bitmap: presence byte per slot, size vdim*mdim
  Buf<T> x;                ///< values: size nnz (sparse) or vdim*mdim (dense)

  SparseStore() = default;

  /// An empty store. Starts hypersparse so construction is O(1) whatever the
  /// dimension (a fresh standard store would need an O(vdim) pointer array —
  /// fatal for the enormous-dimension matrices hypersparsity exists for).
  explicit SparseStore(Index dim) : hyper(true), vdim(dim), p(1, 0) {}

  [[nodiscard]] Index nnz() const noexcept {
    switch (form) {
      case Format::sparse: return static_cast<Index>(i.size());
      case Format::bitmap: return bnvals;
      case Format::full: return vdim * mdim;
    }
    return 0;
  }

  /// Dense-form slot of (major k, minor j).
  [[nodiscard]] std::size_t slot(Index k, Index j) const noexcept {
    return static_cast<std::size_t>(k) * mdim + j;
  }

  /// Presence of a dense-form slot (full form has no `b`: always present).
  [[nodiscard]] bool slot_present(std::size_t s) const noexcept {
    return form == Format::full || b[s] != 0;
  }

  /// Number of stored (possibly empty, if standard) major vectors.
  [[nodiscard]] Index nvec() const noexcept {
    return hyper ? static_cast<Index>(h.size()) : vdim;
  }

  /// Major id of the k-th stored vector.
  [[nodiscard]] Index vec_id(Index k) const noexcept {
    return hyper ? h[k] : k;
  }

  /// Locate the stored slot of major vector `j`; nullopt if absent/empty.
  [[nodiscard]] std::optional<Index> find_vec(Index j) const noexcept {
    if (!hyper) {
      if (j >= vdim) return std::nullopt;
      return j;
    }
    auto it = std::lower_bound(h.begin(), h.end(), j);
    if (it == h.end() || *it != j) return std::nullopt;
    return static_cast<Index>(it - h.begin());
  }

  [[nodiscard]] Index vec_begin(Index k) const noexcept { return p[k]; }
  [[nodiscard]] Index vec_end(Index k) const noexcept { return p[k + 1]; }

  /// Count of major vectors that actually hold entries.
  [[nodiscard]] Index nvec_nonempty() const noexcept {
    if (form == Format::full) return mdim > 0 ? vdim : 0;
    if (form == Format::bitmap) {
      Index cnt = 0;
      for (Index k = 0; k < vdim; ++k) {
        for (Index j = 0; j < mdim; ++j) {
          if (b[slot(k, j)]) {
            ++cnt;
            break;
          }
        }
      }
      return cnt;
    }
    if (hyper) return static_cast<Index>(h.size());
    Index cnt = 0;
    for (Index k = 0; k < vdim; ++k)
      if (p[k + 1] > p[k]) ++cnt;
    return cnt;
  }

  /// Convert standard -> hypersparse (drops empty vectors from `p`).
  /// Strong guarantee: the new arrays are built before the old ones go.
  void hyperize() {
    if (form != Format::sparse || hyper) return;
    Buf<Index> nh;
    Buf<Index> np;
    np.push_back(0);
    for (Index k = 0; k < vdim; ++k) {
      if (p[k + 1] > p[k]) {
        nh.push_back(k);
        np.push_back(p[k + 1]);
      }
    }
    h = std::move(nh);
    p = std::move(np);
    hyper = true;
  }

  /// Convert hypersparse -> standard. Strong guarantee.
  void unhyperize() {
    if (form != Format::sparse || !hyper) return;
    Buf<Index> np(vdim + 1, 0);
    for (std::size_t k = 0; k < h.size(); ++k) np[h[k] + 1] = p[k + 1] - p[k];
    for (Index k = 0; k < vdim; ++k) np[k + 1] += np[k];
    Buf<Index>().swap(h);  // noexcept free
    p = std::move(np);
    hyper = false;
  }

  /// Bytes held by the index/pointer/value/presence arrays — the quantity
  /// behind the paper's O(n+e) vs O(e) claim.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return h.capacity() * sizeof(Index) + p.capacity() * sizeof(Index) +
           i.capacity() * sizeof(Index) + b.capacity() +
           x.capacity() * sizeof(T);
  }

  // --- form conversions ------------------------------------------------------
  // All three have the strong guarantee: the target-form arrays are built
  // completely before the source arrays are released, so an allocation
  // failure (real or injected) leaves the store exactly as it was.

  /// Convert to the bitmap form. `minor_dim` is this store's minor
  /// dimension. Requires dense_form_addressable(vdim, minor_dim).
  void to_bitmap(Index minor_dim) {
    if (form == Format::bitmap) return;
    if (form == Format::full) {
      // full -> bitmap: materialise the all-present byte map.
      Buf<std::uint8_t> nb(static_cast<std::size_t>(vdim) * mdim, 1);
      b = std::move(nb);
      bnvals = vdim * mdim;
      form = Format::bitmap;
      return;
    }
    const std::size_t slots = static_cast<std::size_t>(vdim) * minor_dim;
    Buf<T> nx(slots, T{});
    Buf<std::uint8_t> nb(slots, 0);
    Index cnt = 0;
    for (Index k = 0; k < nvec(); ++k) {
      if ((k & 255) == 0) platform::governor_poll();
      const std::size_t base =
          static_cast<std::size_t>(vec_id(k)) * minor_dim;
      for (Index pos = p[k]; pos < p[k + 1]; ++pos) {
        nx[base + i[pos]] = x[pos];
        nb[base + i[pos]] = 1;
        ++cnt;
      }
    }
    // Commit: nothing below can throw.
    x = std::move(nx);
    b = std::move(nb);
    Buf<Index>().swap(h);
    Buf<Index>().swap(p);
    Buf<Index>().swap(i);
    mdim = minor_dim;
    bnvals = cnt;
    hyper = false;
    form = Format::bitmap;
  }

  /// Convert to the full form. Requires every slot present
  /// (nnz() == vdim * minor_dim); callers enforce via the format policy.
  void to_full(Index minor_dim) {
    if (form == Format::full) return;
    if (form == Format::bitmap) {
      Buf<std::uint8_t>().swap(b);  // noexcept free
      bnvals = 0;
      form = Format::full;
      return;
    }
    to_bitmap(minor_dim);
    Buf<std::uint8_t>().swap(b);
    bnvals = 0;
    form = Format::full;
  }

  /// Convert a dense form back to sparse (standard layout; the owner's
  /// hypersparsity policy may hyperize afterwards).
  void to_sparse_form() {
    if (form == Format::sparse) return;
    SparseStore s = sparse_form_copy();
    *this = std::move(s);
  }

  /// The sparse-form equivalent of this store, built without disturbing it.
  /// Matrices in a dense form serve kernels through this copy.
  [[nodiscard]] SparseStore sparse_form_copy() const {
    SparseStore s(vdim);
    s.hyper = false;
    if (form == Format::sparse) {
      s = *this;
      return s;
    }
    const Index cnt = nnz();
    s.p.reserve(static_cast<std::size_t>(vdim) + 1);
    s.i.reserve(cnt);
    s.x.reserve(cnt);
    s.p.clear();
    s.p.push_back(0);
    for (Index k = 0; k < vdim; ++k) {
      if ((k & 255) == 0) platform::governor_poll();
      for (Index j = 0; j < mdim; ++j) {
        const std::size_t sl = slot(k, j);
        if (slot_present(sl)) {
          s.i.push_back(j);
          s.x.push_back(x[sl]);
        }
      }
      s.p.push_back(static_cast<Index>(s.i.size()));
    }
    return s;
  }

  /// Build the opposite-orientation store. `minor_dim` is this store's
  /// minor dimension, which becomes the result's major dimension. Two
  /// strategies:
  ///   * bucket transpose, O(e + dims) — the classic, used when an O(dims)
  ///     pointer array is affordable;
  ///   * sort transpose, O(e log e) with hypersparse output — used when the
  ///     dimension dwarfs the entry count (a hypersparse matrix must stay
  ///     O(e) through *every* operation, including reorientation).
  [[nodiscard]] SparseStore transposed(Index minor_dim) const {
    if (form != Format::sparse) return transposed_dense();
    if (minor_dim / 4 > nnz() + 1) return transposed_sorting(minor_dim);
    const std::size_t nv = static_cast<std::size_t>(nvec());

    // The bucket sort is stable on major order, so splitting the major
    // vectors into chunks, histogramming per chunk, and scattering each
    // chunk through its own cursor slice reproduces the serial output
    // exactly — chunk c's slots in any column precede chunk c+1's. The
    // store's own pointer array is the cost prefix. Each chunk's histogram
    // costs O(minor_dim) memory, so shrink the chunk count until the
    // histograms stay proportional to the entry count.
    std::size_t nchunks = platform::chunk_count(nv, nnz());
    while (nchunks > 1 &&
           static_cast<std::uint64_t>(nchunks) * minor_dim >
               2 * static_cast<std::uint64_t>(nnz()) + 4096) {
      --nchunks;
    }

    SparseStore out(minor_dim);
    out.hyper = false;
    if (nchunks <= 1) {
      out.p.assign(minor_dim + 1, 0);
      for (Index e : i) out.p[e]++;
      platform::exclusive_scan(out.p);  // overflow-checked CSR pointer build
      out.i.resize(i.size());
      out.x.resize(x.size());
      Buf<Index> cursor(out.p.begin(), out.p.end() - 1);
      for (Index k = 0; k < nvec(); ++k) {
        if ((k & 255) == 0) platform::governor_poll();
        Index major = vec_id(k);
        for (Index pos = p[k]; pos < p[k + 1]; ++pos) {
          Index slot = cursor[i[pos]]++;
          out.i[slot] = major;
          out.x[slot] = x[pos];
        }
      }
      return out;
    }

    const std::span<const Index> costs(p.data(), nv + 1);
    const std::size_t md = static_cast<std::size_t>(minor_dim);
    auto hist_h = platform::Workspace::checkout<detail::ws_transpose_hist,
                                                Index>(nchunks * md);
    auto& hist = *hist_h;

    // Phase 1: per-chunk column histograms (disjoint slices).
    platform::parallel_balanced_chunks_n(
        costs, nchunks, [&](std::size_t c, std::size_t klo, std::size_t khi) {
          Index* h_c = hist.data() + c * md;
          for (std::size_t k = klo; k < khi; ++k) {
            if ((k & 255) == 0) platform::governor_poll();
            for (Index pos = p[k]; pos < p[k + 1]; ++pos) ++h_c[i[pos]];
          }
        });

    // Phase 2: column totals -> pointer array, then turn each chunk's
    // histogram row into its absolute write cursor for that column.
    out.p.assign(minor_dim + 1, 0);
    platform::parallel_for(md, [&](std::size_t e) {
      Index total = 0;
      for (std::size_t c = 0; c < nchunks; ++c) total += hist[c * md + e];
      out.p[e] = total;
    });
    platform::exclusive_scan(out.p);  // overflow-checked CSR pointer build
    platform::parallel_for(md, [&](std::size_t e) {
      Index run = out.p[e];
      for (std::size_t c = 0; c < nchunks; ++c) {
        Index cnt = hist[c * md + e];
        hist[c * md + e] = run;
        run += cnt;
      }
    });

    // Phase 3: scatter; each chunk advances only its own cursors. Values are
    // staged (see unstage()): a chunk's slots interleave with the others'.
    out.i.resize(i.size());
    Buf<storage_t<T>> ox(x.size());
    platform::parallel_balanced_chunks_n(
        costs, nchunks, [&](std::size_t c, std::size_t klo, std::size_t khi) {
          Index* cur = hist.data() + c * md;
          for (std::size_t k = klo; k < khi; ++k) {
            if ((k & 255) == 0) platform::governor_poll();
            Index major = vec_id(static_cast<Index>(k));
            for (Index pos = p[k]; pos < p[k + 1]; ++pos) {
              Index slot = cur[i[pos]]++;
              out.i[slot] = major;
              ox[slot] = x[pos];
            }
          }
        });
    out.x = unstage<T>(std::move(ox));
    return out;
  }

 private:
  /// Dense-form transpose: a straight slot permutation, form-preserving.
  [[nodiscard]] SparseStore transposed_dense() const {
    SparseStore out(mdim);
    out.hyper = false;
    Buf<Index>().swap(out.p);
    out.mdim = vdim;
    out.x.resize(static_cast<std::size_t>(vdim) * mdim);
    if (form == Format::bitmap) out.b.assign(out.x.size(), 0);
    platform::parallel_for(static_cast<std::size_t>(mdim), [&](std::size_t j) {
      for (Index k = 0; k < vdim; ++k) {
        const std::size_t src = slot(k, static_cast<Index>(j));
        out.x[j * vdim + k] = x[src];
        if (form == Format::bitmap) out.b[j * vdim + k] = b[src];
      }
    });
    out.bnvals = bnvals;
    out.form = form;
    return out;
  }

  [[nodiscard]] SparseStore transposed_sorting(Index minor_dim) const {
    auto t_h = platform::Workspace::checkout<detail::ws_transpose_sort,
                                             std::tuple<Index, Index, T>>();
    auto& t = *t_h;
    t.reserve(nnz());
    for (Index k = 0; k < nvec(); ++k) {
      if ((k & 255) == 0) platform::governor_poll();
      Index major = vec_id(k);
      for (Index pos = p[k]; pos < p[k + 1]; ++pos) {
        t.emplace_back(i[pos], major, x[pos]);
      }
    }
    std::sort(t.begin(), t.end(), [](const auto& a, const auto& b) {
      return std::get<0>(a) < std::get<0>(b) ||
             (std::get<0>(a) == std::get<0>(b) &&
              std::get<1>(a) < std::get<1>(b));
    });
    SparseStore out(minor_dim);  // empty hypersparse
    out.i.reserve(t.size());
    out.x.reserve(t.size());
    Index prev = all_indices;
    for (const auto& [major, minor, val] : t) {
      if (major != prev) {
        if (prev != all_indices) {
          out.p.push_back(static_cast<Index>(out.i.size()));
        }
        out.h.push_back(major);
        prev = major;
      }
      out.i.push_back(minor);
      out.x.push_back(val);
    }
    if (prev != all_indices) {
      out.p.push_back(static_cast<Index>(out.i.size()));
    }
    return out;
  }
};

}  // namespace gb
