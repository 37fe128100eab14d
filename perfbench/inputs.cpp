#include "inputs.hpp"

#include <stdexcept>

#include "lagraph/util/generator.hpp"

namespace perfbench {

double edge_weight(std::uint64_t seed, Index i, Index j) {
  const Index lo = std::min(i, j), hi = std::max(i, j);
  return 1.0 + static_cast<double>(mix64(mix64(seed ^ 0x77) ^ (lo << 32 ^ hi)) % 8);
}

gb::Matrix<double> weighted_rmat(int scale, int edge_factor, std::uint64_t seed,
                                 bool symmetric, double* rmat_s) {
  const auto t0 = Clock::now();
  gb::Matrix<double> a = lagraph::rmat(scale, edge_factor, seed, symmetric);
  if (rmat_s != nullptr) *rmat_s = ms_since(t0) / 1e3;
  std::vector<Index> r, c;
  std::vector<double> v;
  a.extract_tuples(r, c, v);
  for (std::size_t k = 0; k < r.size(); ++k) v[k] = edge_weight(seed, r[k], c[k]);
  gb::Matrix<double> out(a.nrows(), a.ncols());
  out.build(r, c, v, gb::Second{});
  return out;
}

gb::Matrix<double> unit_weights(const gb::Matrix<double>& a) {
  std::vector<Index> r, c;
  std::vector<double> v;
  a.extract_tuples(r, c, v);
  std::fill(v.begin(), v.end(), 1.0);
  gb::Matrix<double> out(a.nrows(), a.ncols());
  out.build(r, c, v, gb::Second{});
  return out;
}

gb::Matrix<double> perturb(const gb::Matrix<double>& base, std::uint64_t seed,
                           int k) {
  const Index n = base.nrows();
  std::vector<Index> r, c;
  std::vector<double> v;
  base.extract_tuples(r, c, v);
  std::vector<Index> kr, kc;
  std::vector<double> kv;
  kr.reserve(r.size());
  kc.reserve(r.size());
  kv.reserve(r.size());
  const std::uint64_t salt = mix64(seed ^ (0xabcdULL + static_cast<std::uint64_t>(k)));
  std::size_t dropped = 0;
  for (std::size_t e = 0; e < r.size(); ++e) {
    if (mix64(salt ^ (r[e] << 32 ^ c[e])) % 200 == 0) {
      ++dropped;
      continue;
    }
    kr.push_back(r[e]);
    kc.push_back(c[e]);
    kv.push_back(v[e]);
  }
  Rng rng(seed, 1000 + static_cast<std::uint64_t>(k));
  while (dropped > 0) {
    const Index i = rng.below(n), j = rng.below(n);
    if (i == j) continue;
    kr.push_back(i);
    kc.push_back(j);
    kv.push_back(edge_weight(seed, i, j));
    --dropped;
  }
  gb::Matrix<double> out(n, n);
  out.build(kr, kc, kv, gb::Second{});
  return out;
}

std::vector<Index> draw_sources(const std::vector<const gb::Matrix<double>*>& gs,
                                std::size_t k, Rng& rng) {
  const Index n = gs.front()->nrows();
  std::vector<std::uint8_t> ok(n, 1);
  for (const auto* g : gs) {
    std::vector<std::uint8_t> has(n, 0);
    std::vector<Index> r, c;
    std::vector<double> v;
    g->extract_tuples(r, c, v);
    for (Index i : r) has[i] = 1;
    for (Index i = 0; i < n; ++i) ok[i] &= has[i];
  }
  std::vector<Index> cand;
  for (Index i = 0; i < n; ++i) {
    if (ok[i]) cand.push_back(i);
  }
  if (cand.size() < k) throw std::runtime_error("too few vertices with out-edges");
  shuffle(cand, rng);
  cand.resize(k);
  return cand;
}

GrB_Matrix to_capi(const gb::Matrix<double>& a) {
  std::vector<Index> r, c;
  std::vector<double> v;
  a.extract_tuples(r, c, v);
  GrB_Matrix m = nullptr;
  if (GrB_Matrix_new(&m, a.nrows(), a.ncols()) != GrB_SUCCESS ||
      GrB_Matrix_build_FP64(m, r.data(), c.data(), v.data(), r.size(),
                            GrB_SECOND_FP64) != GrB_SUCCESS) {
    throw std::runtime_error("GrB_Matrix_build_FP64 failed");
  }
  return m;
}

}  // namespace perfbench
