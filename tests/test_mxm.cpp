// mxm: Gustavson, dot, and heap must all agree with the dense mimic across
// semirings, masks (plain / complemented / structural), and transposes —
// the "6 functions x all semirings" expansion of §II-A.
#include <gtest/gtest.h>

#include "lagraph/util/check.hpp"
#include "test_common.hpp"

using namespace testutil;
using gb::Index;
using gb::MxmMethod;

namespace {

const std::vector<MxmMethod> kMethods = {MxmMethod::gustavson, MxmMethod::dot,
                                         MxmMethod::heap};

}  // namespace

class MxmSweep : public ::testing::TestWithParam<int> {};

TEST_P(MxmSweep, AllMethodsMatchMimicUnmasked) {
  std::uint64_t seed = 3100 + GetParam() * 97;
  auto a = random_matrix(12, 12, 0.3, seed);
  auto b = random_matrix(12, 12, 0.3, seed + 1);
  auto da = ref::from_gb(a);
  auto db = ref::from_gb(b);

  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      gb::Descriptor d;
      d.transpose_a = ta;
      d.transpose_b = tb;
      ref::DenseMat<double> expect(12, 12);
      ref::mxm(expect, static_cast<const ref::DenseMat<bool>*>(nullptr),
               static_cast<const gb::Plus*>(nullptr), gb::plus_times<double>(),
               da, db, d);
      for (auto method : kMethods) {
        d.mxm = method;
        gb::Matrix<double> c(12, 12);
        auto used = gb::mxm(c, gb::no_mask, gb::no_accum,
                            gb::plus_times<double>(), a, b, d);
        EXPECT_EQ(used, method);
        EXPECT_TRUE(ref::equal(expect, c))
            << "method=" << static_cast<int>(method) << " ta=" << ta
            << " tb=" << tb;
      }
    }
  }
}

TEST_P(MxmSweep, MaskedVariantsMatchMimic) {
  std::uint64_t seed = 3300 + GetParam() * 101;
  auto a = random_matrix(10, 10, 0.35, seed);
  auto b = random_matrix(10, 10, 0.35, seed + 1);
  auto da = ref::from_gb(a);
  auto db = ref::from_gb(b);

  for (auto d : mask_descriptor_sweep()) {
    auto m = random_matrix(10, 10, 0.4, seed + 2);
    auto dm = ref::from_gb(m);
    for (auto method : kMethods) {
      d.mxm = method;
      gb::Matrix<double> c = random_matrix(10, 10, 0.2, seed + 3);
      auto dc = ref::from_gb(c);
      gb::Plus acc;
      gb::mxm(c, m, acc, gb::plus_times<double>(), a, b, d);
      ref::mxm(dc, &dm, &acc, gb::plus_times<double>(), da, db, d);
      EXPECT_TRUE(ref::equal(dc, c))
          << desc_name(d) << " method=" << static_cast<int>(method);
    }
  }
}

TEST_P(MxmSweep, SemiringVariety) {
  std::uint64_t seed = 3500 + GetParam() * 103;
  auto a = random_matrix(9, 9, 0.4, seed);
  auto b = random_matrix(9, 9, 0.4, seed + 1);
  auto da = ref::from_gb(a);
  auto db = ref::from_gb(b);

  auto run = [&](auto sr, const char* name) {
    ref::DenseMat<double> expect(9, 9);
    ref::mxm(expect, static_cast<const ref::DenseMat<bool>*>(nullptr),
             static_cast<const gb::Plus*>(nullptr), sr, da, db,
             gb::desc_default);
    for (auto method : kMethods) {
      gb::Descriptor d;
      d.mxm = method;
      gb::Matrix<double> c(9, 9);
      gb::mxm(c, gb::no_mask, gb::no_accum, sr, a, b, d);
      EXPECT_TRUE(ref::equal(expect, c))
          << name << " method=" << static_cast<int>(method);
    }
  };
  run(gb::min_plus<double>(), "min_plus");
  run(gb::max_times<double>(), "max_times");
  run(gb::plus_first<double>(), "plus_first");
  run(gb::plus_second<double>(), "plus_second");
  run(gb::min_max<double>(), "min_max");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MxmSweep, ::testing::Range(0, 4));

TEST(Mxm, PlusPairCountsIntersections) {
  // plus_pair is the triangle-count semiring: C(i,j) = |A(i,:) ∩ B(:,j)|.
  gb::Matrix<double> a(3, 3);
  a.set_element(0, 0, 5.0);
  a.set_element(0, 1, 6.0);
  a.set_element(0, 2, 7.0);
  gb::Matrix<double> b(3, 3);
  b.set_element(0, 0, 9.0);
  b.set_element(1, 0, 9.0);
  gb::Matrix<std::int64_t> c(3, 3);
  gb::mxm(c, gb::no_mask, gb::no_accum, gb::plus_pair<std::int64_t>(), a, b);
  EXPECT_EQ(c.extract_element(0, 0).value(), 2);
}

TEST(Mxm, BooleanSemiringMaskedMatchesMimic) {
  // lor_land over bool (Fig. 2's LogicalSemiring). Buf<bool> is bit-packed,
  // so this is the one element type whose scratch and output slots are
  // proxies; every method must still compile and match the mimic.
  auto to_bool = [](const gb::Matrix<double>& x) {
    gb::Matrix<bool> out(x.nrows(), x.ncols());
    gb::apply(out, gb::no_mask, gb::no_accum, [](double v) { return v > 0; },
              x);
    return out;
  };
  auto a = to_bool(random_matrix(16, 16, 0.25, 71));
  auto m = random_matrix(16, 16, 0.4, 72);
  auto da = ref::from_gb(a);
  auto dm = ref::from_gb(m);
  for (auto d : mask_descriptor_sweep()) {
    ref::DenseMat<bool> expect(16, 16);
    ref::mxm(expect, &dm, static_cast<const gb::Lor*>(nullptr),
             gb::lor_land(), da, da, d);
    for (auto method : kMethods) {
      d.mxm = method;
      gb::Matrix<bool> c(16, 16);
      gb::mxm(c, m, gb::no_accum, gb::lor_land(), a, a, d);
      EXPECT_TRUE(ref::equal(expect, c))
          << desc_name(d) << " method=" << static_cast<int>(method);
    }
  }
}

TEST(Mxm, MaskedDotVisitsOnlyMaskEntries) {
  auto a = random_matrix(30, 30, 0.3, 55);
  auto b = random_matrix(30, 30, 0.3, 56);
  gb::Matrix<bool> m(30, 30);
  m.set_element(4, 7, true);
  m.set_element(21, 2, true);

  gb::Descriptor d = gb::desc_s;
  d.mxm = MxmMethod::dot;
  gb::Matrix<double> c(30, 30);
  gb::mxm(c, m, gb::no_accum, gb::plus_times<double>(), a, b, d);

  // Result pattern is a subset of the mask's.
  std::vector<Index> r, cc;
  std::vector<double> v;
  c.extract_tuples(r, cc, v);
  for (std::size_t k = 0; k < r.size(); ++k) {
    EXPECT_TRUE((r[k] == 4 && cc[k] == 7) || (r[k] == 21 && cc[k] == 2));
  }
  // And matches Gustavson under the same mask.
  d.mxm = MxmMethod::gustavson;
  gb::Matrix<double> c2(30, 30);
  gb::mxm(c2, m, gb::no_accum, gb::plus_times<double>(), a, b, d);
  EXPECT_TRUE(lagraph::isequal(c, c2));
}

TEST(Mxm, AutoPrefersDotForSparseMask) {
  auto a = random_matrix(40, 40, 0.2, 57);
  auto b = random_matrix(40, 40, 0.2, 58);
  gb::Matrix<bool> m(40, 40);
  m.set_element(0, 0, true);
  gb::Matrix<double> c(40, 40);
  auto used = gb::mxm(c, m, gb::no_accum, gb::plus_times<double>(), a, b,
                      gb::desc_s);
  EXPECT_EQ(used, MxmMethod::dot);

  gb::Matrix<double> c2(40, 40);
  auto used2 = gb::mxm(c2, gb::no_mask, gb::no_accum, gb::plus_times<double>(),
                       a, b);
  EXPECT_EQ(used2, MxmMethod::gustavson);
}

TEST(Mxm, RectangularShapes) {
  auto a = random_matrix(4, 7, 0.5, 60);
  auto b = random_matrix(7, 5, 0.5, 61);
  auto da = ref::from_gb(a);
  auto db = ref::from_gb(b);
  ref::DenseMat<double> expect(4, 5);
  ref::mxm(expect, static_cast<const ref::DenseMat<bool>*>(nullptr),
           static_cast<const gb::Plus*>(nullptr), gb::plus_times<double>(), da,
           db, gb::desc_default);
  for (auto method : kMethods) {
    gb::Descriptor d;
    d.mxm = method;
    gb::Matrix<double> c(4, 5);
    gb::mxm(c, gb::no_mask, gb::no_accum, gb::plus_times<double>(), a, b, d);
    EXPECT_TRUE(ref::equal(expect, c));
  }
  gb::Matrix<double> bad(5, 5);
  EXPECT_THROW(gb::mxm(bad, gb::no_mask, gb::no_accum,
                       gb::plus_times<double>(), a, b),
               gb::Error);
}

TEST(Mxm, MaskOfWrongShapeIsDimensionMismatch) {
  // The masked kernels index n-wide scratch by the mask's column ids, so a
  // mask that does not match C is refused before any kernel runs — for
  // every method and mask kind, and wider masks included.
  auto a = random_matrix(8, 8, 0.5, 80);
  const std::pair<Index, Index> shapes[] = {{8, 12}, {12, 8}, {4, 8}, {8, 4}};
  for (auto [mr, mc] : shapes) {
    auto mask = random_matrix(mr, mc, 0.6, 81);
    for (bool comp : {false, true}) {
      for (auto method : kMethods) {
        gb::Descriptor d;
        d.mask_complement = comp;
        d.mxm = method;
        gb::Matrix<double> c(8, 8);
        try {
          gb::mxm(c, mask, gb::no_accum, gb::plus_times<double>(), a, a, d);
          ADD_FAILURE() << "accepted a " << mr << "x" << mc << " mask";
        } catch (const gb::Error& e) {
          EXPECT_EQ(e.info(), gb::Info::dimension_mismatch) << e.what();
        }
        EXPECT_EQ(c.nvals(), 0u);
      }
    }
  }
}

TEST(Mxm, KroneckerMatchesMimic) {
  auto a = random_matrix(3, 4, 0.5, 70);
  auto b = random_matrix(2, 5, 0.5, 71);
  auto da = ref::from_gb(a);
  auto db = ref::from_gb(b);
  gb::Matrix<double> c(6, 20);
  gb::kronecker(c, gb::no_mask, gb::no_accum, gb::Times{}, a, b);
  ref::DenseMat<double> dc(6, 20);
  ref::kronecker(dc, static_cast<const ref::DenseMat<bool>*>(nullptr),
                 static_cast<const gb::Plus*>(nullptr), gb::Times{}, da, db,
                 gb::desc_default);
  EXPECT_TRUE(ref::equal(dc, c));
}
