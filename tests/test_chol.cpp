// Tests for chol: complete factorization vs dense reference, solve accuracy,
// incomplete Cholesky (droptol behaviour, M-matrix robustness, shift
// fallback), triangular solves, factor invariants, and the
// elimination-tree-reach kernels (inverse_entry / resistance) against full
// solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "chol/cholesky.hpp"
#include "chol/ichol.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "sparse/dense.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

CscMatrix random_sdd(index_t n, std::size_t extra_edges, std::uint64_t seed) {
  const Graph g = erdos_renyi(n, extra_edges, WeightKind::kUniform, seed);
  return grounded_laplacian(g);
}

/// Max |P A P^T - L L^T| entry.
real_t factor_residual(const CscMatrix& a, const CholFactor& f) {
  const CscMatrix ap = a.permute_symmetric(f.perm);
  const CscMatrix l = f.to_csc();
  const auto ld = l.to_dense();
  const index_t n = a.cols();
  real_t worst = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      real_t acc = 0.0;
      for (index_t k = 0; k < n; ++k)
        acc += ld[static_cast<std::size_t>(k) * n + i] *
               ld[static_cast<std::size_t>(k) * n + j];
      worst = std::max(worst, std::abs(acc - ap.at(i, j)));
    }
  return worst;
}

TEST(Cholesky, FactorsSmallSddMatrix) {
  const CscMatrix a = random_sdd(25, 60, 1);
  for (auto ord : {Ordering::kNatural, Ordering::kRcm, Ordering::kMinDeg}) {
    const CholFactor f = cholesky(a, ord);
    EXPECT_TRUE(f.check_invariants());
    EXPECT_LT(factor_residual(a, f), 1e-10);
  }
}

TEST(Cholesky, MatchesDenseFactorNaturalOrder) {
  const CscMatrix a = random_sdd(15, 40, 2);
  const CholFactor f = cholesky(a, identity_permutation(a.cols()));
  DenseMatrix d(a.rows(), a.cols(), a.to_dense());
  ASSERT_TRUE(d.cholesky_in_place());
  const CscMatrix l = f.to_csc();
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = j; i < a.rows(); ++i)
      EXPECT_NEAR(l.at(i, j), d(i, j), 1e-10);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const CscMatrix a = random_sdd(80, 220, 3);
  Rng rng(4);
  std::vector<real_t> x_true(static_cast<std::size_t>(a.cols()));
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  const auto b = a.multiply(x_true);
  const CholFactor f = cholesky(a, Ordering::kMinDeg);
  const auto x = f.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, -1.0);
  const CscMatrix a = CscMatrix::from_triplets(t);
  EXPECT_THROW(cholesky(a, Ordering::kNatural), std::runtime_error);
}

TEST(Cholesky, ThrowsOnBadPermutation) {
  const CscMatrix a = random_sdd(10, 20, 5);
  std::vector<index_t> bad{0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(cholesky(a, bad), std::invalid_argument);
}

TEST(Cholesky, TriangularSolvesInvertEachOther) {
  const CscMatrix a = random_sdd(50, 140, 6);
  const CholFactor f = cholesky(a, Ordering::kMinDeg);
  Rng rng(7);
  std::vector<real_t> x(static_cast<std::size_t>(a.cols()));
  for (auto& v : x) v = rng.uniform(-1, 1);
  // L (L^{-1} x) == x via forward solve then multiply by L.
  std::vector<real_t> y = x;
  f.forward_solve(y);
  const CscMatrix l = f.to_csc();
  const auto ly = l.multiply(y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(ly[i], x[i], 1e-10);
  // Same for backward with L^T.
  std::vector<real_t> z = x;
  f.backward_solve(z);
  std::vector<real_t> ltz;
  l.multiply_transpose(z, ltz);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(ltz[i], x[i], 1e-10);
}

TEST(Cholesky, LaplacianFactorSignStructure) {
  // For SDD M-matrices the factor has positive diagonal and nonpositive
  // off-diagonals ([19]; the property Lemma 1 builds on).
  const Graph g = grid_2d(8, 8, WeightKind::kUniform, 8);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, Ordering::kMinDeg);
  for (index_t j = 0; j < f.n; ++j) {
    const offset_t b = f.col_ptr[static_cast<std::size_t>(j)];
    const offset_t e = f.col_ptr[static_cast<std::size_t>(j) + 1];
    EXPECT_GT(f.values[static_cast<std::size_t>(b)], 0.0);
    for (offset_t k = b + 1; k < e; ++k)
      EXPECT_LE(f.values[static_cast<std::size_t>(k)], 1e-14);
  }
}

TEST(Ichol, ZeroDroptolEqualsCompleteFactor) {
  const CscMatrix a = random_sdd(40, 110, 9);
  const auto perm = compute_ordering(a, Ordering::kMinDeg);
  const CholFactor full = cholesky(a, perm);
  IcholOptions opts;
  opts.droptol = 0.0;
  const CholFactor inc = ichol(a, perm, opts);
  ASSERT_EQ(full.nnz(), inc.nnz());
  const auto lf = full.to_csc().to_dense();
  const auto li = inc.to_csc().to_dense();
  for (std::size_t i = 0; i < lf.size(); ++i) EXPECT_NEAR(lf[i], li[i], 1e-10);
}

TEST(Ichol, DroppingReducesFill) {
  const Graph g = grid_2d(20, 20, WeightKind::kUniform, 10);
  const CscMatrix lg = grounded_laplacian(g);
  const auto perm = compute_ordering(lg, Ordering::kMinDeg);
  IcholOptions loose, tight;
  loose.droptol = 1e-1;
  tight.droptol = 0.0;
  const CholFactor lf = ichol(lg, perm, loose);
  const CholFactor tf = ichol(lg, perm, tight);
  EXPECT_LT(lf.nnz(), tf.nnz());
}

TEST(Ichol, PreconditionerQualityImprovesWithSmallerDroptol) {
  // Residual of M^{-1}A applied to a vector should shrink as droptol -> 0.
  const CscMatrix a = random_sdd(100, 280, 11);
  const auto perm = compute_ordering(a, Ordering::kMinDeg);
  Rng rng(12);
  std::vector<real_t> b(static_cast<std::size_t>(a.cols()));
  for (auto& v : b) v = rng.uniform(-1, 1);

  real_t prev_err = 1e30;
  for (real_t droptol : {1e-1, 1e-2, 1e-4, 0.0}) {
    IcholOptions opts;
    opts.droptol = droptol;
    const CholFactor f = ichol(a, perm, opts);
    const auto x = f.solve(b);
    const auto ax = a.multiply(x);
    real_t err = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) err += std::abs(ax[i] - b[i]);
    EXPECT_LT(err, prev_err + 1e-12);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-8);  // droptol 0 is the complete factor -> exact
}

TEST(Ichol, MMatrixNeverNeedsShift) {
  // SDD M-matrices (grounded Laplacians) factor without breakdown at any
  // droptol; validate invariants across a droptol sweep.
  const Graph g = barabasi_albert(150, 3, WeightKind::kUniform, 13);
  const CscMatrix lg = grounded_laplacian(g);
  const auto perm = compute_ordering(lg, Ordering::kMinDeg);
  for (real_t droptol : {0.0, 1e-4, 1e-3, 1e-2, 1e-1}) {
    IcholOptions opts;
    opts.droptol = droptol;
    const CholFactor f = ichol(lg, perm, opts);
    EXPECT_TRUE(f.check_invariants());
  }
}

TEST(Ichol, FactorSignStructureOnLaplacian) {
  const Graph g = grid_2d(10, 10, WeightKind::kLogUniform, 14);
  const CscMatrix lg = grounded_laplacian(g);
  IcholOptions opts;
  opts.droptol = 1e-3;
  const CholFactor f = ichol(lg, Ordering::kMinDeg, opts);
  for (index_t j = 0; j < f.n; ++j) {
    const offset_t b = f.col_ptr[static_cast<std::size_t>(j)];
    const offset_t e = f.col_ptr[static_cast<std::size_t>(j) + 1];
    EXPECT_GT(f.values[static_cast<std::size_t>(b)], 0.0);
    for (offset_t k = b + 1; k < e; ++k)
      EXPECT_LE(f.values[static_cast<std::size_t>(k)], 1e-14);
  }
}

TEST(Ichol, RejectsNegativeDroptol) {
  const CscMatrix a = random_sdd(10, 20, 15);
  IcholOptions opts;
  opts.droptol = -1.0;
  EXPECT_THROW(ichol(a, Ordering::kNatural, opts), std::invalid_argument);
}

class CholOrderingSweep : public ::testing::TestWithParam<Ordering> {};

TEST_P(CholOrderingSweep, SolveAccuracyAcrossGraphFamilies) {
  const Ordering ord = GetParam();
  const std::vector<Graph> graphs = {
      grid_2d(9, 7, WeightKind::kUniform, 21),
      grid_3d(4, 4, 4, WeightKind::kUniform, 22),
      barabasi_albert(90, 2, WeightKind::kUniform, 23),
      watts_strogatz(80, 3, 0.2, WeightKind::kUniform, 24),
  };
  for (const auto& g : graphs) {
    const CscMatrix lg = grounded_laplacian(g);
    Rng rng(25);
    std::vector<real_t> x_true(static_cast<std::size_t>(lg.cols()));
    for (auto& v : x_true) v = rng.uniform(-1, 1);
    const auto b = lg.multiply(x_true);
    const CholFactor f = cholesky(lg, ord);
    const auto x = f.solve(b);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_NEAR(x[i], x_true[i], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, CholOrderingSweep,
                         ::testing::Values(Ordering::kNatural, Ordering::kRcm,
                                           Ordering::kMinDeg));

// --- Elimination-tree-reach kernels -------------------------------------

std::vector<real_t> unit(index_t n, index_t i, real_t v = 1.0) {
  std::vector<real_t> e(static_cast<std::size_t>(n), 0.0);
  e[static_cast<std::size_t>(i)] = v;
  return e;
}

/// (A^{-1})_{pq} and (e_p - e_q)^T A^{-1} (e_p - e_q) by full solves.
real_t full_inverse_entry(const CholFactor& f, index_t p, index_t q) {
  return f.solve(unit(f.n, q))[static_cast<std::size_t>(p)];
}

real_t full_resistance(const CholFactor& f, index_t p, index_t q) {
  std::vector<real_t> b = unit(f.n, p);
  b[static_cast<std::size_t>(q)] -= 1.0;
  const std::vector<real_t> x = f.solve(b);
  return x[static_cast<std::size_t>(p)] - x[static_cast<std::size_t>(q)];
}

real_t rel_diff(real_t got, real_t want) {
  return std::abs(got - want) / std::max(std::abs(want), 1e-300);
}

/// Columns on the elimination-tree path from permuted column j to its root.
std::vector<index_t> etree_path(const CholFactor& f, index_t j) {
  std::vector<index_t> path;
  for (; j >= 0; j = f.etree_parent(j)) path.push_back(j);
  return path;
}

/// The reach the kernels must leave in ws.reach for original nodes p, q:
/// the union of both etree paths, ascending.
std::vector<index_t> expected_reach(const CholFactor& f, index_t p, index_t q) {
  std::set<index_t> reach;
  for (index_t node : {p, q})
    for (index_t j :
         etree_path(f, f.inv_perm[static_cast<std::size_t>(node)]))
      reach.insert(j);
  return {reach.begin(), reach.end()};
}

bool all_zero(const std::vector<real_t>& v) {
  return std::all_of(v.begin(), v.end(), [](real_t x) { return x == 0.0; });
}

/// Two grids with no edge between them: grounded_laplacian puts one shunt
/// in each component, so the etree is a two-tree forest.
CscMatrix two_component_sdd() {
  const Graph a = grid_2d(5, 4, WeightKind::kUniform, 41);
  const Graph b = grid_2d(4, 6, WeightKind::kUniform, 42);
  Graph g(a.num_nodes() + b.num_nodes());
  for (const auto& e : a.edges()) g.add_edge(e.u, e.v, e.weight);
  for (const auto& e : b.edges())
    g.add_edge(e.u + a.num_nodes(), e.v + a.num_nodes(), e.weight);
  return grounded_laplacian(g);
}

class CholReach : public ::testing::TestWithParam<Ordering> {};

TEST_P(CholReach, EveryPairMatchesFullSolve) {
  const CholFactor f = cholesky(random_sdd(40, 100, 31), GetParam());
  CholFactor::Workspace ws;
  for (index_t p = 0; p < f.n; ++p)
    for (index_t q = 0; q < f.n; ++q) {
      EXPECT_LT(rel_diff(f.inverse_entry(p, q, ws), full_inverse_entry(f, p, q)),
                1e-12)
          << p << "," << q;
      EXPECT_EQ(ws.reach, expected_reach(f, p, q));
      if (p == q) {
        EXPECT_EQ(f.resistance(p, q, ws), 0.0);
        continue;
      }
      EXPECT_LT(rel_diff(f.resistance(p, q, ws), full_resistance(f, p, q)),
                1e-12)
          << p << "," << q;
      EXPECT_EQ(ws.reach, expected_reach(f, p, q));
    }
}

TEST_P(CholReach, AncestorPairWalksOnePath) {
  const CholFactor f = cholesky(random_sdd(60, 150, 32), GetParam());
  CholFactor::Workspace ws;
  for (index_t qq = 0; qq < f.n; qq += 7) {
    const std::vector<index_t> path = etree_path(f, qq);
    const index_t q = f.perm[static_cast<std::size_t>(qq)];
    for (std::size_t k = 1; k < path.size(); k += 3) {
      const index_t p = f.perm[static_cast<std::size_t>(path[k])];
      EXPECT_LT(rel_diff(f.inverse_entry(p, q, ws), full_inverse_entry(f, p, q)),
                1e-12);
      EXPECT_EQ(ws.reach, path);  // p's path is the tail of q's
      EXPECT_LT(rel_diff(f.resistance(p, q, ws), full_resistance(f, p, q)),
                1e-12);
      EXPECT_EQ(ws.reach, path);
    }
  }
}

TEST_P(CholReach, CrossComponentPairsNeverMeet) {
  const CholFactor f = cholesky(two_component_sdd(), GetParam());
  const index_t first_b = 20;  // nodes [0, 20) and [20, 44)
  CholFactor::Workspace ws;
  for (index_t p = 0; p < first_b; p += 3)
    for (index_t q = first_b; q < f.n; q += 5) {
      EXPECT_EQ(f.inverse_entry(p, q, ws), 0.0);
      const std::size_t reach_p =
          etree_path(f, f.inv_perm[static_cast<std::size_t>(p)]).size();
      const std::size_t reach_q =
          etree_path(f, f.inv_perm[static_cast<std::size_t>(q)]).size();
      EXPECT_EQ(ws.reach.size(), reach_p + reach_q);  // disjoint paths
      EXPECT_EQ(ws.reach, expected_reach(f, p, q));
      const real_t want =
          full_inverse_entry(f, p, p) + full_inverse_entry(f, q, q);
      EXPECT_LT(rel_diff(f.resistance(p, q, ws), want), 1e-12);
      EXPECT_LT(rel_diff(f.resistance(p, q, ws), full_resistance(f, p, q)),
                1e-12);
    }
  // Within one component the answers stay the ordinary ones.
  EXPECT_LT(rel_diff(f.inverse_entry(1, 7, ws), full_inverse_entry(f, 1, 7)),
            1e-12);
  EXPECT_LT(rel_diff(f.resistance(25, 40, ws), full_resistance(f, 25, 40)),
            1e-12);
}

TEST_P(CholReach, ResponseIsBitwiseSymmetric) {
  const CholFactor f = cholesky(random_sdd(50, 130, 33), GetParam());
  CholFactor::Workspace ws;
  for (index_t p = 0; p < f.n; ++p)
    for (index_t q = p + 1; q < f.n; ++q) {
      const real_t pq = f.inverse_entry(p, q, ws);
      const real_t qp = f.inverse_entry(q, p, ws);
      EXPECT_EQ(pq, qp) << p << "," << q;
      EXPECT_EQ(f.resistance(p, q, ws), f.resistance(q, p, ws));
    }
}

TEST_P(CholReach, WorkspaceIsAllZeroAfterEveryCall) {
  // One workspace reused across factors of different sizes and both
  // kernels must answer bitwise like a fresh workspace every time.
  const CholFactor big = cholesky(random_sdd(45, 120, 34), GetParam());
  const CholFactor small = cholesky(random_sdd(12, 25, 35), GetParam());
  CholFactor::Workspace reused;
  Rng rng(36);
  for (int i = 0; i < 300; ++i) {
    const CholFactor& f = (i % 3 == 2) ? small : big;
    const auto p = rng.uniform_int(f.n);
    const auto q = rng.uniform_int(f.n);
    CholFactor::Workspace fresh;
    if (i % 2 == 0) {
      EXPECT_EQ(f.inverse_entry(p, q, reused), f.inverse_entry(p, q, fresh));
    } else {
      EXPECT_EQ(f.resistance(p, q, reused), f.resistance(p, q, fresh));
    }
    EXPECT_TRUE(all_zero(reused.y0)) << "call " << i;
    EXPECT_TRUE(all_zero(reused.y1)) << "call " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, CholReach,
                         ::testing::Values(Ordering::kNatural, Ordering::kRcm,
                                           Ordering::kMinDeg));

}  // namespace
}  // namespace er
