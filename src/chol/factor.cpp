#include "chol/factor.hpp"

#include <algorithm>
#include <stdexcept>

#include "order/mindeg.hpp"

namespace er {

namespace {

/// Union of the elimination-tree paths from columns a and b to their roots,
/// in ascending order. Each path is increasing, so advancing whichever walk
/// is at the smaller column emits the union already sorted, with no marks
/// and no sort. Once the walks meet they share the rest of the path; in a
/// forest they may never meet.
void union_reach(const CholFactor& f, index_t a, index_t b,
                 std::vector<index_t>& reach) {
  reach.clear();
  while (a >= 0 || b >= 0) {
    index_t j = 0;
    if (a == b) {
      j = a;
      a = b = f.etree_parent(j);
    } else if (b < 0 || (a >= 0 && a < b)) {
      j = a;
      a = f.etree_parent(a);
    } else {
      j = b;
      b = f.etree_parent(b);
    }
    reach.push_back(j);
  }
}

}  // namespace

real_t CholFactor::inverse_entry(index_t p, index_t q, Workspace& ws) const {
  const index_t pp = inv_perm[static_cast<std::size_t>(p)];
  const index_t qq = inv_perm[static_cast<std::size_t>(q)];
  // All-zero between calls, so growing to n keeps the invariant.
  ws.y0.resize(static_cast<std::size_t>(n));
  ws.y1.resize(static_cast<std::size_t>(n));
  union_reach(*this, pp, qq, ws.reach);
  real_t* y0 = ws.y0.data();
  real_t* y1 = ws.y1.data();
  y0[pp] = 1.0;
  y1[qq] = 1.0;
  // Every row of column j is an etree ancestor of j, so every write below
  // lands inside the reach, later in it, and is zeroed when consumed. Where
  // the two paths have not met yet, one of the two columns is still zero and
  // only the other is updated; the rule is symmetric in (y0, y1), which
  // keeps the answer bitwise symmetric in (p, q).
  const index_t* rows = row_ind.data();
  const real_t* vals = values.data();
  real_t dot = 0.0;
  for (const index_t j : ws.reach) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(j)];
    const offset_t end = col_ptr[static_cast<std::size_t>(j) + 1];
    const real_t d = vals[begin];
    const real_t a = y0[j] / d;
    const real_t b = y1[j] / d;
    y0[j] = 0.0;
    y1[j] = 0.0;
    if (b == 0.0) {
      if (a == 0.0) continue;
      for (offset_t k = begin + 1; k < end; ++k) y0[rows[k]] -= vals[k] * a;
    } else if (a == 0.0) {
      for (offset_t k = begin + 1; k < end; ++k) y1[rows[k]] -= vals[k] * b;
    } else {
      dot += a * b;
      for (offset_t k = begin + 1; k < end; ++k) {
        y0[rows[k]] -= vals[k] * a;
        y1[rows[k]] -= vals[k] * b;
      }
    }
  }
  return dot;
}

real_t CholFactor::resistance(index_t p, index_t q, Workspace& ws) const {
  if (p == q) {
    ws.reach.clear();
    return 0.0;
  }
  const index_t pp = inv_perm[static_cast<std::size_t>(p)];
  const index_t qq = inv_perm[static_cast<std::size_t>(q)];
  ws.y0.resize(static_cast<std::size_t>(n));
  union_reach(*this, pp, qq, ws.reach);
  real_t* y = ws.y0.data();
  y[pp] = 1.0;
  y[qq] = -1.0;
  const index_t* rows = row_ind.data();
  const real_t* vals = values.data();
  real_t sum = 0.0;
  for (const index_t j : ws.reach) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(j)];
    const offset_t end = col_ptr[static_cast<std::size_t>(j) + 1];
    const real_t yj = y[j] / vals[begin];
    y[j] = 0.0;
    sum += yj * yj;
    for (offset_t k = begin + 1; k < end; ++k) y[rows[k]] -= vals[k] * yj;
  }
  return sum;
}

void CholFactor::forward_solve(std::vector<real_t>& x) const {
  if (x.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("forward_solve: size mismatch");
  for (index_t j = 0; j < n; ++j) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(j)];
    const offset_t end = col_ptr[static_cast<std::size_t>(j) + 1];
    const real_t xj = x[static_cast<std::size_t>(j)] /
                      values[static_cast<std::size_t>(begin)];
    x[static_cast<std::size_t>(j)] = xj;
    if (xj == 0.0) continue;
    for (offset_t p = begin + 1; p < end; ++p)
      x[static_cast<std::size_t>(row_ind[static_cast<std::size_t>(p)])] -=
          values[static_cast<std::size_t>(p)] * xj;
  }
}

void CholFactor::backward_solve(std::vector<real_t>& x) const {
  if (x.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("backward_solve: size mismatch");
  for (index_t j = n; j-- > 0;) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(j)];
    const offset_t end = col_ptr[static_cast<std::size_t>(j) + 1];
    real_t s = x[static_cast<std::size_t>(j)];
    for (offset_t p = begin + 1; p < end; ++p)
      s -= values[static_cast<std::size_t>(p)] *
           x[static_cast<std::size_t>(row_ind[static_cast<std::size_t>(p)])];
    x[static_cast<std::size_t>(j)] = s / values[static_cast<std::size_t>(begin)];
  }
}

std::vector<real_t> CholFactor::solve(const std::vector<real_t>& b) const {
  if (b.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("CholFactor::solve: size mismatch");
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] =
        b[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  forward_solve(x);
  backward_solve(x);
  std::vector<real_t> out(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    out[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
        x[static_cast<std::size_t>(i)];
  return out;
}

CscMatrix CholFactor::to_csc() const {
  TripletMatrix t(n, n);
  t.reserve(static_cast<std::size_t>(nnz()));
  for (index_t j = 0; j < n; ++j)
    for (offset_t p = col_ptr[static_cast<std::size_t>(j)];
         p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p)
      t.add(row_ind[static_cast<std::size_t>(p)], j,
            values[static_cast<std::size_t>(p)]);
  return CscMatrix::from_triplets(t);
}

bool CholFactor::check_invariants() const {
  if (col_ptr.size() != static_cast<std::size_t>(n) + 1) return false;
  if (!is_permutation(perm) || !is_permutation(inv_perm)) return false;
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  for (index_t j = 0; j < n; ++j) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(j)];
    const offset_t end = col_ptr[static_cast<std::size_t>(j) + 1];
    if (begin >= end) return false;  // at least the diagonal
    if (row_ind[static_cast<std::size_t>(begin)] != j) return false;
    if (values[static_cast<std::size_t>(begin)] <= 0.0) return false;
    for (offset_t p = begin + 1; p < end; ++p) {
      if (row_ind[static_cast<std::size_t>(p)] <= j) return false;
      if (p > begin + 1 &&
          row_ind[static_cast<std::size_t>(p - 1)] >=
              row_ind[static_cast<std::size_t>(p)])
        return false;
    }
  }
  return true;
}

}  // namespace er
