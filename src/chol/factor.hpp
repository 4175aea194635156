// Cholesky factor container shared by the complete and incomplete
// factorizations, plus triangular solves.
//
// Storage layout: CSC with the *diagonal entry first* in every column,
// followed by the off-diagonal rows in increasing order. This is the layout
// the up-looking factorization produces naturally and the layout Alg. 2
// (approximate inverse) consumes directly.
//
// The factor lives in *permuted* space: it factors P A P^T where
// perm[new] = old. Callers either work in permuted coordinates
// (approximate-inverse columns) or use solve(), which applies the
// permutations on the way in and out.
//
// Bilinear forms u^T A^{-1} v with one or two nonzeros per side (a single
// inverse entry, an effective resistance) need neither the backward solve
// nor most of the forward one: with P A P^T = L L^T,
// u^T A^{-1} v = (L^{-1} P u) . (L^{-1} P v), and L^{-1} e_j is nonzero
// only on the elimination-tree path from j to its root (Gilbert & Peierls
// 1988; Davis 2006, cs_reach / cs_spsolve). inverse_entry() and
// resistance() run that forward solve over the union of two such paths.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace er {

struct CholFactor {
  /// Caller-owned scratch of the reach kernels (inverse_entry,
  /// resistance). Between calls y0 and y1 are all zero: a kernel zeroes each
  /// entry as it consumes it, so one workspace serves any number of queries
  /// at O(reach) cost each. Reuse one per thread; never share one across
  /// threads.
  struct Workspace {
    std::vector<real_t> y0, y1;  ///< forward-solve columns (n each)
    std::vector<index_t> reach;  ///< last query's union reach, ascending
  };

  index_t n = 0;
  std::vector<offset_t> col_ptr;  // size n+1
  std::vector<index_t> row_ind;   // diagonal first per column
  std::vector<real_t> values;
  std::vector<index_t> perm;      // new -> old
  std::vector<index_t> inv_perm;  // old -> new

  [[nodiscard]] offset_t nnz() const {
    return col_ptr.empty() ? 0 : col_ptr.back();
  }

  /// L(j, j); columns store the diagonal first.
  [[nodiscard]] real_t diag(index_t j) const {
    return values[static_cast<std::size_t>(col_ptr[static_cast<std::size_t>(j)])];
  }

  /// Elimination-tree parent of column j: its first off-diagonal row, or -1
  /// for a root.
  [[nodiscard]] index_t etree_parent(index_t j) const {
    const offset_t first = col_ptr[static_cast<std::size_t>(j)] + 1;
    return first < col_ptr[static_cast<std::size_t>(j) + 1]
               ? row_ind[static_cast<std::size_t>(first)]
               : -1;
  }

  /// x := L^{-1} x (permuted space).
  void forward_solve(std::vector<real_t>& x) const;

  /// x := L^{-T} x (permuted space).
  void backward_solve(std::vector<real_t>& x) const;

  /// Solve A x = b in original coordinates (applies perm / inv_perm).
  [[nodiscard]] std::vector<real_t> solve(const std::vector<real_t>& b) const;

  /// (A^{-1})_{pq} in original coordinates, by one forward solve of the two
  /// columns e_p, e_q over their union elimination-tree reach (left in
  /// ws.reach). Bitwise symmetric in (p, q). Requires a complete factor
  /// (cholesky()), whose column patterns lie on the elimination-tree paths;
  /// an ichol() factor with dropped entries does not qualify.
  [[nodiscard]] real_t inverse_entry(index_t p, index_t q, Workspace& ws) const;

  /// (e_p - e_q)^T A^{-1} (e_p - e_q) = ||L^{-1} P (e_p - e_q)||^2 in
  /// original coordinates, by one forward solve over the same union reach;
  /// 0 when p == q. Same factor requirement as inverse_entry().
  [[nodiscard]] real_t resistance(index_t p, index_t q, Workspace& ws) const;

  /// Approximate resident size in bytes (CSC arrays + permutations) — the
  /// unit of the serving layer's per-publish build-cost accounting.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return col_ptr.size() * sizeof(offset_t) +
           row_ind.size() * sizeof(index_t) + values.size() * sizeof(real_t) +
           (perm.size() + inv_perm.size()) * sizeof(index_t);
  }

  /// Row-sorted CSC copy of L (tests and diagnostics).
  [[nodiscard]] CscMatrix to_csc() const;

  /// Verify structural invariants (diag-first layout, sorted tails, perm).
  [[nodiscard]] bool check_invariants() const;
};

}  // namespace er
