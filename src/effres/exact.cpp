#include "effres/exact.hpp"

#include <stdexcept>

#include "chol/cholesky.hpp"
#include "graph/laplacian.hpp"
#include "parallel/thread_pool.hpp"

namespace er {

ExactEffRes::ExactEffRes(const Graph& g, Ordering ordering)
    : n_(g.num_nodes()) {
  const CscMatrix lg = grounded_laplacian(g);
  factor_ = cholesky(lg, ordering);
}

real_t ExactEffRes::resistance_with(CholFactor::Workspace& ws, index_t p,
                                    index_t q) const {
  if (p < 0 || p >= n_ || q < 0 || q >= n_)
    throw std::out_of_range("ExactEffRes::resistance: node out of range");
  return factor_.resistance(p, q, ws);
}

real_t ExactEffRes::resistance(index_t p, index_t q) const {
  // Thread-safe without per-call allocation: each thread reuses one
  // workspace across queries (the reach kernel leaves it all-zero).
  static thread_local CholFactor::Workspace ws;
  return resistance_with(ws, p, q);
}

void ExactEffRes::resistances_into(const std::vector<ResistanceQuery>& queries,
                                   std::vector<real_t>& out,
                                   ThreadPool* pool) const {
  if (out.size() < queries.size())
    throw std::invalid_argument("resistances_into: output under-sized");
  parallel_for(pool, 0, static_cast<index_t>(queries.size()), kBatchQueryGrain,
               [&](index_t lo, index_t hi) {
                 CholFactor::Workspace ws;
                 for (index_t i = lo; i < hi; ++i) {
                   const auto& [p, q] = queries[static_cast<std::size_t>(i)];
                   out[static_cast<std::size_t>(i)] = resistance_with(ws, p, q);
                 }
               });
}

}  // namespace er
