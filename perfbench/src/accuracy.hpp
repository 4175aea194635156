// The effective-resistance accuracy every workload reports
// (er_rel_err_mean / er_rel_err_max): the resistances a user gets against
// an exact reference on the input graph, over a fixed sample.
#pragma once
#include <cstdint>
#include <utility>
#include <vector>

#include "reduction/network.hpp"
#include "util/types.hpp"

namespace er {
class ThreadPool;
}  // namespace er

namespace pb {

/// Seed of every accuracy sample (the Table I protocol's fixed seed), so
/// that the errors are properties of the code, not of the run's seed.
inline constexpr std::uint64_t kErrorSampleSeed = 7;

/// Relative errors |approx - exact| / exact over a sample.
struct RelErr {
  double mean = 0.0;
  double max = 0.0;
  std::size_t samples = 0;
  /// Every approximate value finite and every exact value positive.
  bool finite = true;
};
[[nodiscard]] RelErr relative_errors(const std::vector<er::real_t>& approx,
                                     const std::vector<er::real_t>& exact);

/// `count` distinct pairs p < q of `ports`, drawn with kErrorSampleSeed.
[[nodiscard]] std::vector<std::pair<er::index_t, er::index_t>>
fixed_port_pairs(const std::vector<er::index_t>& ports, std::size_t count);

/// (e_p - e_q)^T G^{-1} (e_p - e_q) for each pair, G the system matrix of
/// `net` (Laplacian plus shunts), through one complete Cholesky factor.
[[nodiscard]] std::vector<er::real_t> exact_port_resistances(
    const er::ConductanceNetwork& net,
    const std::vector<std::pair<er::index_t, er::index_t>>& pairs,
    er::ThreadPool* pool);

}  // namespace pb
