#include "accuracy.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <set>

#include "chol/cholesky.hpp"
#include "parallel/thread_pool.hpp"

namespace pb {

RelErr relative_errors(const std::vector<er::real_t>& approx,
                       const std::vector<er::real_t>& exact) {
  RelErr e;
  double sum = 0.0;
  for (std::size_t i = 0; i < approx.size() && i < exact.size(); ++i) {
    if (!std::isfinite(approx[i]) || !(exact[i] > 0.0)) e.finite = false;
    const double rel = std::abs(approx[i] - exact[i]) / exact[i];
    sum += rel;
    e.max = std::max(e.max, rel);
    ++e.samples;
  }
  if (e.samples == 0) e.finite = false;
  e.mean = e.samples ? sum / static_cast<double>(e.samples) : 0.0;
  return e;
}

std::vector<std::pair<er::index_t, er::index_t>> fixed_port_pairs(
    const std::vector<er::index_t>& ports, std::size_t count) {
  std::mt19937_64 rng(kErrorSampleSeed);
  std::uniform_int_distribution<std::size_t> pick(0, ports.size() - 1);
  std::set<std::pair<er::index_t, er::index_t>> seen;
  std::vector<std::pair<er::index_t, er::index_t>> pairs;
  while (pairs.size() < count) {
    er::index_t p = ports[pick(rng)];
    er::index_t q = ports[pick(rng)];
    if (p == q) continue;
    if (p > q) std::swap(p, q);
    if (seen.insert({p, q}).second) pairs.emplace_back(p, q);
  }
  return pairs;
}

std::vector<er::real_t> exact_port_resistances(
    const er::ConductanceNetwork& net,
    const std::vector<std::pair<er::index_t, er::index_t>>& pairs,
    er::ThreadPool* pool) {
  const er::CholFactor factor = er::cholesky(net.system_matrix());
  std::vector<er::real_t> out(pairs.size(), 0.0);
  er::parallel_for(pool, 0, static_cast<er::index_t>(pairs.size()), 1,
                   [&](er::index_t lo, er::index_t hi) {
                     std::vector<er::real_t> b(
                         static_cast<std::size_t>(net.num_nodes()), 0.0);
                     for (er::index_t i = lo; i < hi; ++i) {
                       const auto [p, q] = pairs[static_cast<std::size_t>(i)];
                       std::fill(b.begin(), b.end(), 0.0);
                       b[static_cast<std::size_t>(p)] = 1.0;
                       b[static_cast<std::size_t>(q)] = -1.0;
                       const std::vector<er::real_t> x = factor.solve(b);
                       out[static_cast<std::size_t>(i)] =
                           x[static_cast<std::size_t>(p)] -
                           x[static_cast<std::size_t>(q)];
                     }
                   });
  return out;
}

}  // namespace pb
