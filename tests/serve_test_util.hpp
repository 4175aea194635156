// Shared fixtures of the serving test suites (test_serving.cpp,
// test_async_updater.cpp, test_result_cache.cpp, test_query_policy.cpp,
// test_net_daemon.cpp): a small gridded ConductanceNetwork with random
// ports/pad shunts, mixed response/resistance query batches over its
// surviving nodes, the independent solve_dc reference answers, the
// AsyncUpdater<->IncrementalReducer wiring, and deterministic
// modification streams.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "pg/analysis.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"
#include "serve/async_updater.hpp"
#include "serve/query_frontend.hpp"
#include "util/rng.hpp"

namespace er {

struct ServeCase {
  ConductanceNetwork net;
  std::vector<char> ports;
};

/// nx-by-ny uniform grid with `nports` random ports, the first four of
/// which get pad shunts (so the stitched system is SPD).
inline ServeCase make_case(index_t nx, index_t ny, index_t nports,
                           std::uint64_t seed) {
  ServeCase c;
  c.net.graph = grid_2d(nx, ny, WeightKind::kUniform, seed);
  const index_t n = nx * ny;
  c.net.shunts.assign(static_cast<std::size_t>(n), 0.0);
  c.ports.assign(static_cast<std::size_t>(n), 0);
  Rng rng(seed + 1);
  index_t placed = 0;
  while (placed < nports) {
    const index_t v = rng.uniform_int(n);
    if (c.ports[static_cast<std::size_t>(v)]) continue;
    c.ports[static_cast<std::size_t>(v)] = 1;
    if (placed < 4) c.net.shunts[static_cast<std::size_t>(v)] = 50.0;
    ++placed;
  }
  return c;
}

/// Original node ids that survive the reduction.
inline std::vector<index_t> kept_originals(const ReducedModel& model) {
  std::vector<index_t> kept;
  for (std::size_t v = 0; v < model.node_map.size(); ++v)
    if (model.node_map[v] >= 0) kept.push_back(static_cast<index_t>(v));
  return kept;
}

/// Mixed batch over surviving original nodes: alternating response /
/// resistance queries on random pairs (naturally mixing intra- and
/// cross-block routing).
inline std::vector<PortQuery> mixed_batch(const std::vector<index_t>& nodes,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::vector<PortQuery> batch;
  batch.reserve(count);
  Rng rng(seed);
  const auto n = static_cast<index_t>(nodes.size());
  for (std::size_t i = 0; i < count; ++i) {
    PortQuery query;
    query.kind = i % 2 == 0 ? QueryKind::kResistance : QueryKind::kResponse;
    query.p = nodes[static_cast<std::size_t>(rng.uniform_int(n))];
    query.q = nodes[static_cast<std::size_t>(rng.uniform_int(n))];
    batch.push_back(query);
  }
  return batch;
}

/// Independent exact reference for a batch on `model`: every query is its
/// own solve_dc on the stitched network (a fresh factorization, a dense
/// right-hand side), never the serving snapshot. Response Z(p, q) is the
/// drop at q under a unit injection at p; resistance R(p, q) is the drop
/// difference under +1 at p, -1 at q. Eliminated or out-of-range
/// endpoints answer NaN, like the front-end.
inline std::vector<real_t> dc_reference(const ReducedModel& model,
                                        const std::vector<PortQuery>& batch) {
  const auto reduced = [&model](index_t v) {
    return v >= 0 && static_cast<std::size_t>(v) < model.node_map.size()
               ? model.node_map[static_cast<std::size_t>(v)]
               : index_t{-1};
  };
  std::vector<real_t> out;
  out.reserve(batch.size());
  for (const PortQuery& query : batch) {
    const index_t p = reduced(query.p), q = reduced(query.q);
    if (p < 0 || q < 0) {
      out.push_back(std::numeric_limits<real_t>::quiet_NaN());
      continue;
    }
    std::vector<real_t> inject(
        static_cast<std::size_t>(model.network.num_nodes()), 0.0);
    inject[static_cast<std::size_t>(p)] += 1.0;
    if (query.kind == QueryKind::kResistance)
      inject[static_cast<std::size_t>(q)] -= 1.0;
    const std::vector<real_t> d = solve_dc(model.network, inject).drops;
    out.push_back(query.kind == QueryKind::kResponse
                      ? d[static_cast<std::size_t>(q)]
                      : d[static_cast<std::size_t>(p)] -
                            d[static_cast<std::size_t>(q)]);
  }
  return out;
}

/// Every answer within 1e-8 relative of the reference (NaN where the
/// reference is NaN).
inline void expect_matches_reference(const std::vector<real_t>& got,
                                     const std::vector<real_t>& want,
                                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << what << " query " << i;
      continue;
    }
    EXPECT_LE(std::abs(got[i] - want[i]), 1e-8 * std::abs(want[i]))
        << what << " query " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Bitwise equality of two answer vectors (NaN payloads included).
inline bool same_bits(const std::vector<real_t>& a,
                      const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

/// The AsyncUpdater <-> IncrementalReducer wiring used throughout: the
/// worker applies the batch through the reducer (whose attached store
/// publishes the snapshot) and reports the resulting revision.
inline AsyncUpdater::UpdateFn bind_reducer(IncrementalReducer& reducer) {
  return [&reducer](const ConductanceNetwork& net,
                    const std::vector<index_t>& dirty) {
    reducer.update(net, dirty);
    return reducer.revision();
  };
}

/// A deterministic modification stream: nets[u] is the *cumulative*
/// network state after mods[0..u] (the AsyncUpdater submission contract —
/// each submitted network already contains every earlier modification).
struct ModStream {
  std::vector<ConductanceNetwork> nets;
  std::vector<GridModification> mods;
};

/// Build `count` random modifications over `base`, seeded seed0+1..
/// seed0+count. `structure` must be captured from the reducer *before*
/// any update runs (IncrementalReducer::structure() mutates during
/// update(), so the submitter snapshots the routing info up front).
inline ModStream make_mod_stream(const ConductanceNetwork& base,
                                 const BlockStructure& structure, int count,
                                 real_t fraction, real_t scale,
                                 std::uint64_t seed0) {
  ModStream stream;
  ConductanceNetwork current = base;
  for (int u = 1; u <= count; ++u) {
    const GridModification mod =
        random_modification(structure.num_blocks, fraction, scale,
                            seed0 + static_cast<std::uint64_t>(u));
    current = apply_modification(current, structure, mod);
    stream.nets.push_back(current);
    stream.mods.push_back(mod);
  }
  return stream;
}

}  // namespace er
