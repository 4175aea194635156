// pg-reduce: the paper's Table II. Alg. 1 on an ibmpg6-like grid (32
// blocks, Alg. 3 effective resistances, kThreads threads): the cold first
// reduction of the process, repeated warm reductions, incremental updates
// with 10% of the blocks dirty, and a DC solve of the reduced and full
// grids.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "accuracy.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "pg/analysis.hpp"
#include "pg/generator.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"
#include "trace.hpp"

namespace pb {

namespace {

using er::index_t;

constexpr int kUpdates = 16;
constexpr er::real_t kDirtyFraction = 0.10;
constexpr std::size_t kErrorPairs = 256;  // port pairs in the ER accuracy

er::ReductionOptions reduction_options() {
  // The settings of bench_parallel_reduction, where the cold-reduction
  // slowdown was seen.
  er::ReductionOptions ro;
  ro.num_blocks = 32;
  ro.backend = er::ErBackend::kApproxChol;
  ro.sparsify_quality = 1.0;
  ro.parallel.num_threads = kThreads;
  return ro;
}

/// One Alg. 1 run issued step by step (the calls reduce_network makes), so
/// that the partition, every block and the stitch get their own spans.
struct LayeredRun {
  er::ReducedModel model;
  double wall_s = 0.0;
  double partition_s = 0.0;
  double stitch_s = 0.0;
  std::vector<double> block_s;  // per block, wall time of reduce_block
  double schur_s = 0.0, er_s = 0.0, sparsify_s = 0.0;  // program's fields
};

LayeredRun layered_reduce(const er::ConductanceNetwork& net,
                          const std::vector<char>& ports,
                          const er::ReductionOptions& ro,
                          er::ThreadPool* pool) {
  LayeredRun out;
  const double t0 = now_seconds();
  ScopedSpan root("reduction.run");
  er::BlockStructure structure;
  {
    ScopedSpan s("partition.build");
    structure = er::build_block_structure(net, ports, ro, pool);
  }
  const double t1 = now_seconds();
  std::vector<er::BlockReduced> blocks(
      static_cast<std::size_t>(structure.num_blocks));
  out.block_s.assign(blocks.size(), 0.0);
  {
    ScopedSpan s("reduction.blocks");
    const std::int64_t parent = s.id();
    er::parallel_for(pool, 0, structure.num_blocks, 1,
                     [&](index_t lo, index_t hi) {
                       for (index_t b = lo; b < hi; ++b) {
                         ScopedSpan bs("reduction.reduce_block", parent);
                         const double b0 = now_seconds();
                         blocks[static_cast<std::size_t>(b)] = er::reduce_block(
                             net, ports, structure, b, ro, pool);
                         out.block_s[static_cast<std::size_t>(b)] =
                             now_seconds() - b0;
                       }
                     });
  }
  const double t2 = now_seconds();
  {
    ScopedSpan s("reduction.stitch");
    out.model = er::stitch_blocks(net, structure, blocks, pool);
  }
  const double t3 = now_seconds();
  out.partition_s = t1 - t0;
  out.stitch_s = t3 - t2;
  out.wall_s = t3 - t0;
  for (const er::BlockReduced& b : blocks) {
    out.schur_s += b.schur_seconds;
    out.er_s += b.er_seconds;
    out.sparsify_s += b.sparsify_seconds;
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

Result run_pg_reduce(const Args& args) {
  Result r;
  // The grid is fixed (the preset's own seed), so timings compare across
  // runs; the seed picks the dirty blocks of the incremental updates.
  std::mt19937_64 rng(args.seed);
  const er::PowerGrid pg =
      er::generate_power_grid(er::ibmpg_like_preset(6, 1.0));
  const er::ConductanceNetwork net = pg.to_network();
  const std::vector<char> ports = pg.port_mask();
  const er::ReductionOptions ro = reduction_options();
  note("grid n=" + std::to_string(pg.num_nodes) +
       " resistors=" + std::to_string(pg.resistors.size()) +
       " ports=" + std::to_string(pg.port_nodes().size()));

  // DC analysis (the paper's Table II error): the reduced model against
  // the full solve, relative to the maximum drop.
  const std::vector<er::real_t> loads = pg.load_vector(0.0);
  const auto dc_error_pct = [&](const er::ConductanceNetwork& grid,
                                const er::ReducedModel& model) {
    const er::DcSolution full = er::solve_dc(grid, loads);
    const er::DcSolution reduced =
        er::solve_dc(model.network, er::map_injections(model, loads));
    return 100.0 *
           er::compare_dc(full.drops, reduced, model, pg.port_nodes()).rel;
  };

  if (args.trace) {
    // Cold layered reduction first: nothing runs before it in the process.
    er::obs::MetricsRegistry pool_reg;
    er::ThreadPool pool(kThreads, &pool_reg);
    const LayeredRun cold = layered_reduce(net, ports, ro, &pool);
    // Warm passes alternate layered (traced) and reduce_network
    // (untraced) for the overhead figure.
    std::vector<LayeredRun> warm;
    std::vector<double> untraced;
    const er::obs::MetricsSnapshot pool_before = pool_reg.snapshot();
    double warm_wall = 0.0;
    const double t_start = now_seconds();
    while (warm.size() < 2 || now_seconds() - t_start < args.seconds) {
      warm.push_back(layered_reduce(net, ports, ro, &pool));
      warm_wall += warm.back().wall_s;
      const double u0 = now_seconds();
      const er::ReducedModel m = er::reduce_network(net, ports, ro);
      untraced.push_back(now_seconds() - u0);
      r.attempted += 2;
      if (!er::models_identical(m, warm.back().model))
        r.fail("layered reduction differs from reduce_network");
    }
    const er::obs::MetricsSnapshot pool_after = pool_reg.snapshot();
    check(r, er::models_identical(cold.model, warm.front().model),
          "cold and warm layered reductions identical");
    // The same reduction on one thread: the base of cpu_inflation.
    const LayeredRun serial = layered_reduce(net, ports, ro, nullptr);
    check(r, er::models_identical(serial.model, cold.model),
          "1-thread and " + std::to_string(kThreads) +
              "-thread reductions identical");

    // Incremental updates through the program's reducer; its stitch_update
    // time comes from the span histogram the program exports.
    er::IncrementalReducer reducer(net, ports, ro);
    const er::obs::MetricsSnapshot span_before =
        er::obs::MetricsRegistry::global().snapshot();
    er::ConductanceNetwork current = net;
    std::vector<double> updates;
    for (int u = 0; u < kUpdates; ++u) {
      const er::GridModification mod = er::random_modification(
          reducer.structure().num_blocks, kDirtyFraction, 1.3, rng());
      current = er::apply_modification(current, reducer.structure(), mod);
      ScopedSpan s("reduction.update");
      const double u0 = now_seconds();
      reducer.update(current, mod.dirty_blocks);
      updates.push_back(now_seconds() - u0);
      ++r.attempted;
    }
    const er::obs::MetricsSnapshot span_after =
        er::obs::MetricsRegistry::global().snapshot();
    const auto stage_sum = [&](const er::obs::MetricsSnapshot& snap,
                               const char* stage) {
      const auto* e = snap.find("er_span_seconds", {{"stage", stage}});
      return e ? e->histogram.sum : 0.0;
    };

    std::vector<double> block_work, block_max, partition, stitch, schur, er_s,
        sparsify;
    for (const LayeredRun& w : warm) {
      block_work.push_back(sum(w.block_s));
      block_max.push_back(*std::max_element(w.block_s.begin(), w.block_s.end()));
      partition.push_back(w.partition_s);
      stitch.push_back(w.stitch_s);
      schur.push_back(w.schur_s);
      er_s.push_back(w.er_s);
      sparsify.push_back(w.sparsify_s);
    }
    const double serial_work = sum(serial.block_s);
    r.add("partition.build_s", median(partition), "s");
    r.add("reduction.block_work_s", median(block_work), "s");
    r.add("reduction.block_max_s", median(block_max), "s");
    r.add("reduction.schur_s", median(schur), "s");
    r.add("reduction.er_s", median(er_s), "s");
    r.add("reduction.sparsify_s", median(sparsify), "s");
    r.add("reduction.stitch_s", median(stitch), "s");
    r.add("reduction.stitch_update_s",
          (stage_sum(span_after, "stitch_update") -
           stage_sum(span_before, "stitch_update")) / kUpdates,
          "s");
    r.add("reduction.incr_update_s", median(updates), "s");
    r.add("reduction.dc_err_pct", dc_error_pct(net, cold.model), "%");
    r.add("reduction.cpu_inflation", median(block_work) / serial_work, "ratio");
    r.add("reduction.cpu_inflation_cold", sum(cold.block_s) / serial_work,
          "ratio");
    r.add("reduction.block_work_cold_s", sum(cold.block_s), "s");
    r.add("reduction.block_work_1t_s", serial_work, "s");
    r.add("reduction.cold_wall_s", cold.wall_s, "s");
    r.add("reduction.reduced_nodes",
          static_cast<double>(cold.model.stats.reduced_nodes), "count");
    r.add("reduction.reduced_edges",
          static_cast<double>(cold.model.stats.reduced_edges), "count");
    add_pool_metrics(r, pool_before, pool_after, kThreads, warm_wall);
    add_trace_overhead(r, median(untraced),
                       warm_wall / static_cast<double>(warm.size()));
    return r;
  }

  // Set-up: the cold first reduction of the process (IncrementalReducer
  // runs the whole of Alg. 1 and keeps the per-block cache).
  const double s0 = now_seconds();
  er::IncrementalReducer reducer(net, ports, ro);
  const double setup_s = now_seconds() - s0;
  ++r.attempted;
  note("cold first reduction " + std::to_string(setup_s) + " s");
  if (args.setup_only) {
    r.add("setup_s", setup_s, "s");
    return r;
  }

  std::vector<double> warm;
  const double t_start = now_seconds();
  bool identical = true;
  while (warm.size() < 2 || now_seconds() - t_start < args.seconds) {
    const double w0 = now_seconds();
    const er::ReducedModel m = er::reduce_network(net, ports, ro);
    warm.push_back(now_seconds() - w0);
    ++r.attempted;
    identical = identical && er::models_identical(m, reducer.model());
  }
  check(r, identical, "models_identical across the cold and " +
                          std::to_string(warm.size()) + " warm reductions");

  // The DC error of the initial grid's model and of the grid after the
  // updates, checked.
  const double dc_err_pct = dc_error_pct(net, reducer.model());
  check(r, dc_err_pct > 0.0 && dc_err_pct < 5.0,
        "DC port-voltage error " + std::to_string(dc_err_pct) +
            "% of the maximum drop (< 5%)");

  // ER accuracy: port-pair resistances of the initial grid's reduced model,
  // taken before the updates change it, against the full grid's (below).
  const std::vector<std::pair<index_t, index_t>> pairs =
      fixed_port_pairs(pg.port_nodes(), kErrorPairs);
  std::vector<std::pair<index_t, index_t>> reduced_pairs;
  bool mapped = true;
  for (const auto& [p, q] : pairs) {
    const index_t rp = reducer.model().node_map[static_cast<std::size_t>(p)];
    const index_t rq = reducer.model().node_map[static_cast<std::size_t>(q)];
    mapped = mapped && rp >= 0 && rq >= 0;
    reduced_pairs.emplace_back(std::max<index_t>(rp, 0),
                               std::max<index_t>(rq, 0));
  }
  check(r, mapped, "every sampled port kept by the reduction");
  er::ThreadPool check_pool(kThreads);
  const std::vector<er::real_t> reduced_resistances = exact_port_resistances(
      reducer.model().network, reduced_pairs, &check_pool);

  std::vector<double> updates;
  er::ConductanceNetwork current = net;
  for (int u = 0; u < kUpdates; ++u) {
    const er::GridModification mod = er::random_modification(
        reducer.structure().num_blocks, kDirtyFraction, 1.3, rng());
    current = er::apply_modification(current, reducer.structure(), mod);
    const double u0 = now_seconds();
    reducer.update(current, mod.dirty_blocks);
    updates.push_back(now_seconds() - u0);
    ++r.attempted;
  }
  const double dc_updated_pct = dc_error_pct(current, reducer.model());
  check(r, dc_updated_pct < 5.0,
        "DC error after " + std::to_string(kUpdates) + " updates " +
            std::to_string(dc_updated_pct) + "% (< 5%)");
  // Read before the full grid's exact resistances, whose factor is the
  // check's.
  const double peak_mb = peak_rss_mb();

  const RelErr err = relative_errors(
      reduced_resistances, exact_port_resistances(net, pairs, &check_pool));
  // A coarse sanity bound (the reduction measures ~7% mean, ~40% max on
  // these grids): it catches a broken model, not a drift, which the
  // metrics report.
  check(r, err.finite && err.mean < 0.25,
        "reduced-model port resistances finite, mean relative error " +
            std::to_string(err.mean) + " < 0.25 over " +
            std::to_string(err.samples) + " fixed port pairs");

  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_mb, "MiB");
  // One operation: a warm full reduction (the paper's T_red).
  r.add("op_p50_ms", 1e3 * median(warm), "ms");
  r.add("er_rel_err_mean", err.mean, "ratio");
  r.add("er_rel_err_max", err.max, "ratio");
  return r;
}

}  // namespace pb
