// alg3-er: the paper's Table I. Alg. 3 (ICT + Alg. 2 approximate inverse,
// droptol = epsilon = 1e-3) built and queried on every edge of a multilayer
// mesh and of a Barabasi-Albert graph; accuracy against ExactEffRes on
// 1000 seeded edges per graph, outside the timed region.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "accuracy.hpp"
#include "approxinv/approx_inverse.hpp"
#include "approxinv/depth.hpp"
#include "chol/ichol.hpp"
#include "common.hpp"
#include "effres/approx_chol.hpp"
#include "effres/exact.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "obs/metrics.hpp"
#include "order/mindeg.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace pb {

namespace {

using er::index_t;
using er::real_t;

constexpr std::size_t kErrorSamples = 1000;  // per graph, as in Table I

struct Case {
  std::string name;
  er::Graph graph;
  std::vector<er::ResistanceQuery> queries;  // every edge
};

/// One graph's Alg. 3 build plus its all-edge queries.
struct Pass {
  double build_s = 0.0;
  double total_s = 0.0;
  std::vector<real_t> answers;
};

/// Untraced pass through the public engine, as a user calls it.
Pass engine_pass(const Case& c, er::ThreadPool& pool) {
  Pass p;
  const double t0 = now_seconds();
  const er::ApproxCholEffRes engine(c.graph);
  const double t1 = now_seconds();
  p.answers.assign(c.queries.size(), 0.0);
  engine.resistances_into(c.queries, p.answers, &pool);
  const double t2 = now_seconds();
  p.build_s = t1 - t0;
  p.total_s = t2 - t0;
  return p;
}

struct LayerCounts {
  double factor_nnz = 0.0;
  double inverse_nnz = 0.0;
  double inverse_bytes = 0.0;
  double max_depth = 0.0;
  double entries_merged = 0.0;
};

/// Traced pass: the same computation as ApproxCholEffRes, issued layer by
/// layer so that each call gets its own span.
Pass layered_pass(const Case& c, er::ThreadPool& pool, LayerCounts* counts) {
  Pass p;
  const double t0 = now_seconds();
  ScopedSpan root("alg3.pass");
  er::CscMatrix lg;
  {
    ScopedSpan s("graph.grounded_laplacian");
    lg = er::grounded_laplacian(c.graph);
  }
  std::vector<index_t> perm;
  {
    ScopedSpan s("order.mindeg");
    perm = er::compute_ordering(lg, er::Ordering::kMinDeg);
  }
  er::CholFactor factor;
  {
    ScopedSpan s("chol.ichol");
    er::IcholOptions ic;
    ic.droptol = er::ApproxCholOptions{}.droptol;
    factor = er::ichol(lg, perm, ic);
  }
  index_t depth = 0;
  {
    ScopedSpan s("approxinv.depth");
    depth = er::max_filled_graph_depth(factor);
  }
  er::ApproxInverse z;
  {
    ScopedSpan s("approxinv.build");
    er::ApproxInverseOptions zi;
    zi.epsilon = er::ApproxCholOptions{}.epsilon;
    z = er::ApproxInverse::build(factor, zi);
  }
  const double t1 = now_seconds();
  p.answers.assign(c.queries.size(), 0.0);
  {
    ScopedSpan s("effres.query");
    er::parallel_for(
        &pool, 0, static_cast<index_t>(c.queries.size()),
        er::kBatchQueryGrain, [&](index_t lo, index_t hi) {
          for (index_t i = lo; i < hi; ++i) {
            const auto [u, v] = c.queries[static_cast<std::size_t>(i)];
            p.answers[static_cast<std::size_t>(i)] =
                u == v ? 0.0
                       : z.column_distance_squared(
                             factor.inv_perm[static_cast<std::size_t>(u)],
                             factor.inv_perm[static_cast<std::size_t>(v)]);
          }
        });
  }
  const double t2 = now_seconds();
  p.build_s = t1 - t0;
  p.total_s = t2 - t0;

  counts->factor_nnz += static_cast<double>(factor.nnz());
  counts->inverse_nnz += static_cast<double>(z.nnz());
  // Computed resident size of Z: row index + value per entry, plus the
  // per-column offset and length arrays.
  counts->inverse_bytes +=
      static_cast<double>(z.nnz()) * (sizeof(index_t) + sizeof(real_t)) +
      static_cast<double>(z.dimension()) *
          (sizeof(std::size_t) + sizeof(index_t));
  counts->max_depth = std::max(counts->max_depth, static_cast<double>(depth));
  for (const auto& [u, v] : c.queries) {
    if (u == v) continue;
    counts->entries_merged += static_cast<double>(
        z.column_rows(factor.inv_perm[static_cast<std::size_t>(u)]).size() +
        z.column_rows(factor.inv_perm[static_cast<std::size_t>(v)]).size());
  }
  return p;
}

}  // namespace

Result run_alg3(const Args& args) {
  Result r;
  // The graphs are fixed (generator default seeds), so timings compare
  // across runs; the seed orders the all-edge query list.
  std::vector<Case> cases(2);
  cases[0].name = "mesh";
  cases[0].graph =
      er::multilayer_mesh(160, 160, 3, er::WeightKind::kLogUniform, 1);
  cases[1].name = "ba";
  cases[1].graph = er::barabasi_albert(12000, 3, er::WeightKind::kUnit, 1);
  std::mt19937_64 rng(args.seed);
  for (Case& c : cases) {
    c.queries = er::all_edge_queries(c.graph);
    std::shuffle(c.queries.begin(), c.queries.end(), rng);
  }
  note("mesh n=" + std::to_string(cases[0].graph.num_nodes()) +
       " m=" + std::to_string(cases[0].queries.size()) +
       ", ba n=" + std::to_string(cases[1].graph.num_nodes()) +
       " m=" + std::to_string(cases[1].queries.size()));

  er::obs::MetricsRegistry pool_reg;
  er::ThreadPool pool(kThreads, &pool_reg);

  if (args.setup_only) {
    double build = 0.0;
    for (std::size_t g = 0; g < cases.size(); ++g)
      build += engine_pass(cases[g], pool).build_s;
    r.attempted = 1;
    r.add("setup_s", build, "s");
    return r;
  }

  // Timed loop: whole Alg. 3 passes (build + every edge queried) over both
  // graphs until the time is up, at least two passes. In a traced run the
  // passes alternate between the engine and the layer-by-layer calls, at
  // least three, and the first (cold) pass is left out of the overhead.
  const int min_passes = args.trace ? 3 : 2;
  std::vector<double> setup_samples, total_samples;
  std::vector<double> untraced_totals, traced_totals;
  std::vector<std::vector<real_t>> first_answers(cases.size());
  LayerCounts counts;
  const er::obs::MetricsSnapshot pool_before = pool_reg.snapshot();
  const double t_start = now_seconds();
  for (int pass = 0;; ++pass) {
    const bool layered = args.trace && pass % 2 == 1;
    // Layer counts come from the first layered pass; later ones repeat it.
    LayerCounts scratch;
    LayerCounts* sink = layered && traced_totals.empty() ? &counts : &scratch;
    double build = 0.0, total = 0.0;
    for (std::size_t g = 0; g < cases.size(); ++g) {
      Pass p = layered ? layered_pass(cases[g], pool, sink)
                       : engine_pass(cases[g], pool);
      build += p.build_s;
      total += p.total_s;
      r.attempted += cases[g].queries.size();
      if (pass == 0) {
        first_answers[g] = std::move(p.answers);
      } else if (!same_bits(p.answers, first_answers[g])) {
        r.fail(cases[g].name + ": pass " + std::to_string(pass) +
               " answers differ bitwise from pass 0");
      }
    }
    setup_samples.push_back(build);
    total_samples.push_back(total);
    if (pass > 0 || !args.trace)
      (layered ? traced_totals : untraced_totals).push_back(total);
    note("pass " + std::to_string(pass) + (layered ? " (layered, traced)" : "") +
         ": build " + std::to_string(build) + " s, total " +
         std::to_string(total) + " s");
    if (pass + 1 >= min_passes && now_seconds() - t_start >= args.seconds)
      break;
  }
  const double loop_s = now_seconds() - t_start;
  const er::obs::MetricsSnapshot pool_after = pool_reg.snapshot();
  // Read before the exact reference below, whose factors are the check's,
  // not the workload's.
  const double peak_mb = peak_rss_mb();
  check(r, true, "all Alg. 3 passes bitwise-identical across " +
                     std::to_string(total_samples.size()) + " passes");

  // Accuracy (the paper's Ea / Em) against the exact engine, untimed, on
  // a fixed sample of 1000 edges per graph (the Table I protocol's fixed
  // seed), so Ea and Em are properties of the code, not of the run.
  std::vector<real_t> approx, ref;
  for (std::size_t g = 0; g < cases.size(); ++g) {
    const Case& c = cases[g];
    std::vector<std::size_t> order(c.queries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return c.queries[a] < c.queries[b];
    });
    std::mt19937_64 sample_rng(kErrorSampleSeed);
    std::uniform_int_distribution<std::size_t> pick(0, order.size() - 1);
    std::vector<er::ResistanceQuery> sample;
    for (std::size_t i = 0; i < kErrorSamples; ++i) {
      const std::size_t e = order[pick(sample_rng)];
      sample.push_back(c.queries[e]);
      approx.push_back(first_answers[g][e]);
    }
    const er::ExactEffRes exact(c.graph);
    std::vector<real_t> exact_answers(sample.size(), 0.0);
    exact.resistances_into(sample, exact_answers, &pool);
    ref.insert(ref.end(), exact_answers.begin(), exact_answers.end());
  }
  const RelErr err = relative_errors(approx, ref);
  check(r, err.finite, "approximate and exact resistances finite and positive");
  // Coarse sanity bounds (the paper reports Ea ~0.3%, Em ~3%): they catch a
  // broken engine, not a small accuracy drift, which Ea/Em report.
  check(r, err.mean < 0.05 && err.max < 0.5,
        "Ea " + std::to_string(err.mean) + " < 0.05 and Em " +
            std::to_string(err.max) + " < 0.5 over " +
            std::to_string(err.samples) + " seeded edges");

  if (args.trace) {
    const auto self = Tracer::global().self_seconds();
    auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    r.add("order.mindeg_s", self_of("order.mindeg"), "s");
    r.add("chol.ichol_s", self_of("chol.ichol"), "s");
    r.add("chol.factor_nnz", counts.factor_nnz, "count");
    r.add("approxinv.build_s", self_of("approxinv.build"), "s");
    r.add("approxinv.depth_s", self_of("approxinv.depth"), "s");
    r.add("approxinv.nnz", counts.inverse_nnz, "count");
    r.add("approxinv.bytes", counts.inverse_bytes, "bytes");
    r.add("approxinv.dpt", counts.max_depth, "count");
    r.add("effres.query_s", self_of("effres.query"), "s");
    r.add("effres.entries_merged", counts.entries_merged, "count");
    r.add("effres.queries",
          static_cast<double>(cases[0].queries.size() +
                              cases[1].queries.size()),
          "count");
    add_pool_metrics(r, pool_before, pool_after, kThreads, loop_s);
    add_trace_overhead(r, median(untraced_totals), median(traced_totals));
  } else {
    r.add("setup_s", median(setup_samples), "s");
    r.add("peak_rss_mb", peak_mb, "MiB");
    // One operation: an Alg. 3 pass, build plus all-edge queries, over
    // both graphs (the paper's T).
    r.add("op_p50_ms", 1e3 * median(total_samples), "ms");
    r.add("er_rel_err_mean", err.mean, "ratio");
    r.add("er_rel_err_max", err.max, "ratio");
  }
  return r;
}

}  // namespace pb
