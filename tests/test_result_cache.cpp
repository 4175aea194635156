// Result-cache tests (DESIGN.md §4.2). Four contracts:
//
//   (a) cached answers are bitwise identical to uncached ones over
//       randomized query/publish interleavings, on every route, at
//       1/2/4/8 pool threads, bitwise identical across thread counts, and
//       within 1e-8 of the independent solve_dc reference,
//   (b) concurrent readers through a cache-attached store stay
//       bit-consistent per pinned version while a publisher churns
//       (runs under TSan in CI),
//   (c) each version has one scope: a publish leaves the previous
//       version's entries unreachable for the new one, and versions aged
//       past version_cap are swept,
//   (d) a tiny capacity evicts without ever answering wrong, and pinned
//       old versions keep resolving within version_cap and degrade to
//       plain (still correct) compute past it.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

#include "obs/metrics.hpp"
#include "pg/incremental.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot.hpp"
#include "serve_test_util.hpp"

namespace er {
namespace {

// ---------------------------------------------------------------------------
// (a) cached == uncached, bitwise, across interleavings and thread counts.
// ---------------------------------------------------------------------------

TEST(ResultCache, CachedMatchesUncachedBitwiseAcrossInterleavings) {
  const ServeCase c = make_case(20, 20, 48, 307);
  constexpr int kMods = 4;
  constexpr int kSteps = 14;
  // (version, batch seed) -> the first thread count's answers, which
  // every other thread count must reproduce bit for bit.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<real_t>>
      first_answers;

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReductionOptions opts;
    opts.num_blocks = 8;
    opts.parallel.num_threads = threads;
    obs::MetricsRegistry reg;
    ModelStore store(&reg);
    IncrementalReducer reducer(c.net, c.ports, opts);
    reducer.attach_store(&store);
    const auto cache =
        std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
    store.attach_cache(cache);
    ThreadPool pool(threads);
    ThreadPool* p = threads > 1 ? &pool : nullptr;

    const ModStream stream =
        make_mod_stream(c.net, reducer.structure(), kMods, 0.25, 1.3, 1100);
    const auto kept = kept_originals(reducer.model());

    // Randomized (seeded) interleaving of publishes and query batches.
    // Every batch pins one snapshot and is answered twice — through the
    // cache and without it — so a publish racing the pair can't confuse
    // the comparison. Batch seeds repeat (700 + step % 3), so later
    // batches revisit earlier keys and genuinely hit.
    Rng rng(static_cast<std::uint64_t>(threads) * 7919 + 5);
    int published = 0;
    for (int step = 0; step < kSteps; ++step) {
      if (published < kMods && rng.uniform() < 0.3) {
        const auto u = static_cast<std::size_t>(published++);
        reducer.update(stream.nets[u], stream.mods[u].dirty_blocks);
        continue;
      }
      const auto seed = static_cast<std::uint64_t>(700 + step % 3);
      const auto batch = mixed_batch(kept, 120, seed);
      const RouteMode mode =
          step % 3 == 0   ? RouteMode::kSharded
          : step % 3 == 1 ? RouteMode::kMonolithic
                          : RouteMode::kLocalApprox;
      const SnapshotPtr snap = store.acquire();
      BatchStats cached_stats;
      const auto cached = QueryFrontEnd::answer_on(
          *snap, batch, {p, mode, &cached_stats, &reg, cache.get()});
      const auto uncached =
          QueryFrontEnd::answer_on(*snap, batch, {p, mode, nullptr, &reg});
      ASSERT_TRUE(same_bits(cached, uncached))
          << to_string(mode) << " step " << step;
      EXPECT_EQ(cached_stats.cache_hits + cached_stats.cache_misses,
                cached_stats.queries - cached_stats.invalid);
      const auto [it, first] =
          first_answers.try_emplace({snap->version(), seed}, cached);
      if (first)
        expect_matches_reference(cached, dc_reference(snap->model(), batch),
                                 "version " +
                                     std::to_string(snap->version()));
      else
        EXPECT_TRUE(same_bits(cached, it->second))
            << "version " << snap->version() << " seed " << seed;
    }
    // The interleaving must have exercised the cache on both sides.
    EXPECT_GT(cache->hits(), 0u);
    EXPECT_GT(cache->misses(), 0u);
  }
}

// ---------------------------------------------------------------------------
// (b) concurrent readers + publisher, cache attached (TSan target).
// ---------------------------------------------------------------------------

TEST(ResultCache, ConcurrentReadersStayBitConsistentWithCacheAttached) {
  const ServeCase c = make_case(20, 20, 48, 311);
  ReductionOptions opts;
  opts.num_blocks = 8;
  opts.parallel.num_threads = 2;
  constexpr int kUpdates = 3;
  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 12;

  // Per-version serial reference from a deterministic twin.
  std::vector<PortQuery> batch;
  std::map<std::uint64_t, std::vector<real_t>> reference;
  ModStream stream;
  {
    IncrementalReducer twin(c.net, c.ports, opts);
    batch = mixed_batch(kept_originals(twin.model()), 64, 19);
    reference[0] = QueryFrontEnd::answer_on(
        *ModelSnapshot::build(twin.model()), batch);
    stream = make_mod_stream(c.net, twin.structure(), kUpdates, 0.25, 1.4,
                             1200);
    for (int u = 1; u <= kUpdates; ++u) {
      twin.update(stream.nets[static_cast<std::size_t>(u - 1)],
                  stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
      reference[static_cast<std::uint64_t>(u)] = QueryFrontEnd::answer_on(
          *ModelSnapshot::build(twin.model()), batch);
    }
  }

  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  const auto cache =
      std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&] {
      for (int i = 0; i < kBatchesPerReader; ++i) {
        BatchStats stats;
        const auto got =
            frontend.answer(batch, nullptr, RouteMode::kSharded, &stats);
        const auto& want = reference.at(stats.snapshot_version);
        for (std::size_t j = 0; j < want.size(); ++j)
          if (got[j] != want[j]) {
            ++mismatches;
            break;
          }
      }
    });

  for (int u = 1; u <= kUpdates; ++u)
    reducer.update(stream.nets[static_cast<std::size_t>(u - 1)],
                   stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Readers repeat one batch, so the cache must have served hits.
  EXPECT_GT(cache->hits(), 0u);
}

// ---------------------------------------------------------------------------
// (c) one scope per version.
// ---------------------------------------------------------------------------

TEST(ResultCache, EachPublishScopesFreshAndSweepsAgedOutVersions) {
  const ServeCase c = make_case(20, 20, 48, 313);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  // version_cap = 1: only the newest version's scope stays live, so every
  // publish sweeps the stale scope eagerly and the invalidations counter
  // accounts for exactly the entries that became unreachable.
  ResultCacheOptions copts;
  copts.version_cap = 1;
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  // Warm, then re-probe: the second pass hits every valid query, whatever
  // route it names — entries are keyed by (scope, kind, pair) only.
  const auto batch = mixed_batch(kept_originals(reducer.model()), 80, 29);
  BatchStats warm, again;
  (void)frontend.answer(batch, nullptr, RouteMode::kSharded, &warm);
  EXPECT_EQ(warm.cache_hits, 0u);
  (void)frontend.answer(batch, nullptr, RouteMode::kMonolithic, &again);
  EXPECT_EQ(again.cache_misses, 0u);
  EXPECT_EQ(again.cache_hits, batch.size() - again.invalid);
  const std::size_t entries_before = cache->entries();
  ASSERT_GT(entries_before, 0u);

  // A one-block publish refactors the whole system: nothing carries, the
  // old scope is swept, and the same batch misses through on the new
  // version.
  GridModification mod;
  mod.dirty_blocks = {0};
  mod.resistance_scale = 1.5;
  reducer.update(apply_modification(c.net, reducer.structure(), mod),
                 mod.dirty_blocks);
  EXPECT_EQ(cache->entries(), 0u);
  EXPECT_EQ(cache->invalidations(), entries_before);
  BatchStats after;
  (void)frontend.answer(batch, nullptr, RouteMode::kSharded, &after);
  EXPECT_EQ(after.cache_hits, 0u);
  EXPECT_EQ(after.cache_misses, batch.size() - after.invalid);

  // Republishing a version number (a generic writer) takes a fresh scope
  // too: entries of the earlier registration never resurface.
  const std::uint64_t v = store.acquire()->version();
  store.publish(ModelSnapshot::build(reducer.model(), v));
  BatchStats republished;
  (void)frontend.answer(batch, nullptr, RouteMode::kSharded, &republished);
  EXPECT_EQ(republished.cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// (d) eviction under a tiny capacity + pinned-version resolution.
// ---------------------------------------------------------------------------

TEST(ResultCache, TinyCapacityEvictsWithoutEverAnsweringWrong) {
  const ServeCase c = make_case(18, 18, 40, 317);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  ResultCacheOptions copts;
  copts.shards = 1;
  copts.max_entries = 16;  // far below the batch working set
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);

  const auto kept = kept_originals(reducer.model());
  const SnapshotPtr snap = store.acquire();
  for (int round = 0; round < 4; ++round) {
    const auto batch = mixed_batch(
        kept, 200, static_cast<std::uint64_t>(1300 + round % 2));
    const auto cached = QueryFrontEnd::answer_on(
        *snap, batch, {nullptr, RouteMode::kSharded, nullptr, &reg,
                       cache.get()});
    const auto plain = QueryFrontEnd::answer_on(
        *snap, batch, {nullptr, RouteMode::kSharded, nullptr, &reg});
    ASSERT_TRUE(same_bits(cached, plain)) << "round " << round;
  }
  EXPECT_GT(cache->evictions(), 0u);
  EXPECT_LE(cache->entries(), copts.max_entries);
}

TEST(ResultCache, PinnedVersionsResolveWithinCapAndDegradePastIt) {
  const ServeCase c = make_case(18, 18, 40, 331);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  ResultCacheOptions copts;
  copts.version_cap = 2;
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);

  const auto kept = kept_originals(reducer.model());
  const auto batch = mixed_batch(kept, 100, 37);
  const ModStream stream =
      make_mod_stream(c.net, reducer.structure(), 2, 0.25, 1.3, 1400);

  // Pin version 0, warm it, then publish once: {v0, v1} both within the
  // cap, so the pinned snapshot keeps hitting its own scoped entries.
  const SnapshotPtr pinned = store.acquire();
  BatchStats warm;
  (void)QueryFrontEnd::answer_on(
      *pinned, batch,
      {nullptr, RouteMode::kSharded, &warm, &reg, cache.get()});
  EXPECT_GT(warm.cache_misses, 0u);
  reducer.update(stream.nets[0], stream.mods[0].dirty_blocks);
  BatchStats still_cached;
  const auto hit_answers = QueryFrontEnd::answer_on(
      *pinned, batch,
      {nullptr, RouteMode::kSharded, &still_cached, &reg, cache.get()});
  EXPECT_GT(still_cached.cache_hits, 0u);
  EXPECT_EQ(still_cached.cache_misses, 0u);

  // Second publish ages v0 past the cap: the pinned snapshot's version no
  // longer resolves, so the cache is bypassed — zero probes, answers
  // still bitwise identical to the warm run.
  reducer.update(stream.nets[1], stream.mods[1].dirty_blocks);
  BatchStats past_cap;
  const auto plain_answers = QueryFrontEnd::answer_on(
      *pinned, batch,
      {nullptr, RouteMode::kSharded, &past_cap, &reg, cache.get()});
  EXPECT_EQ(past_cap.cache_hits, 0u);
  EXPECT_EQ(past_cap.cache_misses, 0u);
  EXPECT_TRUE(same_bits(hit_answers, plain_answers));
}

}  // namespace
}  // namespace er
