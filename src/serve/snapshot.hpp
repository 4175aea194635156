/// \file
/// Immutable serving snapshot of a reduced model (DESIGN.md §4, §4.1).
///
/// A ModelSnapshot is built once from a stitched reduced model and then
/// never mutated: it pins the model and holds one Cholesky factor of the
/// stitched system G = L(reduced graph) + diag(shunts). Every query —
/// whatever route, backend, tier or hedge bit it names — is one
/// forward-only solve over the elimination-tree reach of its two nodes on
/// that factor, so any number of concurrent query threads share read-only
/// state.
///
/// The stitched model follows the zero-copy rule: the snapshot aliases the
/// producer's frozen ModelPtr version rather than owning a copy —
/// model_bytes_copied() is 0 on that path. A publish therefore re-stitches
/// the model copy-on-write (IncrementalReducer) and refactors G; nothing
/// else is carried between snapshots.
#pragma once

#include <memory>
#include <vector>

#include "chol/factor.hpp"
#include "reduction/pipeline.hpp"
#include "util/types.hpp"

namespace er {

/// Knobs of the serving-layer ResultCache (serve/result_cache.hpp), the
/// (version, node-pair)-keyed answer cache in front of the query path.
/// Embedded in ServingOptions so one struct configures a serving
/// deployment end to end; nothing constructs a cache implicitly — a
/// deployment opts in by building a ResultCache from these knobs and
/// attaching it to its ModelStore (ModelStore::attach_cache).
struct ResultCacheOptions {
  /// Lock stripes (rounded up to a power of two). More stripes = less
  /// contention between concurrent query chunks; each stripe owns an
  /// independent LRU list.
  std::size_t shards = 16;
  /// Whole-cache entry bound, split evenly across shards (per-shard LRU).
  std::size_t max_entries = std::size_t{1} << 18;
  /// Whole-cache resident-byte bound (entries are fixed-cost, so this is
  /// an alternative expression of max_entries; the tighter bound wins).
  std::size_t max_bytes = std::size_t{32} << 20;
  /// How many published versions stay resolvable at once. A snapshot
  /// pinned past the cap (or never registered) misses through and
  /// recomputes — never a wrong answer (DESIGN.md §4.2).
  std::size_t version_cap = 8;
};

/// Knobs of a serving deployment (IncrementalReducer::attach_store,
/// net::StackOptions).
struct ServingOptions {
  /// With a ModelStore attached, IncrementalReducer hands each snapshot the
  /// stitched model through shared ownership (ModelPtr): the snapshot
  /// aliases the reducer's frozen model version and a publish copies zero
  /// model bytes (DESIGN.md §4.1). Disable to force the legacy deep-copy
  /// publish (the snapshot owns a private model copy) — answers are
  /// bit-identical either way; the knob exists for A/B cost measurement.
  bool share_model = true;
  /// Result-cache configuration (serve/result_cache.hpp). Only consulted
  /// by the deployment code that constructs the cache — ModelSnapshot
  /// itself never touches it.
  ResultCacheOptions cache;
};

/// Read-only serving state for one published model version. Every method is
/// const and thread-safe; per-query scratch lives in a caller-owned
/// Workspace so concurrent callers never share mutable state.
class ModelSnapshot {
 public:
  /// Per-caller scratch for the reach solves (CholFactor::Workspace). Reuse
  /// one instance across the queries of a chunk; never share one across
  /// threads. After a query, reach.size() is the number of factor columns
  /// it touched.
  using Workspace = CholFactor::Workspace;

  /// Build a snapshot that *aliases* a frozen stitched model version: the
  /// zero-copy path — no model bytes are copied, the snapshot just pins
  /// `model`. The model must never be mutated after this call (the
  /// pipeline's ModelPtr producers guarantee that by construction). Throws
  /// std::runtime_error if the stitched system is not SPD (a connected
  /// component without any shunt).
  static std::shared_ptr<const ModelSnapshot> build(ModelPtr model,
                                                    std::uint64_t version = 0);

  /// Deep-copy overload: the snapshot owns a private copy of `model`
  /// (model_bytes_copied() reports its size). Kept for callers whose model
  /// is a mutable local — the shared-ownership overload above is the
  /// serving path.
  static std::shared_ptr<const ModelSnapshot> build(const ReducedModel& model,
                                                    std::uint64_t version = 0);

  /// Convenience overload over the whole artifacts bundle (aliases
  /// artifacts.model — zero-copy).
  static std::shared_ptr<const ModelSnapshot> build(
      const ReductionArtifacts& artifacts, std::uint64_t version = 0);

  /// The stitched model the answers refer to.
  [[nodiscard]] const ReducedModel& model() const { return *model_; }

  /// Shared handle of the stitched model — the same object the producer
  /// froze when this snapshot was built zero-copy (&*shared_model() ==
  /// &model()); holding it pins the model version beyond the snapshot.
  [[nodiscard]] ModelPtr shared_model() const { return model_; }

  /// Publisher-assigned version (IncrementalReducer: its revision count).
  [[nodiscard]] std::uint64_t version() const { return version_; }

  [[nodiscard]] double build_seconds() const { return build_seconds_; }

  // Publish-cost accounting (DESIGN.md §4.1): what this build materialized
  // vs. aliased. The churn bench reports these per publish.

  /// Bytes of stitched-model state this snapshot deep-copied: 0 on the
  /// shared-ownership (zero-copy) path, model_footprint_bytes(model()) on
  /// the deep-copy path.
  [[nodiscard]] std::size_t model_bytes_copied() const {
    return model_bytes_copied_;
  }
  /// Bytes of new serving state this build created: the factor of G plus
  /// any model copy.
  [[nodiscard]] std::size_t bytes_materialized() const {
    return model_bytes_copied_ + factor_.footprint_bytes();
  }

  /// Original node id -> reduced id, or -1 if the node was eliminated (or
  /// out of range).
  [[nodiscard]] index_t reduced_id(index_t original) const;

  // Queries on reduced node ids.

  /// Port response Z(p, q) = e_q^T G^{-1} e_p: voltage-drop response at q
  /// to a unit current injected at p.
  [[nodiscard]] real_t response(index_t p, index_t q, Workspace& ws) const;
  /// Effective resistance (e_p - e_q)^T G^{-1} (e_p - e_q) of the stitched
  /// system (shunts included — the pad-grounded impedance, not the
  /// shunt-free graph ER).
  [[nodiscard]] real_t resistance(index_t p, index_t q, Workspace& ws) const;

 private:
  ModelSnapshot() = default;

  /// Shared implementation of the build overloads; `model_bytes_copied`
  /// records how the model handle was produced (0 = aliased).
  static std::shared_ptr<const ModelSnapshot> build_impl(
      ModelPtr model, std::uint64_t version, std::size_t model_bytes_copied);

  ModelPtr model_;
  std::uint64_t version_ = 0;
  double build_seconds_ = 0.0;
  std::size_t model_bytes_copied_ = 0;
  CholFactor factor_;  // Cholesky factor of G
};

}  // namespace er
