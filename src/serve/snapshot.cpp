#include "serve/snapshot.hpp"

#include <stdexcept>
#include <utility>

#include "chol/cholesky.hpp"
#include "util/timer.hpp"

namespace er {

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    const ReductionArtifacts& artifacts, std::uint64_t version) {
  return build(artifacts.model, version);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    const ReducedModel& model, std::uint64_t version) {
  // Deep-copy path: freeze a private copy so the caller may keep mutating
  // its model. The copy is the O(nodes + edges) per-publish cost the
  // shared-ownership overload exists to avoid.
  return build_impl(std::make_shared<const ReducedModel>(model), version,
                    model_footprint_bytes(model));
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    ModelPtr model, std::uint64_t version) {
  if (!model) throw std::invalid_argument("ModelSnapshot::build: null model");
  return build_impl(std::move(model), version, /*model_bytes_copied=*/0);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build_impl(
    ModelPtr model, std::uint64_t version, std::size_t model_bytes_copied) {
  Timer timer;
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  // Alias the frozen model version: the producer (reduce_network_artifacts
  // / IncrementalReducer) builds each version into a fresh allocation and
  // never mutates it afterwards, so the snapshot pins it instead of
  // copying O(nodes + edges) state per publish (DESIGN.md §4.1).
  snap->model_ = std::move(model);
  snap->version_ = version;
  snap->model_bytes_copied_ = model_bytes_copied;
  snap->factor_ = cholesky(snap->model_->network.system_matrix());
  snap->build_seconds_ = timer.seconds();
  return snap;
}

index_t ModelSnapshot::reduced_id(index_t original) const {
  if (original < 0 ||
      static_cast<std::size_t>(original) >= model_->node_map.size())
    return -1;
  return model_->node_map[static_cast<std::size_t>(original)];
}

real_t ModelSnapshot::response(index_t p, index_t q, Workspace& ws) const {
  return factor_.inverse_entry(p, q, ws);
}

real_t ModelSnapshot::resistance(index_t p, index_t q, Workspace& ws) const {
  return factor_.resistance(p, q, ws);
}

}  // namespace er
