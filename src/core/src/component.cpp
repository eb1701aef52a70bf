#include "perpos/core/component.hpp"

#include "perpos/core/graph.hpp"

namespace perpos::core {

InputRequirement require(const TypeInfo* type, std::string feature_tag,
                         bool optional) {
  InputRequirement r;
  r.type = type;
  r.feature_tag = std::move(feature_tag);
  r.optional = optional;
  return r;
}

InputRequirement require_any() {
  InputRequirement r;
  r.any_type = true;
  return r;
}

void ComponentContext::emit(Payload payload) const {
  if (graph_ == nullptr) return;  // Detached components emit into the void.
  graph_->emit_from(id_, std::move(payload), kComponentOrigin);
}

sim::SimTime ComponentContext::now() const noexcept {
  if (graph_ == nullptr || graph_->clock() == nullptr) {
    return sim::SimTime::zero();
  }
  return graph_->clock()->now();
}

}  // namespace perpos::core
