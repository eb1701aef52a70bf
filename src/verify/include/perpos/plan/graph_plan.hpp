#pragma once

#include "perpos/core/graph.hpp"
#include "perpos/verify/incremental.hpp"

#include <memory>

/// \file graph_plan.hpp
/// Deprecated: forwards to the verify gate of the graph's shared
/// verify::IncrementalVerifier; kept until perfbench moves off it.

namespace perpos::plan {

using FreezeResult = verify::FreezeResult;

class GraphPlan {
 public:
  explicit GraphPlan(core::ProcessingGraph& graph)
      : verifier_(verify::IncrementalVerifier::of(graph)) {}

  FreezeResult freeze() { return verifier_->freeze(); }
  void thaw() { verifier_->thaw(); }
  bool frozen() const noexcept { return verifier_->frozen(); }
  bool armed() const noexcept { return verifier_->armed(); }
  const verify::GateStats& stats() const noexcept {
    return verifier_->stats();
  }
  verify::IncrementalVerifier& verifier() noexcept { return *verifier_; }

 private:
  std::shared_ptr<verify::IncrementalVerifier> verifier_;
};

}  // namespace perpos::plan
