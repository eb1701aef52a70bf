#pragma once

#include "perpos/core/component.hpp"

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

/// \file components.hpp
/// Reusable Processing Component building blocks: sources, lambda-defined
/// transforms/filters, and application sinks. Substrate modules provide the
/// domain components (Parser, Interpreter, sensors, ...); these generic
/// blocks are what tests, examples and custom extensions compose from.

namespace perpos::core {

/// A source node: no inputs; data is pushed in from outside the graph
/// (a device driver, a simulator, or an emulator replaying a file).
class SourceComponent : public ProcessingComponent {
 public:
  SourceComponent(std::string kind, std::vector<DataSpec> capabilities)
      : kind_(std::move(kind)), capabilities_(std::move(capabilities)) {}

  std::string_view kind() const override { return kind_; }
  std::vector<InputRequirement> input_requirements() const override {
    return {};
  }
  std::vector<DataSpec> output_capabilities() const override {
    return capabilities_;
  }
  void on_input(const Sample&) override {}  // Sources have no inputs.

  /// Push a value into the graph through this source's output port.
  template <typename T>
  void push(T value) {
    context().emit(Payload::make(std::move(value)));
  }
  void push_payload(Payload payload) { context().emit(std::move(payload)); }

 private:
  std::string kind_;
  std::vector<DataSpec> capabilities_;
};

/// A component whose behaviour is a callable:
/// void(const Sample&, const ComponentContext&). The callable emits zero or
/// more outputs via ctx.emit(). Used for filters, converters and test rigs.
class LambdaComponent : public ProcessingComponent {
 public:
  using Body = std::function<void(const Sample&, const ComponentContext&)>;

  LambdaComponent(std::string kind, std::vector<InputRequirement> requirements,
                  std::vector<DataSpec> capabilities, Body body)
      : kind_(std::move(kind)),
        requirements_(std::move(requirements)),
        capabilities_(std::move(capabilities)),
        body_(std::move(body)) {}

  std::string_view kind() const override { return kind_; }
  std::vector<InputRequirement> input_requirements() const override {
    return requirements_;
  }
  std::vector<DataSpec> output_capabilities() const override {
    return capabilities_;
  }
  void on_input(const Sample& sample) override {
    if (body_) body_(sample, context());
  }

 private:
  std::string kind_;
  std::vector<InputRequirement> requirements_;
  std::vector<DataSpec> capabilities_;
  Body body_;
};

/// The application root node: consumes everything delivered to it and hands
/// samples to a callback. Keeps the most recent sample for pull-style
/// access.
class ApplicationSink : public ProcessingComponent {
 public:
  using Callback = std::function<void(const Sample&)>;

  explicit ApplicationSink(std::string name = "Application",
                           Callback callback = nullptr)
      : name_(std::move(name)),
        requirements_{require_any()},
        callback_(std::move(callback)) {}

  /// An application that wants specific data declares it (important for
  /// dependency-resolved assembly, where a wildcard would match the first
  /// provider of anything).
  ApplicationSink(std::string name, std::vector<InputRequirement> requirements,
                  Callback callback = nullptr)
      : name_(std::move(name)),
        requirements_(std::move(requirements)),
        callback_(std::move(callback)) {}

  std::string_view kind() const override { return name_; }
  std::vector<InputRequirement> input_requirements() const override {
    return requirements_;
  }
  std::vector<DataSpec> output_capabilities() const override { return {}; }
  /// Pure sink: nothing is ever re-emitted downstream.
  double emit_multiplicity() const override { return 0.0; }

  void on_input(const Sample& sample) override {
    last_ = sample;
    ++received_;
    if (callback_) callback_(sample);
  }

  void set_callback(Callback callback) { callback_ = std::move(callback); }

  const std::optional<Sample>& last() const noexcept { return last_; }
  std::uint64_t received() const noexcept { return received_; }

 private:
  std::string name_;
  std::vector<InputRequirement> requirements_;
  Callback callback_;
  std::optional<Sample> last_;
  std::uint64_t received_ = 0;
};

}  // namespace perpos::core
