// A test-template (paper §III): a named, ordered collection of parameter
// settings. Templates override the default behaviour of the stimuli
// generator for a subset of parameters; parameters they do not mention
// keep the DUV's defaults.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tgen/parameter.hpp"

namespace ascdg::tgen {

class TestTemplate {
 public:
  TestTemplate() = default;
  explicit TestTemplate(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a parameter; validates it and rejects duplicate names.
  /// Throws util::ValidationError.
  void add(Parameter parameter);

  /// Replaces an existing parameter (matched by name) or adds a new one.
  void set(Parameter parameter);

  [[nodiscard]] std::size_t size() const noexcept { return params_.size(); }
  [[nodiscard]] bool empty() const noexcept { return params_.empty(); }

  /// Ordered parameter list (declaration order).
  [[nodiscard]] const std::vector<Parameter>& parameters() const noexcept {
    return params_;
  }

  /// Pointer to the parameter with `name`, or nullptr.
  [[nodiscard]] const Parameter* find(std::string_view name) const noexcept;

  /// True when a parameter with `name` exists.
  [[nodiscard]] bool contains(std::string_view name) const noexcept {
    return find(name) != nullptr;
  }

  /// Typed lookups; return nullptr when the name is absent or the kind
  /// does not match.
  [[nodiscard]] const WeightParameter* find_weight(std::string_view name) const noexcept;
  [[nodiscard]] const RangeParameter* find_range(std::string_view name) const noexcept;
  [[nodiscard]] const SubrangeParameter* find_subrange(
      std::string_view name) const noexcept;

  /// Names of all parameters, in declaration order.
  [[nodiscard]] std::vector<std::string> parameter_names() const;

  /// Number of weight and subrange entries over all parameters: the
  /// length of a weight vector for set_weights() (and exec::Job).
  [[nodiscard]] std::size_t weight_count() const noexcept;

  /// Sets the weight of the i-th weight or subrange entry, counted in
  /// declaration order, to weights[i], then validates as add() does.
  /// Throws util::ValidationError when weights.size() != weight_count()
  /// (the template is then unchanged) or a parameter ends up invalid.
  void set_weights(std::span<const double> weights);

  friend bool operator==(const TestTemplate& a, const TestTemplate& b) {
    return a.name_ == b.name_ && a.params_ == b.params_;
  }

 private:
  std::string name_;
  std::vector<Parameter> params_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// Serializes to the template DSL text (parse/print round-trips).
[[nodiscard]] std::string to_text(const TestTemplate& tmpl);

}  // namespace ascdg::tgen
