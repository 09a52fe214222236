#include "tgen/test_template.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ascdg::tgen {

void TestTemplate::add(Parameter parameter) {
  validate(parameter);
  const std::string& pname = parameter_name(parameter);
  if (index_.contains(pname)) {
    throw util::ValidationError("template '" + name_ +
                                "' already has parameter '" + pname + "'");
  }
  index_.emplace(pname, params_.size());
  params_.push_back(std::move(parameter));
}

void TestTemplate::set(Parameter parameter) {
  validate(parameter);
  const std::string& pname = parameter_name(parameter);
  if (const auto it = index_.find(pname); it != index_.end()) {
    params_[it->second] = std::move(parameter);
  } else {
    index_.emplace(pname, params_.size());
    params_.push_back(std::move(parameter));
  }
}

const Parameter* TestTemplate::find(std::string_view name) const noexcept {
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? nullptr : &params_[it->second];
}

const WeightParameter* TestTemplate::find_weight(
    std::string_view name) const noexcept {
  const Parameter* p = find(name);
  return p != nullptr ? std::get_if<WeightParameter>(p) : nullptr;
}

const RangeParameter* TestTemplate::find_range(
    std::string_view name) const noexcept {
  const Parameter* p = find(name);
  return p != nullptr ? std::get_if<RangeParameter>(p) : nullptr;
}

const SubrangeParameter* TestTemplate::find_subrange(
    std::string_view name) const noexcept {
  const Parameter* p = find(name);
  return p != nullptr ? std::get_if<SubrangeParameter>(p) : nullptr;
}

std::vector<std::string> TestTemplate::parameter_names() const {
  std::vector<std::string> names;
  names.reserve(params_.size());
  for (const auto& p : params_) names.push_back(parameter_name(p));
  return names;
}

std::size_t TestTemplate::weight_count() const noexcept {
  std::size_t count = 0;
  for (const auto& p : params_) count += tgen::weight_count(p);
  return count;
}

void TestTemplate::set_weights(std::span<const double> weights) {
  if (weights.size() != weight_count()) {
    throw util::ValidationError(
        "template '" + name_ + "' has " + std::to_string(weight_count()) +
        " weights but " + std::to_string(weights.size()) + " given");
  }
  std::size_t next = 0;
  for (auto& p : params_) {
    std::visit(
        [&](auto& alt) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(alt)>,
                                        RangeParameter>) {
            for (auto& entry : alt.entries) entry.weight = weights[next++];
          }
        },
        p);
    validate(p);
  }
}

namespace {

void print(std::ostream& os, const WeightParameter& p) {
  os << "  weight " << p.name << " {";
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    if (i > 0) os << ',';
    os << ' ' << p.entries[i].value.to_string() << ": "
       << util::format_number(p.entries[i].weight);
  }
  os << " }\n";
}

void print(std::ostream& os, const RangeParameter& p) {
  os << "  range " << p.name << " [" << p.lo << ", " << p.hi << "]\n";
}

void print(std::ostream& os, const SubrangeParameter& p) {
  os << "  subrange " << p.name << " {";
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    if (i > 0) os << ',';
    os << " [" << p.entries[i].lo << ", " << p.entries[i].hi
       << "]: " << util::format_number(p.entries[i].weight);
  }
  os << " }\n";
}

}  // namespace

std::string to_text(const TestTemplate& tmpl) {
  std::ostringstream os;
  os << "template " << tmpl.name() << " {\n";
  for (const auto& param : tmpl.parameters()) {
    std::visit([&os](const auto& alt) { print(os, alt); }, param);
  }
  os << "}\n";
  return os.str();
}

}  // namespace ascdg::tgen
