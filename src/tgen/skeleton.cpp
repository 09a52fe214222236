#include "tgen/skeleton.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ascdg::tgen {

namespace {

using util::ValidationError;

const std::string& skeleton_param_name(const SkeletonParameter& p) {
  return std::visit(
      [](const auto& alt) -> const std::string& { return alt.name; }, p);
}

std::size_t marks_in(const SkeletonParameter& p) {
  return std::visit(
      [](const auto& alt) -> std::size_t {
        if constexpr (std::is_same_v<std::decay_t<decltype(alt)>,
                                     RangeParameter>) {
          return 0;
        } else {
          std::size_t count = 0;
          for (const auto& entry : alt.entries) {
            if (!entry.weight.has_value()) ++count;
          }
          return count;
        }
      },
      p);
}

}  // namespace

void Skeleton::add(SkeletonParameter parameter) {
  const std::string& pname = skeleton_param_name(parameter);
  if (!util::is_identifier(pname)) {
    throw ValidationError("invalid skeleton parameter name: '" + pname + "'");
  }
  for (const auto& existing : params_) {
    if (skeleton_param_name(existing) == pname) {
      throw ValidationError("skeleton '" + name_ +
                            "' already has parameter '" + pname + "'");
    }
  }
  const bool has_entries = std::visit(
      [](const auto& alt) {
        if constexpr (std::is_same_v<std::decay_t<decltype(alt)>,
                                     RangeParameter>) {
          return alt.lo <= alt.hi;
        } else {
          return !alt.entries.empty();
        }
      },
      parameter);
  if (!has_entries) {
    throw ValidationError("skeleton parameter '" + pname +
                          "' is empty or malformed");
  }
  params_.push_back(std::move(parameter));
}

std::size_t Skeleton::mark_count() const noexcept {
  std::size_t count = 0;
  for (const auto& p : params_) count += marks_in(p);
  return count;
}

std::vector<MarkInfo> Skeleton::marks() const {
  std::vector<MarkInfo> out;
  for (const auto& p : params_) {
    if (const auto* wp = std::get_if<SkeletonWeightParameter>(&p)) {
      for (const auto& entry : wp->entries) {
        if (!entry.weight.has_value()) {
          out.push_back({wp->name, entry.value.to_string()});
        }
      }
    } else if (const auto* sp = std::get_if<SkeletonSubrangeParameter>(&p)) {
      for (const auto& entry : sp->entries) {
        if (!entry.weight.has_value()) {
          out.push_back({sp->name, std::to_string(entry.lo) + ".." +
                                       std::to_string(entry.hi)});
        }
      }
    }
  }
  return out;
}

TestTemplate Skeleton::base(std::string name) const {
  TestTemplate out(std::move(name));
  for (const auto& p : params_) {
    if (const auto* wp = std::get_if<SkeletonWeightParameter>(&p)) {
      WeightParameter concrete{wp->name, {}};
      concrete.entries.reserve(wp->entries.size());
      for (const auto& entry : wp->entries) {
        concrete.entries.push_back({entry.value, entry.weight.value_or(1.0)});
      }
      out.add(std::move(concrete));
    } else if (const auto* sp = std::get_if<SkeletonSubrangeParameter>(&p)) {
      SubrangeParameter concrete{sp->name, {}};
      concrete.entries.reserve(sp->entries.size());
      for (const auto& entry : sp->entries) {
        concrete.entries.push_back(
            {entry.lo, entry.hi, entry.weight.value_or(1.0)});
      }
      out.add(std::move(concrete));
    } else {
      out.add(std::get<RangeParameter>(p));
    }
  }
  return out;
}

std::vector<double> Skeleton::weights(std::span<const double> point) const {
  if (point.size() != mark_count()) {
    throw ValidationError(
        "skeleton '" + name_ + "' has " + std::to_string(mark_count()) +
        " marks but " + std::to_string(point.size()) + " weights given");
  }
  std::vector<double> out;
  std::size_t next_mark = 0;
  const auto add_entries = [&](const auto& entries) {
    const std::size_t first = out.size();
    double total = 0.0;
    for (const auto& entry : entries) {
      const double mark = entry.weight.has_value() ? 0.0 : point[next_mark++];
      const double w = entry.weight.value_or(mark > 0.0 ? mark : 0.0);
      out.push_back(w);
      total += w > 0.0 ? w : 0.0;
    }
    if (total <= 0.0) {
      // Uniform fallback keeps the template generatable.
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].weight.has_value()) out[first + i] = 1.0;
      }
    }
  };
  for (const auto& p : params_) {
    if (const auto* wp = std::get_if<SkeletonWeightParameter>(&p)) {
      add_entries(wp->entries);
    } else if (const auto* sp = std::get_if<SkeletonSubrangeParameter>(&p)) {
      add_entries(sp->entries);
    }
  }
  return out;
}

TestTemplate Skeleton::instantiate(std::string instance_name,
                                   std::span<const double> point) const {
  TestTemplate out = base(std::move(instance_name));
  out.set_weights(weights(point));
  return out;
}

namespace {

std::string weight_text(const std::optional<double>& weight) {
  return weight.has_value() ? util::format_number(*weight) : std::string("<W>");
}

void print(std::ostream& os, const SkeletonWeightParameter& p) {
  os << "  weight " << p.name << " {";
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    if (i > 0) os << ',';
    os << ' ' << p.entries[i].value.to_string() << ": "
       << weight_text(p.entries[i].weight);
  }
  os << " }\n";
}

void print(std::ostream& os, const SkeletonSubrangeParameter& p) {
  os << "  subrange " << p.name << " {";
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    if (i > 0) os << ',';
    os << " [" << p.entries[i].lo << ", " << p.entries[i].hi
       << "]: " << weight_text(p.entries[i].weight);
  }
  os << " }\n";
}

void print(std::ostream& os, const RangeParameter& p) {
  os << "  range " << p.name << " [" << p.lo << ", " << p.hi << "]\n";
}

}  // namespace

std::string to_text(const Skeleton& skeleton) {
  std::ostringstream os;
  os << "skeleton " << skeleton.name() << " {\n";
  for (const auto& param : skeleton.parameters()) {
    std::visit([&os](const auto& alt) { print(os, alt); }, param);
  }
  os << "}\n";
  return os.str();
}

}  // namespace ascdg::tgen
