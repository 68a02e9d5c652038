#include "gpucomm/serve/query.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "gpucomm/systems/registry.hpp"

namespace gpucomm::serve {

namespace {

/// Pull an exact integer in [min, max] out of a JSON number; doubles like
/// 2.5 or out-of-range literals are errors, matching the CLI's parse_int.
bool exact_int(const JsonValue& v, std::int64_t min, std::int64_t max, std::int64_t& out) {
  if (!v.is_number() || !v.as_int().has_value()) return false;
  const std::int64_t i = *v.as_int();
  if (i < min || i > max) return false;
  out = i;
  return true;
}

/// Length-prefixed text field, so free-form strings (fault specs) cannot
/// forge a key collision with the '|'-separated fields around them.
void append_text(std::ostream& os, const char* name, const std::string& text) {
  os << '|' << name << '#' << text.size() << '=' << text;
}

}  // namespace

std::string ScenarioQuery::core_key() const {
  std::ostringstream os;
  os << "system=" << system << "|op=" << op << "|mech=" << mechanism << "|gpus=" << gpus
     << "|space=" << (space == MemSpace::kHost ? "host" : "device")
     << "|tuned=" << (tuned ? 1 : 0) << "|sl=" << service_level
     << "|placement=" << cli::placement_name(placement) << "|seed=" << seed
     << "|noise=" << (noise ? 1 : 0) << "|nodes=" << nodes;
  return os.str();
}

std::string ScenarioQuery::canonical_key() const {
  std::ostringstream os;
  os << core_key() << "|min=" << min_bytes << "|max=" << max_bytes << "|iters=" << iters
     << "|harness=" << (cells ? "cells" : "coupled");
  append_text(os, "faults", faults);
  return os.str();
}

std::optional<ScenarioQuery> parse_query(const JsonValue& v, std::string& error) {
  ScenarioQuery q;
  const auto fail = [&error](std::string msg) {
    error = std::move(msg);
    return std::nullopt;
  };
  if (!v.is_object()) return fail("query must be a JSON object");
  for (const auto& [key, val] : v.members()) {
    std::int64_t n = 0;
    if (key == "id") {
      if (!exact_int(val, 0, std::numeric_limits<std::int64_t>::max(), q.id)) {
        return fail("'id' must be a non-negative integer");
      }
    } else if (key == "system") {
      if (!val.is_string()) return fail("'system' must be a string");
      q.system = val.as_string();
      const auto& names = all_system_names();
      if (std::find(names.begin(), names.end(), q.system) == names.end()) {
        return fail("unknown system '" + q.system + "'");
      }
    } else if (key == "op") {
      if (!val.is_string() || !cli::known_op(val.as_string())) {
        return fail("unknown op" + (val.is_string() ? " '" + val.as_string() + "'" : ""));
      }
      q.op = val.as_string();
    } else if (key == "mechanism") {
      if (!val.is_string() || !cli::known_mechanism(val.as_string())) {
        return fail("unknown mechanism" +
                    (val.is_string() ? " '" + val.as_string() + "'" : ""));
      }
      q.mechanism = val.as_string();
    } else if (key == "gpus") {
      if (!exact_int(val, 1, 1 << 20, n)) return fail("'gpus' must be a positive integer");
      q.gpus = static_cast<int>(n);
    } else if (key == "min") {
      if (!exact_int(val, 1, std::numeric_limits<std::int64_t>::max(), n)) {
        return fail("'min' must be a positive byte count");
      }
      q.min_bytes = static_cast<Bytes>(n);
    } else if (key == "max") {
      if (!exact_int(val, 1, std::numeric_limits<std::int64_t>::max(), n)) {
        return fail("'max' must be a positive byte count");
      }
      q.max_bytes = static_cast<Bytes>(n);
    } else if (key == "space") {
      if (val.is_string() && val.as_string() == "host") {
        q.space = MemSpace::kHost;
      } else if (val.is_string() && val.as_string() == "device") {
        q.space = MemSpace::kDevice;
      } else {
        return fail("'space' must be \"host\" or \"device\"");
      }
    } else if (key == "tuned") {
      if (!val.is_bool()) return fail("'tuned' must be a boolean");
      q.tuned = val.as_bool();
    } else if (key == "sl") {
      if (!exact_int(val, 0, 15, n)) return fail("'sl' must be an integer in [0, 15]");
      q.service_level = static_cast<int>(n);
    } else if (key == "placement") {
      if (!val.is_string() || !cli::parse_placement_name(val.as_string(), q.placement)) {
        return fail("'placement' must be packed|switches|groups");
      }
    } else if (key == "iters") {
      if (!exact_int(val, 1, 1'000'000, n)) {
        return fail("'iters' must be a positive iteration count");
      }
      q.iters = static_cast<int>(n);
    } else if (key == "seed") {
      if (!exact_int(val, 0, std::numeric_limits<std::int64_t>::max(), n)) {
        return fail("'seed' must be a non-negative integer");
      }
      q.seed = static_cast<std::uint64_t>(n);
    } else if (key == "faults") {
      if (!val.is_string()) return fail("'faults' must be a string (path or inline spec)");
      q.faults = val.as_string();
    } else if (key == "noise") {
      if (!val.is_bool()) return fail("'noise' must be a boolean");
      q.noise = val.as_bool();
    } else if (key == "nodes") {
      if (!exact_int(val, 1, 1 << 20, n)) return fail("'nodes' must be a positive integer");
      q.nodes = static_cast<int>(n);
    } else if (key == "harness") {
      if (val.is_string() && val.as_string() == "cells") {
        q.cells = true;
      } else if (val.is_string() && val.as_string() == "coupled") {
        q.cells = false;
      } else {
        return fail("'harness' must be \"cells\" or \"coupled\"");
      }
    } else if (key == "metrics_out") {
      if (!val.is_string()) return fail("'metrics_out' must be a path string");
      q.metrics_out = val.as_string();
    } else if (key == "deadline_ms") {
      if (!exact_int(val, 0, 86'400'000, n)) {
        return fail("'deadline_ms' must be an integer in [0, 86400000]");
      }
      q.deadline_ms = static_cast<int>(n);
    } else {
      return fail("unknown query field '" + key + "'");
    }
  }
  if (q.min_bytes > q.max_bytes) return fail("'min' exceeds 'max'");
  // Same restriction as --jobs with --faults: a fault schedule replays
  // events at absolute engine times on one coupled cluster, which has no
  // meaning when every (size, rep) is its own simulation.
  if (q.cells && !q.faults.empty()) {
    return fail("'faults' requires the coupled harness");
  }
  return q;
}

ScenarioQuery query_from_cli(const cli::CliArgs& a) {
  ScenarioQuery q;
  q.system = a.system;
  q.op = a.op;
  q.mechanism = a.mechanism;
  q.gpus = a.gpus;
  q.min_bytes = a.min_bytes;
  q.max_bytes = a.max_bytes;
  q.space = a.space;
  q.tuned = a.tuned;
  q.service_level = a.service_level;
  q.placement = a.placement;
  q.iters = a.iters;
  q.seed = a.seed;
  q.faults = a.faults;
  q.noise = a.noise;
  q.nodes = a.nodes;
  q.cells = a.jobs_given;
  q.metrics_out = a.metrics_out;
  return q;
}

}  // namespace gpucomm::serve
