// JSON-lines validator: every non-blank stdin line must be one valid JSON
// document (serve::parse_json, strict RFC 8259). Exits 0 when all lines
// pass, 1 with "line N: <problem>" on stderr at the first failure. CI's
// server-smoke and chaos-smoke jobs pipe gpucomm_cli --serve responses
// through it.
//
// A final line with no trailing '\n' is reported separately with exit 3,
// even when its content parses: in the JSON-lines protocol every response
// is newline-terminated, so a missing terminator means the stream was cut
// mid-write (a crashed or killed server) — exactly the truncation a
// checksum-less text format cannot otherwise detect.
//
// Modes (mutually exclusive):
//   (none)     validate JSON lines, report "N JSON lines OK" on stderr
//   --summary  additionally parse each record and print, on stdout, a count
//              per "type" field plus the min/max "ts_us" seen — the shape of
//              a --serve-log event stream at a glance. Records without a
//              "type" are counted under "(untyped)".
//   --prom     validate Prometheus text exposition instead of JSON: every
//              non-blank line is either a "# HELP"/"# TYPE" comment or a
//              `name{labels} value` sample with a well-formed metric name
//              and a parseable number. Exits 0/1; truncation is exit 3 as
//              above.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "gpucomm/serve/json_value.hpp"

namespace {

bool prom_name_char(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') return true;
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

/// One Prometheus text line: `name` or `name{label="v",...}` followed by a
/// number. Labels are only checked for balanced braces and quotes.
bool prom_sample_valid(const std::string& line, std::string& err) {
  std::size_t i = 0;
  if (i >= line.size() || !prom_name_char(line[i], /*first=*/true)) {
    err = "expected metric name";
    return false;
  }
  while (i < line.size() && prom_name_char(line[i], /*first=*/false)) ++i;
  if (i < line.size() && line[i] == '{') {
    bool in_string = false;
    bool closed = false;
    for (++i; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '}') {
        closed = true;
        ++i;
        break;
      }
    }
    if (!closed) {
      err = "unterminated label set";
      return false;
    }
  }
  if (i >= line.size() || line[i] != ' ') {
    err = "expected space before sample value";
    return false;
  }
  while (i < line.size() && line[i] == ' ') ++i;
  const char* start = line.c_str() + i;
  char* end = nullptr;
  std::strtod(start, &end);
  if (end == start) {
    err = "expected sample value";
    return false;
  }
  while (*end == ' ') ++end;  // optional timestamp, digits only
  while (std::isdigit(static_cast<unsigned char>(*end)) || *end == '-') ++end;
  if (*end != '\0') {
    err = "trailing garbage after sample value";
    return false;
  }
  return true;
}

struct Summary {
  std::map<std::string, std::size_t> by_type;
  std::uint64_t ts_min = ~std::uint64_t{0};
  std::uint64_t ts_max = 0;
  bool any_ts = false;
};

bool summarize_line(const std::string& line, std::size_t lineno, Summary& s) {
  std::string err;
  const auto doc = gpucomm::serve::parse_json(line, err);
  if (!doc.has_value()) {
    std::fprintf(stderr, "line %zu: %s\n", lineno, err.c_str());
    return false;
  }
  const gpucomm::serve::JsonValue* type =
      doc->is_object() ? doc->find("type") : nullptr;
  s.by_type[type != nullptr && type->is_string() ? type->as_string() : "(untyped)"]++;
  const gpucomm::serve::JsonValue* ts = doc->is_object() ? doc->find("ts_us") : nullptr;
  if (ts != nullptr && ts->is_number() && ts->as_int().has_value() &&
      *ts->as_int() >= 0) {
    const auto v = static_cast<std::uint64_t>(*ts->as_int());
    if (v < s.ts_min) s.ts_min = v;
    if (v > s.ts_max) s.ts_max = v;
    s.any_ts = true;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool summary = false;
  bool prom = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--summary") == 0) {
      summary = true;
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else {
      std::fprintf(stderr, "usage: %s [--summary | --prom] < lines\n", argv[0]);
      return 2;
    }
  }
  if (summary && prom) {
    std::fprintf(stderr, "%s: --summary and --prom are mutually exclusive\n", argv[0]);
    return 2;
  }

  std::string line;
  std::size_t lineno = 0;
  std::size_t checked = 0;
  bool unterminated = false;
  Summary stats;
  while (std::getline(std::cin, line)) {
    ++lineno;
    // getline consumed data but no '\n' only at end-of-input: eof() set
    // with a successful read means the final line was unterminated.
    if (std::cin.eof()) unterminated = true;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string err;
    if (prom) {
      if (line.rfind("# ", 0) == 0) {
        if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
          std::fprintf(stderr, "line %zu: unknown comment (expect # HELP / # TYPE)\n",
                       lineno);
          return 1;
        }
      } else if (!prom_sample_valid(line, err)) {
        std::fprintf(stderr, "line %zu: %s\n", lineno, err.c_str());
        return 1;
      }
    } else if (summary) {
      if (!summarize_line(line, lineno, stats)) return 1;
    } else if (!gpucomm::serve::parse_json(line, err).has_value()) {
      std::fprintf(stderr, "line %zu: %s\n", lineno, err.c_str());
      return 1;
    }
    ++checked;
  }
  if (unterminated) {
    std::fprintf(stderr, "line %zu: truncated final line (no trailing newline)\n",
                 lineno);
    return 3;
  }
  if (summary) {
    for (const auto& [type, count] : stats.by_type) {
      std::printf("%-16s %zu\n", type.c_str(), count);
    }
    if (stats.any_ts) {
      std::printf("ts_us            %llu..%llu\n", (unsigned long long)stats.ts_min,
                  (unsigned long long)stats.ts_max);
    }
    std::printf("total            %zu\n", checked);
  }
  std::fprintf(stderr, "%zu %s lines OK\n", checked, prom ? "prom" : "JSON");
  return 0;
}
