#include "src/util/jsonl.hpp"

#include <cstdio>
#include <cstdlib>

namespace vosim {

namespace jsonl {

/// %.17g always round-trips; try %.15g first so common values stay
/// readable.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  if (std::strtod(buf, nullptr) != v)
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

std::size_t skip_space(const std::string& line, std::size_t at) {
  while (at < line.size() && is_space(line[at])) ++at;
  return at;
}

}  // namespace

bool raw_field(const std::string& line, const std::string& field,
               std::string& out) {
  const std::string key = "\"" + field + "\"";
  // An occurrence not followed by a colon (a string value equal to the
  // key, say) is no key: keep searching.
  std::size_t colon = std::string::npos;
  for (std::size_t at = line.find(key); at != std::string::npos;
       at = line.find(key, at + 1)) {
    const std::size_t c = skip_space(line, at + key.size());
    if (c < line.size() && line[c] == ':') {
      colon = c;
      break;
    }
  }
  if (colon == std::string::npos) return false;
  const std::size_t begin = skip_space(line, colon + 1);
  if (begin >= line.size()) return false;
  if (line[begin] == '"') {
    const std::size_t end = line.find('"', begin + 1);
    if (end == std::string::npos) return false;
    out = line.substr(begin + 1, end - begin - 1);
    return true;
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         !is_space(line[end]))
    ++end;
  out = line.substr(begin, end - begin);
  return !out.empty();
}

bool num_field(const std::string& line, const std::string& field,
               double& out) {
  std::string raw;
  if (!raw_field(line, field, raw)) return false;
  char* end = nullptr;
  out = std::strtod(raw.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool u64_field(const std::string& line, const std::string& field,
               std::uint64_t& out) {
  std::string raw;
  if (!raw_field(line, field, raw)) return false;
  // strtoull would silently wrap "-1"; these fields are never written
  // negative, so a sign means corruption.
  if (raw[0] == '-' || raw[0] == '+') return false;
  char* end = nullptr;
  out = std::strtoull(raw.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace jsonl

}  // namespace vosim
