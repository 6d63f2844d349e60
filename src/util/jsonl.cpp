#include "src/util/jsonl.hpp"

#include <algorithm>
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

constexpr std::size_t npos = std::string_view::npos;

std::size_t skip_space(std::string_view line, std::size_t at) {
  return std::min(line.size(), line.find_first_not_of(" \t\n\r", at));
}

/// Scans the string literal whose opening quote is line[at]; returns
/// the index past its closing quote, or npos when it is unterminated or
/// holds an invalid escape. With `out`, the body is decoded into it and
/// `unicode` is set when it holds a \u escape (left undecoded).
std::size_t scan_string(std::string_view line, std::size_t at,
                        std::string* out = nullptr,
                        bool* unicode = nullptr) {
  static constexpr std::string_view kEscape = "\"\\/bfnrt";
  static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
  for (std::size_t i = at + 1; i < line.size(); ++i) {
    char c = line[i];
    if (c == '"') return i + 1;
    if (c == '\\') {
      if (++i >= line.size()) return npos;
      if (line[i] == 'u') {  // its four hex digits scan as text
        if (unicode) *unicode = true;
        continue;
      }
      const std::size_t e = kEscape.find(line[i]);
      if (e == npos) return npos;
      c = kDecoded[e];
    }
    if (out) *out += c;
  }
  return npos;
}

/// Index past the value starting at line[at] — a string, a nested
/// object or array, or a bare token (number, true, false, null) — or
/// npos when it is empty, unterminated or holds a bad string.
std::size_t skip_value(std::string_view line, std::size_t at) {
  if (line[at] == '"') return scan_string(line, at);
  if (line[at] != '{' && line[at] != '[') {
    const std::size_t end =
        std::min(line.size(), line.find_first_of(" \t\n\r,:{}[]\"", at));
    return end == at ? npos : end;
  }
  int depth = 0;
  for (std::size_t i = at; i < line.size(); ++i) {
    if (line[i] == '"') {
      i = scan_string(line, i);
      if (i == npos) return npos;
      --i;  // the loop steps past the closing quote
    } else if (line[i] == '{' || line[i] == '[') {
      ++depth;
    } else if ((line[i] == '}' || line[i] == ']') && --depth == 0) {
      return i + 1;
    }
  }
  return npos;
}

/// Members of the object `line` holds, or none when it holds no object.
std::vector<std::pair<std::string_view, std::string_view>> parse_members(
    std::string_view line) {
  std::vector<std::pair<std::string_view, std::string_view>> members;
  members.reserve(24);  // a store line has up to 19 fields
  std::size_t at = skip_space(line, 0);
  if (at >= line.size() || line[at] != '{') return {};
  at = skip_space(line, at + 1);
  while (at < line.size() && line[at] == '"') {
    const std::size_t key_end = scan_string(line, at);
    if (key_end == npos) return {};
    // Keys are kept as written: the fields read here are identifiers,
    // which no escaped key spells.
    const std::string_view key = line.substr(at + 1, key_end - at - 2);
    at = skip_space(line, key_end);
    if (at >= line.size() || line[at] != ':') return {};
    at = skip_space(line, at + 1);
    if (at >= line.size()) return {};
    const std::size_t end = skip_value(line, at);
    if (end == npos) return {};
    members.emplace_back(key, line.substr(at, end - at));
    at = skip_space(line, end);
    if (at >= line.size() || line[at] != ',') break;
    at = skip_space(line, at + 1);
    if (at >= line.size() || line[at] != '"') return {};
  }
  if (at >= line.size() || line[at] != '}' ||
      skip_space(line, at + 1) != line.size())
    return {};
  return members;
}

}  // namespace

Fields::Fields(const std::string& line) : members_(parse_members(line)) {}

bool Fields::raw(std::string_view field, std::string& out) const {
  const auto it = std::find_if(
      members_.begin(), members_.end(),
      [field](const auto& m) { return m.first == field; });
  if (it == members_.end()) return false;
  const std::string_view v = it->second;
  if (v[0] == '{' || v[0] == '[') return false;
  if (v[0] != '"') {
    out.assign(v);
    return true;
  }
  std::string body;
  bool unicode = false;
  scan_string(v, 0, &body, &unicode);
  if (unicode) return false;
  out = std::move(body);
  return true;
}

bool Fields::num(std::string_view field, double& out) const {
  std::string raw;
  if (!this->raw(field, raw)) return false;
  char* end = nullptr;
  out = std::strtod(raw.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool Fields::u64(std::string_view field, std::uint64_t& out) const {
  std::string raw;
  if (!this->raw(field, raw)) return false;
  // strtoull would silently wrap "-1"; these fields are never written
  // negative, so a sign means corruption.
  if (raw[0] == '-' || raw[0] == '+') return false;
  char* end = nullptr;
  out = std::strtoull(raw.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace jsonl

}  // namespace vosim
