#include "src/util/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace vosim {

namespace jsonl {

namespace {

constexpr std::size_t npos = std::string_view::npos;

/// num()'s form into `buf`; returns its end. %.17g always round-trips;
/// %.15g is tried first so common values stay readable. to_chars with
/// a precision prints exactly as printf's %.*g does in the C locale.
char* format_num(double v, char (&buf)[32]) {
  const auto print = [&](int precision) {
    return std::to_chars(buf, buf + sizeof buf, v,
                         std::chars_format::general, precision)
        .ptr;
  };
  char* end = print(15);
  double back = 0.0;
  const auto read = std::from_chars(buf, end, back);
  if (read.ec != std::errc() || back != v) end = print(17);
  return end;
}

/// Length of the valid UTF-8 sequence of two to four bytes starting at
/// text[at] (no overlong form, no surrogate, at most U+10FFFF), or 0.
std::size_t utf8_length(std::string_view text, std::size_t at) {
  const auto byte = [&](std::size_t i) {
    return at + i < text.size() ? static_cast<unsigned char>(text[at + i])
                                : 0u;
  };
  const auto cont = [&](std::size_t i) { return (byte(i) & 0xC0) == 0x80; };
  const unsigned c = byte(0);
  if (c >= 0xC2 && c <= 0xDF) return cont(1) ? 2 : 0;
  if (c >= 0xE0 && c <= 0xEF) {
    const unsigned lo = c == 0xE0 ? 0xA0 : 0x80;
    const unsigned hi = c == 0xED ? 0x9F : 0xBF;
    return byte(1) >= lo && byte(1) <= hi && cont(2) ? 3 : 0;
  }
  if (c >= 0xF0 && c <= 0xF4) {
    const unsigned lo = c == 0xF0 ? 0x90 : 0x80;
    const unsigned hi = c == 0xF4 ? 0x8F : 0xBF;
    return byte(1) >= lo && byte(1) <= hi && cont(2) && cont(3) ? 4 : 0;
  }
  return 0;
}

}  // namespace

std::string num(double v) {
  char buf[32];
  return std::string(buf, format_num(v, buf));
}

// ------------------------------------------------------------------ Writer

void Writer::separate() {
  if (comma_) out_ += ',';
  comma_ = true;
}

Writer& Writer::open(char bracket) {
  separate();
  out_ += bracket;
  comma_ = false;
  return *this;
}

Writer& Writer::close(char bracket) {
  out_ += bracket;
  comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view name) {
  separate();
  quote(name);
  out_ += ':';
  comma_ = false;
  return *this;
}

Writer& Writer::str(std::string_view text) {
  separate();
  quote(text);
  return *this;
}

Writer& Writer::num(double v) {
  if (!std::isfinite(v)) return raw("null");
  separate();
  char buf[32];
  out_.append(buf, format_num(v, buf));
  return *this;
}

Writer& Writer::u64(std::uint64_t v) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

Writer& Writer::i64(std::int64_t v) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

Writer& Writer::boolean(bool v) { return raw(v ? "true" : "false"); }

Writer& Writer::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

void Writer::quote(std::string_view text) {
  out_ += '"';
  std::size_t run = 0;  // start of the bytes copied as they are
  for (std::size_t i = 0; i < text.size();) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c < 0x80 && c != '"' && c != '\\') {
      ++i;
      continue;
    }
    if (c >= 0x80) {
      if (const std::size_t n = utf8_length(text, i)) {
        i += n;
        continue;
      }
    }
    out_.append(text.data() + run, i - run);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += "\\ufffd";
    }
    run = ++i;
  }
  out_.append(text.data() + run, text.size() - run);
  out_ += '"';
}

// ------------------------------------------------------------------ Fields

namespace {

/// Nesting a line may reach: deep enough for any document the program
/// reads, shallow enough that the recursive scan cannot exhaust a stack.
constexpr int kMaxDepth = 64;

std::size_t skip_space(std::string_view s, std::size_t at) {
  while (at < s.size() &&
         (s[at] == ' ' || s[at] == '\t' || s[at] == '\n' || s[at] == '\r'))
    ++at;
  return at;
}

/// The four hex digits at s[at], or -1.
long hex4(std::string_view s, std::size_t at) {
  if (at + 4 > s.size()) return -1;
  unsigned v = 0;
  const char* end = s.data() + at + 4;
  const auto r = std::from_chars(s.data() + at, end, v, 16);
  return r.ec == std::errc() && r.ptr == end ? static_cast<long>(v) : -1;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Scans the string literal whose opening quote is s[at]; returns the
/// index past its closing quote, or npos when it is unterminated or
/// holds a raw control character, an invalid escape or a lone
/// surrogate. With `out`, the decoded body is appended to it.
std::size_t scan_string(std::string_view s, std::size_t at,
                        std::string* out = nullptr) {
  static constexpr std::string_view kEscape = "\"\\/bfnrt";
  static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
  std::size_t run = at + 1;  // start of the bytes taken as they are
  for (std::size_t i = run; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '"') {
      if (out) out->append(s.data() + run, i - run);
      return i + 1;
    }
    if (c < 0x20) return npos;
    if (c != '\\') {
      ++i;
      continue;
    }
    if (out) out->append(s.data() + run, i - run);
    if (++i >= s.size()) return npos;
    const char e = s[i++];
    if (e == 'u') {
      long cp = hex4(s, i);
      if (cp < 0 || (cp >= 0xDC00 && cp < 0xE000)) return npos;
      i += 4;
      if (cp >= 0xD800 && cp < 0xDC00) {  // a low surrogate must follow
        const long lo = i + 1 < s.size() && s[i] == '\\' && s[i + 1] == 'u'
                            ? hex4(s, i + 2)
                            : -1;
        if (lo < 0xDC00 || lo >= 0xE000) return npos;
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        i += 6;
      }
      if (out) append_utf8(*out, static_cast<std::uint32_t>(cp));
    } else {
      const std::size_t k = kEscape.find(e);
      if (k == npos) return npos;
      if (out) *out += kDecoded[k];
    }
    run = i;
  }
  return npos;
}

/// Index past the JSON number at s[at], or npos.
std::size_t scan_number(std::string_view s, std::size_t at) {
  const auto digits = [&](std::size_t i) {
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i;
  };
  std::size_t i = at;
  if (i < s.size() && s[i] == '-') ++i;
  if (i >= s.size() || s[i] < '0' || s[i] > '9') return npos;
  i = s[i] == '0' ? i + 1 : digits(i);
  if (i < s.size() && s[i] == '.') {
    const std::size_t frac = digits(i + 1);
    if (frac == i + 1) return npos;
    i = frac;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    const std::size_t exp = digits(i);
    if (exp == i) return npos;
    i = exp;
  }
  return i;
}

using Members = std::vector<std::pair<std::string_view, std::string_view>>;

std::size_t scan_container(std::string_view s, std::size_t at, int depth,
                           Members* members);

/// Index past the value starting at s[at] — a string, number, true,
/// false, null, object or array — or npos when it is not valid JSON.
std::size_t scan_value(std::string_view s, std::size_t at, int depth) {
  if (at >= s.size()) return npos;
  switch (s[at]) {
    case '"':
      return scan_string(s, at);
    case '{':
    case '[':
      return depth < kMaxDepth ? scan_container(s, at, depth + 1, nullptr)
                               : npos;
    default:
      for (const std::string_view word : {"true", "false", "null"})
        if (s.substr(at, word.size()) == word) return at + word.size();
      return scan_number(s, at);
  }
}

/// Index past the object or array whose opening bracket is s[at], or
/// npos. With `members`, an object's members are appended to it (the
/// top level of a line).
std::size_t scan_container(std::string_view s, std::size_t at, int depth,
                           Members* members) {
  const bool object = s[at] == '{';
  const char close = object ? '}' : ']';
  at = skip_space(s, at + 1);
  if (at < s.size() && s[at] == close) return at + 1;
  while (true) {
    std::string_view key;
    if (object) {
      if (at >= s.size() || s[at] != '"') return npos;
      const std::size_t key_end = scan_string(s, at);
      if (key_end == npos) return npos;
      key = s.substr(at, key_end - at);
      at = skip_space(s, key_end);
      if (at >= s.size() || s[at] != ':') return npos;
      at = skip_space(s, at + 1);
    }
    const std::size_t end = scan_value(s, at, depth);
    if (end == npos) return npos;
    if (members) members->emplace_back(key, s.substr(at, end - at));
    at = skip_space(s, end);
    if (at < s.size() && s[at] == close) return at + 1;
    if (at >= s.size() || s[at] != ',') return npos;
    at = skip_space(s, at + 1);
  }
}

/// The body of the string literal `quoted`, escapes decoded, into `out`.
void unquote(std::string_view quoted, std::string& out) {
  out.clear();
  scan_string(quoted, 0, &out);
}

}  // namespace

Fields::Fields(const std::string& line) {
  members_.reserve(24);  // a store line has up to 19 fields
  const std::string_view s = line;
  const std::size_t at = skip_space(s, 0);
  const std::size_t end =
      at < s.size() && s[at] == '{' ? scan_container(s, at, 1, &members_)
                                    : npos;
  if (end == npos || skip_space(s, end) != s.size()) {
    members_.clear();
    return;
  }
  for (const auto& member : members_)
    escaped_keys_ |= member.first.find('\\') != npos;
}

const std::string_view* Fields::find(std::string_view field) const {
  for (const auto& [key, value] : members_) {
    if (key.size() == field.size() + 2 &&
        key.compare(1, field.size(), field) == 0)
      return &value;
    if (escaped_keys_ && key.find('\\') != npos) {
      std::string decoded;
      unquote(key, decoded);
      if (decoded == field) return &value;
    }
  }
  return nullptr;
}

bool Fields::raw(std::string_view field, std::string& out) const {
  const std::string_view* v = find(field);
  if (v == nullptr || (*v)[0] == '{' || (*v)[0] == '[') return false;
  if ((*v)[0] == '"')
    unquote(*v, out);
  else
    out.assign(*v);
  return true;
}

bool Fields::str(std::string_view field, std::string& out) const {
  const std::string_view* v = find(field);
  if (v == nullptr || (*v)[0] != '"') return false;
  unquote(*v, out);
  return true;
}

bool Fields::num(std::string_view field, double& out) const {
  const std::string_view* v = find(field);
  if (v == nullptr || ((*v)[0] != '-' && ((*v)[0] < '0' || (*v)[0] > '9')))
    return false;
  const auto [end, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  return ec == std::errc() && end == v->data() + v->size();
}

bool Fields::u64(std::string_view field, std::uint64_t& out) const {
  const std::string_view* v = find(field);
  if (v == nullptr) return false;
  // from_chars takes no sign and rejects a value past 64 bits, where
  // strtoull would wrap "-1" or saturate.
  const auto [end, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  return ec == std::errc() && end == v->data() + v->size();
}

bool Fields::boolean(std::string_view field, bool& out) const {
  const std::string_view* v = find(field);
  if (v == nullptr || (*v != "true" && *v != "false")) return false;
  out = *v == "true";
  return true;
}

}  // namespace jsonl

}  // namespace vosim
