// The one JSON codec of the program, shared by the campaign store and
// its merge tool, the serve daemon's wire format (src/serve) and the
// telemetry writers (src/obs).
//
// Writer builds one JSON value into a string. It alone places commas,
// colons and quotes and escapes strings, so every line the program
// writes is valid UTF-8 JSON. Fields reads the top-level members of one
// JSON object line in a single pass. It accepts any valid encoding of
// the object (whitespace, `\uXXXX` escapes with surrogate pairs,
// nested values it does not read) and rejects the line as a whole when
// it is not exactly one valid JSON object, so a torn line reads as
// empty.
#ifndef VOSIM_UTIL_JSONL_HPP
#define VOSIM_UTIL_JSONL_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vosim {
namespace jsonl {

/// Shortest round-trippable decimal form of a double: `%.15g` when it
/// reads back exactly, else `%.17g`.
std::string num(double v);

/// Builds one JSON value. Calls chain: an object is begin_object(),
/// then key() before each member's value, then end_object(). Strings
/// and keys are escaped: `"` and `\` get a backslash, control
/// characters become `\u00XX`, and each byte that is not part of valid
/// UTF-8 becomes `\ufffd`.
class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// The key of the next object member; the next call writes its value.
  Writer& key(std::string_view name);
  Writer& str(std::string_view text);
  /// num()'s form; a NaN or infinity (no JSON number) is written null.
  Writer& num(double v);
  Writer& u64(std::uint64_t v);
  Writer& i64(std::int64_t v);
  Writer& boolean(bool v);
  /// A value that is already JSON (a nested document), spliced as is.
  Writer& raw(std::string_view json);

  const std::string& text() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void separate();
  Writer& open(char bracket);
  Writer& close(char bracket);
  void quote(std::string_view text);

  std::string out_;
  bool comma_ = false;  ///< the next value or key follows a sibling
};

/// The top-level members of one JSON object line, read in one pass.
/// Members of nested objects and arrays, and text inside strings, are
/// no fields. The first member with a given key wins. The line must
/// outlive the reader.
class Fields {
 public:
  explicit Fields(const std::string& line);
  Fields(std::string&&) = delete;  // the views would dangle

  bool has(std::string_view field) const { return find(field) != nullptr; }
  /// A string value with its escapes decoded, or any other scalar
  /// (number, true, false, null) as written. False only when the field
  /// is absent or its value is an object or an array.
  bool raw(std::string_view field, std::string& out) const;
  /// Typed reads: false when the field is absent or holds another type.
  bool str(std::string_view field, std::string& out) const;
  bool num(std::string_view field, double& out) const;
  /// A non-negative integer that fits 64 bits.
  bool u64(std::string_view field, std::uint64_t& out) const;
  bool boolean(std::string_view field, bool& out) const;

 private:
  /// The value of `field` as written, or null when it is absent.
  const std::string_view* find(std::string_view field) const;

  /// (key as written with its quotes, value as written).
  std::vector<std::pair<std::string_view, std::string_view>> members_;
  bool escaped_keys_ = false;  ///< some key holds a backslash escape
};

/// One-field reads of a line.
inline bool raw_field(const std::string& line, const std::string& field,
                      std::string& out) {
  return Fields(line).raw(field, out);
}
inline bool u64_field(const std::string& line, const std::string& field,
                      std::uint64_t& out) {
  return Fields(line).u64(field, out);
}

}  // namespace jsonl

}  // namespace vosim

#endif  // VOSIM_UTIL_JSONL_HPP
