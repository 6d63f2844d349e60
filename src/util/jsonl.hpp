// Minimal JSONL helpers shared by the campaign store and its merge tool,
// the serve daemon's wire format (src/serve) and the telemetry writers
// (src/obs). The readers take one JSON object per line and read its
// top-level fields; quote() escapes free text on the way out.
#ifndef VOSIM_UTIL_JSONL_HPP
#define VOSIM_UTIL_JSONL_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vosim {
namespace jsonl {

/// Shortest round-trippable decimal form of a double.
std::string num(double v);
/// `text` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped and control characters become \u00XX, so any
/// byte string (an exception message, an echoed client token) splices
/// into a line as valid JSON.
std::string quote(std::string_view text);
/// The top-level fields of one JSON object line, read in one pass.
/// Keys inside nested objects and arrays, and text inside strings, are
/// no fields. A line that is not exactly one object closed by `}` (JSON
/// whitespace around it allowed) has no fields at all, so a torn line
/// reads as empty. The line must outlive the reader.
class Fields {
 public:
  explicit Fields(const std::string& line);
  Fields(std::string&&) = delete;  // the views would dangle
  /// The value of the first top-level `field`: a bare token (number,
  /// true, false, null) as written, or the body of a string with its
  /// two-character escapes decoded. False when the field is absent, or
  /// its value is an object, an array or a string holding a \u escape
  /// (not decoded).
  bool raw(std::string_view field, std::string& out) const;
  bool num(std::string_view field, double& out) const;
  bool u64(std::string_view field, std::uint64_t& out) const;

 private:
  std::vector<std::pair<std::string_view, std::string_view>> members_;
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
