// Minimal JSONL helpers shared by the campaign store and its merge tool,
// the serve daemon's wire format (src/serve) and the telemetry writers
// (src/obs). The readers only handle the flat object lines this codebase
// writes — identifiers and numbers, no escapes or nesting; quote()
// escapes free text on the way out.
#ifndef VOSIM_UTIL_JSONL_HPP
#define VOSIM_UTIL_JSONL_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace vosim {
namespace jsonl {

/// Shortest round-trippable decimal form of a double.
std::string num(double v);
/// `text` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped and control characters become \u00XX, so any
/// byte string (an exception message, an echoed client token) splices
/// into a line as valid JSON.
std::string quote(std::string_view text);
/// Extracts the raw token after `"field":` — a number, or the body of
/// a quoted string. Returns false when the field is absent.
bool raw_field(const std::string& line, const std::string& field,
               std::string& out);
bool num_field(const std::string& line, const std::string& field,
               double& out);
bool u64_field(const std::string& line, const std::string& field,
               std::uint64_t& out);

}  // namespace jsonl

}  // namespace vosim

#endif  // VOSIM_UTIL_JSONL_HPP
