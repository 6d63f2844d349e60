#include "src/obs/manifest.hpp"

#include <cstdlib>
#include <sstream>

#include "src/util/jsonl.hpp"

namespace vosim::obs {
namespace {

std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << v;
  return out.str();
}

}  // namespace

std::uint64_t RunManifest::config_hash() const noexcept {
  return fnv1a(config);
}

std::string RunManifest::to_jsonl() const {
  return jsonl::Writer()
      .begin_object()
      .key("vosim_manifest").u64(1)
      .key("store_version").i64(store_version)
      .key("tool").str(tool)
      .key("engine").str(engine)
      .key("lane_width").u64(lane_width)
      .key("shard").str(shard)
      .key("config_hash").str(hex64(config_hash()))
      .end_object()
      .take();
}

bool RunManifest::is_manifest_line(const std::string& line) {
  return jsonl::Fields(line).has("vosim_manifest");
}

std::optional<RunManifest> RunManifest::parse(const std::string& line) {
  const jsonl::Fields f(line);
  RunManifest m;
  if (!f.has("vosim_manifest") || !f.str("tool", m.tool)) return std::nullopt;
  f.str("engine", m.engine);
  f.str("shard", m.shard);
  std::string raw;
  std::uint64_t u = 0;
  if (f.u64("lane_width", u)) m.lane_width = u;
  double v = 0.0;
  if (f.num("store_version", v)) m.store_version = static_cast<int>(v);
  if (f.str("config_hash", raw))
    m.parsed_hash = std::strtoull(raw.c_str(), nullptr, 16);
  return m;
}

}  // namespace vosim::obs
