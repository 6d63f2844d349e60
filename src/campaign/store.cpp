#include "src/campaign/store.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/obs/manifest.hpp"

namespace vosim {

using jsonl::num;
using jsonl::num_field;
using jsonl::raw_field;
using jsonl::u64_field;

std::string CampaignCellKey::to_string() const {
  std::ostringstream os;
  os << workload << '|' << circuit << '|' << backend << '|'
     << num(triad.tclk_ns) << ',' << num(triad.vdd_v) << ','
     << num(triad.vbb_v) << '|' << seed << '|' << train_patterns << '|'
     << characterize_patterns << '|' << chip;
  return os.str();
}

CampaignStore::CampaignStore(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  if (!in) return;  // a fresh store: the file appears on first insert
  std::string line;
  while (std::getline(in, line)) {
    const auto cell = parse_jsonl(line);
    if (cell.has_value()) {
      cells_.insert_or_assign(cell->key.to_string(), *cell);
    } else if (obs::RunManifest::is_manifest_line(line)) {
      manifest_line_ = line;  // last manifest wins, like cells
    }
  }
}

const std::string& CampaignStore::manifest_line() const {
  std::lock_guard<std::mutex> lock(m_);
  return manifest_line_;
}

void CampaignStore::write_header(const std::string& line) {
  std::lock_guard<std::mutex> lock(m_);
  if (path_.empty() || !manifest_line_.empty()) return;
  std::ofstream out(path_, std::ios::app);
  if (!out)
    throw std::runtime_error("campaign store: cannot append to " + path_);
  out << line << '\n';
  manifest_line_ = line;
}

std::size_t CampaignStore::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return cells_.size();
}

std::optional<CampaignCell> CampaignStore::find(
    const CampaignCellKey& key) const {
  std::lock_guard<std::mutex> lock(m_);
  const auto it = cells_.find(key.to_string());
  if (it == cells_.end()) return std::nullopt;
  return it->second;
}

void CampaignStore::insert(const CampaignCell& cell) {
  std::lock_guard<std::mutex> lock(m_);
  cells_.insert_or_assign(cell.key.to_string(), cell);
  if (path_.empty()) return;
  std::ofstream out(path_, std::ios::app);
  if (!out)
    throw std::runtime_error("campaign store: cannot append to " + path_);
  out << to_jsonl(cell) << '\n';
  out.flush();
}

std::vector<CampaignCell> CampaignStore::cells() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<CampaignCell> out;
  out.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) out.push_back(cell);
  return out;
}

std::string CampaignStore::to_jsonl(const CampaignCell& cell) {
  // Names are identifiers (registry tokens), so no string escaping is
  // needed; parse_jsonl rejects anything it did not write.
  std::ostringstream os;
  os << "{\"workload\":\"" << cell.key.workload << "\""
     << ",\"circuit\":\"" << cell.key.circuit << "\""
     << ",\"backend\":\"" << cell.key.backend << "\""
     << ",\"tclk_ns\":" << num(cell.key.triad.tclk_ns)
     << ",\"vdd_v\":" << num(cell.key.triad.vdd_v)
     << ",\"vbb_v\":" << num(cell.key.triad.vbb_v)
     << ",\"seed\":" << cell.key.seed
     << ",\"train_patterns\":" << cell.key.train_patterns
     << ",\"characterize_patterns\":" << cell.key.characterize_patterns
     << ",\"chip\":" << cell.key.chip
     << ",\"metric\":\"" << cell.metric << "\""
     << ",\"quality\":" << num(cell.quality)
     << ",\"normalized\":" << num(cell.normalized)
     << ",\"energy_per_op_fj\":" << num(cell.energy_per_op_fj)
     << ",\"baseline_fj\":" << num(cell.baseline_fj)
     << ",\"ber\":" << num(cell.ber)
     << ",\"adds\":" << cell.adds
     << ",\"elapsed_s\":" << num(cell.elapsed_s);
  if (!cell.culprits.empty()) os << ",\"culprits\":\"" << cell.culprits << "\"";
  os << "}";
  return os.str();
}

std::optional<CampaignCell> CampaignStore::parse_jsonl(
    const std::string& line) {
  CampaignCell cell;
  if (!raw_field(line, "workload", cell.key.workload) ||
      !raw_field(line, "circuit", cell.key.circuit) ||
      !raw_field(line, "backend", cell.key.backend) ||
      !num_field(line, "tclk_ns", cell.key.triad.tclk_ns) ||
      !num_field(line, "vdd_v", cell.key.triad.vdd_v) ||
      !num_field(line, "vbb_v", cell.key.triad.vbb_v) ||
      !u64_field(line, "seed", cell.key.seed) ||
      !u64_field(line, "train_patterns", cell.key.train_patterns) ||
      !u64_field(line, "characterize_patterns",
                 cell.key.characterize_patterns) ||
      !raw_field(line, "metric", cell.metric) ||
      !num_field(line, "quality", cell.quality) ||
      !num_field(line, "normalized", cell.normalized) ||
      !num_field(line, "energy_per_op_fj", cell.energy_per_op_fj) ||
      !num_field(line, "baseline_fj", cell.baseline_fj) ||
      !num_field(line, "ber", cell.ber) ||
      !u64_field(line, "adds", cell.adds) ||
      !num_field(line, "elapsed_s", cell.elapsed_s))
    return std::nullopt;
  // Pre-fleet stores have no chip field: those cells are the nominal
  // die (chip 0). A present-but-garbled chip still rejects the line.
  std::string chip_raw;
  if (raw_field(line, "chip", chip_raw)) {
    if (!u64_field(line, "chip", cell.key.chip)) return std::nullopt;
  } else {
    cell.key.chip = 0;
  }
  // Optional provenance field (absent on provenance-free runs and on
  // every pre-provenance store).
  if (!raw_field(line, "culprits", cell.culprits)) cell.culprits.clear();
  return cell;
}

MergeStats merge_stores(const std::vector<std::string>& inputs,
                        const std::string& out_path,
                        bool strip_timing) {
  MergeStats stats;
  std::map<std::string, CampaignCell> merged;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in)
      throw std::runtime_error("merge-store: cannot read " + path);
    ++stats.files;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++stats.lines;
      auto cell = CampaignStore::parse_jsonl(line);
      if (!cell.has_value()) {
        // Run-manifest headers describe one producing run, so a merged
        // store keeps none of them; they are excluded, not "malformed".
        if (obs::RunManifest::is_manifest_line(line)) {
          ++stats.manifests;
        } else {
          ++stats.skipped;
        }
        continue;
      }
      merged.insert_or_assign(cell->key.to_string(), *cell);
    }
  }
  std::ofstream out(out_path, std::ios::trunc);
  if (!out)
    throw std::runtime_error("merge-store: cannot write " + out_path);
  for (auto& [key, cell] : merged) {
    if (strip_timing) cell.elapsed_s = 0.0;
    out << CampaignStore::to_jsonl(cell) << '\n';
  }
  stats.cells = merged.size();
  return stats;
}

}  // namespace vosim
