#include "src/campaign/store.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/obs/manifest.hpp"

namespace vosim {

using jsonl::num;

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
  jsonl::Writer w;
  w.begin_object()
      .key("workload").str(cell.key.workload)
      .key("circuit").str(cell.key.circuit)
      .key("backend").str(cell.key.backend)
      .key("tclk_ns").num(cell.key.triad.tclk_ns)
      .key("vdd_v").num(cell.key.triad.vdd_v)
      .key("vbb_v").num(cell.key.triad.vbb_v)
      .key("seed").u64(cell.key.seed)
      .key("train_patterns").u64(cell.key.train_patterns)
      .key("characterize_patterns").u64(cell.key.characterize_patterns)
      .key("chip").u64(cell.key.chip)
      .key("metric").str(cell.metric)
      .key("quality").num(cell.quality)
      .key("normalized").num(cell.normalized)
      .key("energy_per_op_fj").num(cell.energy_per_op_fj)
      .key("baseline_fj").num(cell.baseline_fj)
      .key("ber").num(cell.ber)
      .key("adds").u64(cell.adds)
      .key("elapsed_s").num(cell.elapsed_s);
  if (!cell.culprits.empty()) w.key("culprits").str(cell.culprits);
  return w.end_object().take();
}

std::optional<CampaignCell> CampaignStore::parse_jsonl(
    const std::string& line) {
  const jsonl::Fields f(line);
  CampaignCell cell;
  if (!f.str("workload", cell.key.workload) ||
      !f.str("circuit", cell.key.circuit) ||
      !f.str("backend", cell.key.backend) ||
      !f.num("tclk_ns", cell.key.triad.tclk_ns) ||
      !f.num("vdd_v", cell.key.triad.vdd_v) ||
      !f.num("vbb_v", cell.key.triad.vbb_v) ||
      !f.u64("seed", cell.key.seed) ||
      !f.u64("train_patterns", cell.key.train_patterns) ||
      !f.u64("characterize_patterns", cell.key.characterize_patterns) ||
      !f.str("metric", cell.metric) ||
      !f.num("quality", cell.quality) ||
      !f.num("normalized", cell.normalized) ||
      !f.num("energy_per_op_fj", cell.energy_per_op_fj) ||
      !f.num("baseline_fj", cell.baseline_fj) ||
      !f.num("ber", cell.ber) ||
      !f.u64("adds", cell.adds) ||
      !f.num("elapsed_s", cell.elapsed_s))
    return std::nullopt;
  // Pre-fleet stores have no chip field: those cells are the nominal
  // die (chip 0). A present-but-garbled chip still rejects the line.
  if (f.has("chip") && !f.u64("chip", cell.key.chip)) return std::nullopt;
  // Optional provenance field (absent on provenance-free runs and on
  // every pre-provenance store).
  if (f.has("culprits") && !f.str("culprits", cell.culprits))
    return std::nullopt;
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
