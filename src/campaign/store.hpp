// Content-keyed JSONL result store — what makes campaigns resumable.
//
// Every finished campaign cell is appended to a JSONL file as one
// self-describing line keyed by the cell's content (workload, circuit,
// backend, triad, seed, training budget). On construction the store
// loads every valid line, so a re-run of the same campaign finds its
// finished cells by key and recomputes only the missing ones
// (append-on-complete, load-on-start; DESIGN.md §9). The store is
// thread-safe: the campaign runner inserts from pool workers.
#ifndef VOSIM_CAMPAIGN_STORE_HPP
#define VOSIM_CAMPAIGN_STORE_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/tech/operating_point.hpp"
#include "src/util/jsonl.hpp"

namespace vosim {

/// Identity of one campaign cell. Two runs that agree on every field
/// compute the same quality value (the grid is deterministic), so the
/// canonical string below is a safe cache key.
struct CampaignCellKey {
  std::string workload;
  std::string circuit;
  std::string backend;          ///< arith_backend_name() token
  OperatingTriad triad;
  std::uint64_t seed = 0;       ///< campaign seed
  std::uint64_t train_patterns = 0;  ///< model-training budget (0 when
                                     ///< the backend trains nothing)
  std::uint64_t characterize_patterns = 0;  ///< energy/BER join budget
  /// Fleet chip instance (0 = the nominal die, the pre-fleet grid).
  /// Chip i's process corner is content-hashed from the fleet seed
  /// (src/fleet), so the id alone names the die.
  std::uint64_t chip = 0;

  /// Canonical content key, e.g.
  /// "fir|rca16|model|0.53,0.5,2|1|4000|2000|0".
  std::string to_string() const;

  friend bool operator==(const CampaignCellKey&,
                         const CampaignCellKey&) = default;
};

/// One finished cell: key plus the measured quality and the joined
/// per-op energy/BER of the cell's (circuit, triad) characterization.
struct CampaignCell {
  CampaignCellKey key;
  std::string metric;           ///< QualityResult metric token
  double quality = 0.0;         ///< metric's native unit
  double normalized = 0.0;      ///< [0, 1] quality score
  double energy_per_op_fj = 0.0;
  double baseline_fj = 0.0;     ///< circuit's relaxed-nominal energy/op
  double ber = 0.0;             ///< adder BER at this triad
  std::uint64_t adds = 0;       ///< routed additions in the workload run
  double elapsed_s = 0.0;
  /// Top-K culprit nets of the cell's sim run ("net=bits,net=bits",
  /// stage-prefixed for sim-seq) — filled only when the campaign ran
  /// with provenance on a gate-level backend; empty otherwise. The
  /// JSONL field is omitted when empty and tolerated when absent, so
  /// provenance-free stores round-trip byte-identically.
  std::string culprits;
};

/// JSONL persistence + in-memory index of campaign cells.
class CampaignStore {
 public:
  /// In-memory store (no persistence) — used by examples and tests.
  CampaignStore() = default;
  /// Backed by `path`: loads every parseable line (last occurrence of a
  /// key wins, malformed lines are skipped), appends on insert.
  explicit CampaignStore(std::string path);

  const std::string& path() const noexcept { return path_; }
  std::size_t size() const;

  /// Finished cell for this key, or nullopt.
  std::optional<CampaignCell> find(const CampaignCellKey& key) const;

  /// The cell's canonical line, to_jsonl(*find(key)), or nullopt: the
  /// parsed cell re-serialized, never the bytes its file held. The
  /// first call for a key serializes the line and keeps it beside the
  /// cell, so a daemon serves a warm cell without re-serializing it;
  /// an insert of the key replaces the entry and drops its line. Load
  /// and insert never fill it, so a store nobody serves holds no lines
  /// and a served one at most one per cell. Thread-safe.
  std::optional<std::string> line(const CampaignCellKey& key);

  /// Records a finished cell: indexes it and (when file-backed) appends
  /// its JSONL line immediately, so a killed campaign keeps everything
  /// completed so far. Thread-safe.
  void insert(const CampaignCell& cell);

  /// All cells in canonical key order.
  std::vector<CampaignCell> cells() const;

  /// Run-manifest header line found on load ("" when none — every
  /// pre-manifest store). Manifest lines are intentionally not
  /// parseable as cells, so old readers skip them (see src/obs).
  const std::string& manifest_line() const;

  /// Writes `line` as the store's manifest header. Appends only when
  /// the store is file-backed and no manifest is present yet, so
  /// re-running a campaign against an existing store never duplicates
  /// the header (first writer wins, like the cells it describes).
  void write_header(const std::string& line);

  /// One cell as a single JSONL line (no trailing newline).
  static std::string to_jsonl(const CampaignCell& cell);
  /// Parses a line written by to_jsonl (or the same object re-spaced);
  /// nullopt when malformed or torn short of its closing `}`.
  static std::optional<CampaignCell> parse_jsonl(const std::string& line);

 private:
  struct Entry {
    CampaignCell cell;
    std::string line;  ///< to_jsonl(cell) once line() asked; else ""
  };

  mutable std::mutex m_;
  std::string path_;
  std::string manifest_line_;
  std::map<std::string, Entry> cells_;
};

/// merge_stores accounting.
struct MergeStats {
  std::size_t files = 0;      ///< input files read
  std::size_t lines = 0;      ///< lines seen across all inputs
  std::size_t skipped = 0;    ///< malformed lines dropped
  std::size_t manifests = 0;  ///< run-manifest headers excluded
  std::size_t cells = 0;      ///< unique cells written to the output
};

/// Content-keyed merge of shard-local stores: reads every input in
/// order (later files — and later lines within a file — win on key
/// collisions, the store's own last-write-wins rule) and writes the
/// union to `out_path` in canonical key order. Because the output
/// order is canonical rather than append order, merging a single store
/// with itself canonicalizes it — which is how shard-vs-single-process
/// equivalence is checked byte-for-byte (run_benches.sh fleet gate).
/// `strip_timing` zeroes the wall-clock `elapsed_s` field, the one
/// value that legitimately differs between equivalent runs. Throws
/// std::runtime_error on an unreadable input or unwritable output.
MergeStats merge_stores(const std::vector<std::string>& inputs,
                        const std::string& out_path,
                        bool strip_timing = false);

}  // namespace vosim

#endif  // VOSIM_CAMPAIGN_STORE_HPP
