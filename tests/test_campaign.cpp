// Campaign subsystem tests: workload registry, JSONL store round-trip
// and resume, cache-hit identity across thread counts, Pareto
// extraction, model-vs-gate-level quality agreement, and the
// determinism the content-keyed cache depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/campaign/report.hpp"
#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/campaign/workload.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/probe.hpp"
#include "src/characterize/triads.hpp"
#include "src/model/prob_table.hpp"
#include "src/netlist/dut.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/tech/library.hpp"

namespace vosim {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// A probabilistic table (chains may fall short by two) so the model's
/// Rng actually matters.
VosAdderModel lossy_model(int width) {
  const auto n = static_cast<std::size_t>(width) + 1;
  std::vector<std::vector<std::uint64_t>> counts(
      n, std::vector<std::uint64_t>(n, 0));
  for (int l = 0; l <= width; ++l) {
    counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(l)] = 1;
    if (l >= 6)
      counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(l - 2)] =
          1;
  }
  return VosAdderModel(16, {0.3, 0.5, 0.0}, DistanceMetric::kMse,
                       CarryChainProbTable::from_counts(width, counts));
}

// -------------------------------------------------------------- registry
TEST(WorkloadRegistry, KnowsTheFiveAppKernels) {
  const auto& reg = workload_registry();
  ASSERT_EQ(reg.size(), 5u);
  for (const char* name : {"fir", "blur", "sobel", "kmeans", "dot"}) {
    const Workload* w = find_workload(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->width, 16) << name;
    EXPECT_TRUE(static_cast<bool>(w->run)) << name;
  }
  EXPECT_EQ(find_workload("nope"), nullptr);
  EXPECT_EQ(resolve_workloads({"all"}).size(), reg.size());
  EXPECT_EQ(resolve_workloads({"fir", "dot"}).size(), 2u);
  EXPECT_THROW(resolve_workloads({"fir", "nope"}), std::invalid_argument);
  EXPECT_THROW(resolve_workloads({}), std::invalid_argument);
}

TEST(WorkloadRegistry, ExactAdderRunsAreDeterministicAndTopQuality) {
  for (const Workload& w : workload_registry()) {
    const QualityResult a = w.run(exact_adder_fn(w.width), 7);
    const QualityResult b = w.run(exact_adder_fn(w.width), 7);
    EXPECT_EQ(a.value, b.value) << w.name;
    EXPECT_EQ(a.adds, b.adds) << w.name;
    EXPECT_GT(a.adds, 0u) << w.name;
    EXPECT_GE(a.normalized, 0.0) << w.name;
    EXPECT_LE(a.normalized, 1.0) << w.name;
    EXPECT_EQ(a.metric, w.metric) << w.name;
    // Exact arithmetic: reference-equal output for the error-metric
    // workloads (kmeans scores against ground-truth labels instead,
    // so "exact" need not be perfect — only near it).
    if (w.name != "kmeans")
      EXPECT_DOUBLE_EQ(a.normalized, 1.0) << w.name;
    else
      EXPECT_GE(a.normalized, 0.8) << w.name;
  }
}

TEST(WorkloadRegistry, SeedChangesStimuli) {
  // Through a lossy adder the injected errors land on different data,
  // so the quality outcome must move with the seed (exact runs cannot
  // show this: their quality is reference-equal for every seed).
  const Workload* fir = find_workload("fir");
  ASSERT_NE(fir, nullptr);
  auto run_with_seed = [&](std::uint64_t seed) {
    const VosAdderModel model = lossy_model(16);
    Rng rng(99);
    return fir->run(model_adder_fn(model, rng), seed).value;
  };
  EXPECT_NE(run_with_seed(7), run_with_seed(8));
}

TEST(WorkloadRegistry, NormalizedQualityMapping) {
  EXPECT_DOUBLE_EQ(normalized_quality("snr_db", 30.0), 0.5);
  EXPECT_DOUBLE_EQ(normalized_quality("psnr_db", 1e9), 1.0);
  EXPECT_DOUBLE_EQ(normalized_quality("snr_db", -5.0), 0.0);
  EXPECT_DOUBLE_EQ(normalized_quality("accuracy", 0.42), 0.42);
  EXPECT_DOUBLE_EQ(normalized_quality("mred", 0.1), 0.9);
  EXPECT_DOUBLE_EQ(normalized_quality("mred", 2.0), 0.0);
  EXPECT_THROW(normalized_quality("watts", 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- backend
TEST(ArithBackends, ParseAndNameRoundTrip) {
  for (const ArithBackend b :
       {ArithBackend::kExact, ArithBackend::kModel, ArithBackend::kSimEvent,
        ArithBackend::kSimLevelized, ArithBackend::kSimSeq})
    EXPECT_EQ(parse_arith_backend(arith_backend_name(b)), b);
  EXPECT_EQ(parse_arith_backend("sim"), ArithBackend::kSimLevelized);
  EXPECT_THROW(parse_arith_backend("spice"), std::invalid_argument);
}

// ------------------------------------------------------------------ store
CampaignCell sample_cell() {
  CampaignCell cell;
  cell.key.workload = "fir";
  cell.key.circuit = "rca16";
  cell.key.backend = "model";
  cell.key.triad = {0.1 + 0.2, 0.7, 2.0};  // non-representable double
  cell.key.seed = 42;
  cell.key.train_patterns = 4000;
  cell.metric = "snr_db";
  cell.quality = 23.456789012345678;
  cell.normalized = 0.3909464835390946;
  cell.energy_per_op_fj = 12.25;
  cell.baseline_fj = 57.5;
  cell.ber = 1e-17;
  cell.adds = 4608;
  cell.elapsed_s = 0.25;
  return cell;
}

TEST(CampaignStore, JsonlRoundTripIsExact) {
  const CampaignCell cell = sample_cell();
  const auto parsed = CampaignStore::parse_jsonl(
      CampaignStore::to_jsonl(cell));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key, cell.key);
  EXPECT_EQ(parsed->key.to_string(), cell.key.to_string());
  EXPECT_EQ(parsed->metric, cell.metric);
  EXPECT_EQ(parsed->quality, cell.quality);
  EXPECT_EQ(parsed->normalized, cell.normalized);
  EXPECT_EQ(parsed->energy_per_op_fj, cell.energy_per_op_fj);
  EXPECT_EQ(parsed->baseline_fj, cell.baseline_fj);
  EXPECT_EQ(parsed->ber, cell.ber);
  EXPECT_EQ(parsed->adds, cell.adds);
  EXPECT_EQ(parsed->elapsed_s, cell.elapsed_s);
}

/// `line` with whitespace after every `:` and `,` outside strings, as a
/// JSON pretty-printer or another client might write it.
std::string respaced(const std::string& line) {
  std::string spaced;
  bool in_string = false;
  for (const char c : line) {
    spaced += c;
    if (c == '"') in_string = !in_string;
    if (!in_string && (c == ':' || c == ',')) spaced += " \t";
  }
  return spaced;
}

// A re-spaced stored line parses to the same cell.
TEST(CampaignStore, JsonlParsesRespacedLine) {
  CampaignCell cell = sample_cell();
  cell.key.chip = 3;
  cell.culprits = "s3=4,c7=2";
  const std::string line = CampaignStore::to_jsonl(cell);
  const std::string spaced = respaced(line);
  ASSERT_NE(spaced, line);
  const auto parsed = CampaignStore::parse_jsonl(spaced);
  ASSERT_TRUE(parsed.has_value()) << spaced;
  EXPECT_EQ(parsed->key, cell.key);
  EXPECT_EQ(CampaignStore::to_jsonl(*parsed), line);
}

TEST(CampaignStore, RejectsMalformedLines) {
  EXPECT_FALSE(CampaignStore::parse_jsonl("").has_value());
  EXPECT_FALSE(CampaignStore::parse_jsonl("not json").has_value());
  EXPECT_FALSE(
      CampaignStore::parse_jsonl("{\"workload\":\"fir\"}").has_value());
  // A numeric field holding garbage.
  std::string line = CampaignStore::to_jsonl(sample_cell());
  const auto at = line.find("\"quality\":");
  line.replace(at, std::string("\"quality\":").size(), "\"quality\":x");
  EXPECT_FALSE(CampaignStore::parse_jsonl(line).has_value());
  // An unsigned field gone negative must not wrap through strtoull.
  std::string neg = CampaignStore::to_jsonl(sample_cell());
  const auto seed_at = neg.find("\"seed\":42");
  neg.replace(seed_at, std::string("\"seed\":42").size(), "\"seed\":-1");
  EXPECT_FALSE(CampaignStore::parse_jsonl(neg).has_value());
}

// A store line torn anywhere (a crash mid-append) is not a cell: no
// strict prefix of a line with every field present parses, so a cut
// inside `culprits` cannot load with its culprits dropped, nor a cut
// inside `elapsed_s` with a shortened value.
TEST(CampaignStore, RejectsEveryTornPrefix) {
  CampaignCell cell = sample_cell();
  cell.key.chip = 3;
  cell.culprits = "s3=4,c7=2";
  const std::string line = CampaignStore::to_jsonl(cell);
  ASSERT_TRUE(CampaignStore::parse_jsonl(line).has_value());
  ASSERT_TRUE(CampaignStore::parse_jsonl(line + " \r").has_value());
  for (std::size_t n = 0; n < line.size(); ++n)
    EXPECT_FALSE(CampaignStore::parse_jsonl(line.substr(0, n)).has_value())
        << line.substr(0, n);
}

TEST(CampaignStore, LoadOnStartSkipsGarbageAndKeepsLastWrite) {
  const std::string path = temp_path("store_roundtrip.jsonl");
  std::remove(path.c_str());
  {
    CampaignStore store(path);
    EXPECT_EQ(store.size(), 0u);
    CampaignCell cell = sample_cell();
    store.insert(cell);
    cell.key.backend = "exact";
    cell.quality = 60.0;
    store.insert(cell);
  }
  // Corrupt the file with a partial line and a rewrite of the first key.
  {
    std::ofstream f(path, std::ios::app);
    f << "{\"workload\":\"fir\",\"circu\n";
    CampaignCell updated = sample_cell();
    updated.quality = 99.0;
    f << CampaignStore::to_jsonl(updated) << "\n";
  }
  CampaignStore reopened(path);
  EXPECT_EQ(reopened.size(), 2u);
  const auto hit = reopened.find(sample_cell().key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->quality, 99.0);  // last occurrence wins
  std::remove(path.c_str());
}

// The cache key's bytes: names, num() doubles (0.1 + 0.2 needs 17
// digits) and decimal counts, separated by `|` and `,`.
TEST(CampaignStore, KeyStringBytesArePinned) {
  CampaignCellKey key = sample_cell().key;
  key.characterize_patterns = 2000;
  key.chip = UINT64_MAX;
  EXPECT_EQ(key.to_string(),
            "fir|rca16|model|0.30000000000000004,0.7,2|42|4000|2000|"
            "18446744073709551615");
  EXPECT_EQ(CampaignCellKey{}.to_string(), "|||0,1,0|0|0|0|0");
}

// line() is to_jsonl of the parsed cell, whatever spacing the file held
// and however often it is asked for, and an insert of its key replaces
// it.
TEST(CampaignStore, LineIsCanonicalAndFollowsInserts) {
  const std::string path = temp_path("store_line.jsonl");
  std::remove(path.c_str());
  const CampaignCell cell = sample_cell();
  const std::string canonical = CampaignStore::to_jsonl(cell);
  {
    std::ofstream f(path);
    f << respaced(canonical) << "\n";
  }
  CampaignStore store(path);
  EXPECT_FALSE(store.line(CampaignCellKey{}).has_value());
  EXPECT_EQ(store.line(cell.key), canonical);
  EXPECT_EQ(store.line(cell.key), canonical);
  CampaignCell updated = cell;
  updated.quality = 99.0;
  store.insert(updated);
  EXPECT_EQ(store.line(cell.key), CampaignStore::to_jsonl(updated));
  EXPECT_EQ(store.find(cell.key)->quality, 99.0);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- pareto
CampaignCell point(double energy, double norm) {
  CampaignCell cell;
  cell.key.workload = "fir";
  cell.key.backend = "model";
  cell.energy_per_op_fj = energy;
  cell.normalized = norm;
  return cell;
}

TEST(CampaignReport, ParetoFrontDropsDominatedCells) {
  const std::vector<CampaignCell> cells = {
      point(30.0, 1.0), point(15.0, 0.4), point(20.0, 0.9),
      point(10.0, 0.5), point(20.0, 0.8), point(25.0, 0.9)};
  const auto front = pareto_front(cells);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(front[0].energy_per_op_fj, 10.0);
  EXPECT_DOUBLE_EQ(front[0].normalized, 0.5);
  EXPECT_DOUBLE_EQ(front[1].energy_per_op_fj, 20.0);
  EXPECT_DOUBLE_EQ(front[1].normalized, 0.9);
  EXPECT_DOUBLE_EQ(front[2].energy_per_op_fj, 30.0);
  EXPECT_DOUBLE_EQ(front[2].normalized, 1.0);
}

TEST(CampaignReport, MinEnergyAtFloor) {
  const std::vector<CampaignCell> cells = {
      point(30.0, 1.0), point(20.0, 0.9), point(10.0, 0.5)};
  const auto pick = min_energy_at_floor(cells, 0.85);
  ASSERT_TRUE(pick.has_value());
  EXPECT_DOUBLE_EQ(pick->energy_per_op_fj, 20.0);
  EXPECT_FALSE(min_energy_at_floor(cells, 1.0 + 1e-9).has_value());
}

// ----------------------------------------------------------------- triads
TEST(CampaignTriads, CircuitTriadsMatchPaperForExactAdders) {
  const DutNetlist rca = build_circuit("rca8");
  const auto triads = make_circuit_triads(rca, 1.0);
  const auto expect = make_paper_triads(AdderArch::kRipple, 8, 1.0);
  ASSERT_EQ(triads.size(), 43u);
  EXPECT_EQ(triads, expect);
  // Non-adder DUTs get the generic grid.
  const DutNetlist mul = build_circuit("mul8-array");
  EXPECT_EQ(make_circuit_triads(mul, 1.0), make_dut_triads(1.0));
}

// ------------------------------------------------------------ determinism
TEST(CampaignDeterminism, ModelAdderStreamReproducesPerSeed) {
  const VosAdderModel model = lossy_model(16);
  std::vector<std::uint64_t> first;
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(2024);
    const AdderFn add = model_adder_fn(model, rng);
    Rng data(5);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 2000; ++i)
      out.push_back(add(data.bits(16), data.bits(16)));
    if (pass == 0) {
      first = out;
    } else {
      EXPECT_EQ(out, first);  // identical injected-error stream
    }
  }
  // A different model seed must produce a different stream somewhere.
  Rng rng(2025);
  const AdderFn add = model_adder_fn(model, rng);
  Rng data(5);
  std::vector<std::uint64_t> other;
  for (int i = 0; i < 2000; ++i)
    other.push_back(add(data.bits(16), data.bits(16)));
  EXPECT_NE(other, first);
}

// ----------------------------------------------------------- campaign runs
CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kModel};
  // Nominal + one error-free FBB point + one stressed supply.
  cfg.triad_specs = {{1.0, 1.0, 0.0}, {1.0, 0.6, 2.0}, {1.0, 0.65, 0.0}};
  cfg.characterize_patterns = 300;
  cfg.train_patterns = 1500;
  return cfg;
}

TEST(CampaignRunner, ResumeRecomputesOnlyMissingCells) {
  const std::string path = temp_path("campaign_resume.jsonl");
  std::remove(path.c_str());
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();

  CampaignStore store(path);
  const CampaignOutcome first = run_campaign(lib, cfg, store);
  EXPECT_EQ(first.cells.size(), 3u);
  EXPECT_EQ(first.computed, 3u);
  EXPECT_EQ(first.reused, 0u);

  // Full resume: nothing recomputed, identical cells.
  CampaignStore reopened(path);
  const CampaignOutcome second = run_campaign(lib, cfg, reopened);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.reused, 3u);
  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(second.cells[i].key.to_string(),
              first.cells[i].key.to_string());
    EXPECT_EQ(second.cells[i].quality, first.cells[i].quality);
    EXPECT_EQ(second.cells[i].energy_per_op_fj,
              first.cells[i].energy_per_op_fj);
  }

  // Partial resume: growing the grid recomputes only the new cells.
  cfg.triad_specs.push_back({1.0, 0.5, 2.0});
  CampaignStore grown(path);
  const CampaignOutcome third = run_campaign(lib, cfg, grown);
  EXPECT_EQ(third.cells.size(), 4u);
  EXPECT_EQ(third.reused, 3u);
  EXPECT_EQ(third.computed, 1u);
  std::remove(path.c_str());
}

TEST(CampaignRunner, CacheKeyIdentityAcrossThreadCounts) {
  // The cache is only sound if a cell's value never depends on worker
  // scheduling: serial and 4-way runs must produce bit-identical cells.
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.workloads = {"fir", "kmeans"};

  cfg.jobs = 1;
  CampaignStore serial;
  const CampaignOutcome a = run_campaign(lib, cfg, serial);
  cfg.jobs = 4;
  CampaignStore parallel;
  const CampaignOutcome b = run_campaign(lib, cfg, parallel);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(CampaignStore::to_jsonl(a.cells[i]).substr(
                  0, CampaignStore::to_jsonl(a.cells[i]).find("elapsed")),
              CampaignStore::to_jsonl(b.cells[i]).substr(
                  0, CampaignStore::to_jsonl(b.cells[i]).find("elapsed")))
        << i;
  }
}

TEST(CampaignRunner, ModelTracksGateLevelOnReducedGrid) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.workloads = {"fir", "kmeans"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kModel, ArithBackend::kSimLevelized};
  cfg.triad_specs = {{1.0, 1.0, 0.0}, {1.0, 0.9, 0.0}, {1.0, 0.7, 2.0},
                     {1.0, 0.6, 2.0}};
  cfg.characterize_patterns = 400;
  cfg.train_patterns = 2000;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  const QualityDeviation dev = model_quality_deviation(outcome.cells);
  EXPECT_EQ(dev.cells, 8u);  // 2 workloads x 4 triads
  // These triads are error-free or mildly stressed: the trained model
  // must track the gate-level replay closely.
  EXPECT_LE(dev.max_pp, 10.0);
  EXPECT_LE(dev.mean_pp, 5.0);
}

TEST(CampaignRunner, SimSeqBackendRunsAndChargesRegisterEnergy) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kSimLevelized, ArithBackend::kSimSeq};
  cfg.triad_specs = {{1.2, 1.0, 0.0}, {1.0, 0.8, 2.0}};
  cfg.characterize_patterns = 300;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  ASSERT_EQ(outcome.cells.size(), 4u);
  for (const CampaignCell& seq_cell : outcome.cells) {
    if (seq_cell.key.backend != "sim-seq") continue;
    // Its combinational sibling at the same triad.
    const CampaignCell* comb = nullptr;
    for (const CampaignCell& c : outcome.cells)
      if (c.key.backend == "sim-levelized" &&
          c.key.triad == seq_cell.key.triad)
        comb = &c;
    ASSERT_NE(comb, nullptr);
    // The registered adder pays the bank clock/latch energy on top of
    // the identical characterized combinational energy.
    const double expected_extra = seq_clock_energy_fj(
        wrap_as_pipeline(build_circuit("rca16")), lib,
        seq_cell.key.triad.vdd_v);
    EXPECT_NEAR(seq_cell.energy_per_op_fj - comb->energy_per_op_fj,
                expected_extra, 1e-9);
    // At a relaxed triad the clocked replay is quality-equivalent.
    if (seq_cell.key.triad.vdd_v == 1.0) {
      EXPECT_NEAR(seq_cell.normalized, comb->normalized, 1e-12);
    }
    // Savings baselines rebase per energy class: a registered cell's
    // baseline pays the flops (at the baseline triad's nominal Vdd), a
    // combinational cell's does not — the sim-seq register energy must
    // never leak into the combinational backends' savings.
    EXPECT_NEAR(seq_cell.baseline_fj - comb->baseline_fj,
                seq_clock_energy_fj(
                    wrap_as_pipeline(build_circuit("rca16")), lib, 1.0),
                1e-9);
  }
}

/// "net=bits,..." of the top `k` culprits across `summaries`, sorted by
/// attributed bits descending, then name — built by hand so the check
/// does not share the runner's roll-up code.
std::string hand_culprits(const std::vector<ProvenanceSummary>& summaries,
                          std::size_t k) {
  std::vector<CulpritCount> all;
  for (const ProvenanceSummary& s : summaries)
    all.insert(all.end(), s.culprits.begin(), s.culprits.end());
  std::sort(all.begin(), all.end(),
            [](const CulpritCount& a, const CulpritCount& b) {
              return a.bits != b.bits ? a.bits > b.bits : a.name < b.name;
            });
  std::string out;
  for (std::size_t i = 0; i < all.size() && i < k; ++i) {
    if (!out.empty()) out += ',';
    out += all[i].name + "=" + std::to_string(all[i].bits);
  }
  return out;
}

// Provenance cells at a deep triad store exactly the culprits that
// ErrorProvenance observers report on independently built simulators
// replaying the same workload data.
TEST(CampaignRunner, ProvenanceCellsStoreObservedCulprits) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kSimLevelized, ArithBackend::kSimSeq};
  cfg.triad_specs = {{0.6, 0.7, 0.0}};
  cfg.characterize_patterns = 300;
  cfg.provenance = true;
  cfg.top_culprits = 3;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  ASSERT_EQ(outcome.cells.size(), 2u);

  const Workload* wl = find_workload("fir");
  ASSERT_NE(wl, nullptr);
  const std::uint64_t dseed = fleet_content_hash(cfg.seed, "data|fir");
  const DutNetlist dut = build_circuit("rca16");
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  for (const CampaignCell& cell : outcome.cells) {
    std::vector<ProvenanceSummary> summaries;
    if (cell.key.backend == "sim-levelized") {
      VosDutSim sim(dut, lib, cell.key.triad, sim_cfg);
      ErrorProvenance prov(dut);
      sim.engine().attach_observer(&prov);
      wl->run(sim_adder_fn(sim), dseed);
      summaries.push_back(prov.summary());
    } else {
      ASSERT_EQ(cell.key.backend, "sim-seq");
      const SeqDut seq = wrap_as_pipeline(dut);
      SeqSim sim(seq, lib, cell.key.triad, sim_cfg);
      std::vector<std::unique_ptr<ErrorProvenance>> provs;
      for (std::size_t k = 0; k < sim.num_stages(); ++k) {
        provs.push_back(std::make_unique<ErrorProvenance>(
            seq.stages[k].netlist, DutPinMap(seq.stages[k]),
            static_cast<int>(k)));
        sim.stage_engine(k).attach_observer(provs[k].get());
      }
      ASSERT_NE(wl->run_batch, nullptr);
      wl->run_batch(seq_batch_adder_fn(sim), dseed);
      for (const auto& prov : provs) summaries.push_back(prov->summary());
    }
    const std::string expected = hand_culprits(summaries, cfg.top_culprits);
    EXPECT_FALSE(expected.empty()) << cell.key.backend;
    EXPECT_EQ(cell.culprits, expected) << cell.key.backend;
  }
}

TEST(CampaignRunner, RejectsCircuitsThatCannotBackTheWorkloads) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.circuits = {"mul8-array"};  // not a 16-bit adder
  CampaignStore store;
  EXPECT_THROW(run_campaign(lib, cfg, store), std::invalid_argument);
  cfg.circuits = {"rca8"};  // adder, wrong width
  EXPECT_THROW(run_campaign(lib, cfg, store), std::invalid_argument);
}

TEST(CampaignRunner, DuplicateAxisEntriesComputeOnce) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.workloads = {"fir", "fir"};
  cfg.backends = {ArithBackend::kModel, ArithBackend::kModel};
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  EXPECT_EQ(outcome.cells.size(), 3u);  // one per triad, not four
  EXPECT_EQ(outcome.computed, 3u);
}

TEST(CampaignRunner, BaselineIsGridOrderInvariant) {
  // The savings baseline is chosen by triad content (most relaxed
  // point), not by grid position, so reordering the specs must not
  // change any cell's baseline.
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  CampaignStore a_store;
  const CampaignOutcome a = run_campaign(lib, cfg, a_store);
  std::reverse(cfg.triad_specs.begin(), cfg.triad_specs.end());
  CampaignStore b_store;
  const CampaignOutcome b = run_campaign(lib, cfg, b_store);
  ASSERT_FALSE(a.cells.empty());
  for (const CampaignCell& cell : b.cells)
    EXPECT_EQ(cell.baseline_fj, a.cells.front().baseline_fj);
}

TEST(CampaignRunner, ReusedCellsAreRebasedOnTheCurrentGrid) {
  // Cells persisted by a stressed-only grid carry that grid's baseline;
  // resuming with the relaxed-nominal triad added must rebase every
  // reported cell on the new most-relaxed energy, so one table never
  // mixes savings baselines.
  const std::string path = temp_path("campaign_rebase.jsonl");
  std::remove(path.c_str());
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.triad_specs = {{1.0, 0.8, 0.0}};  // stressed-only grid
  CampaignStore store(path);
  const CampaignOutcome first = run_campaign(lib, cfg, store);
  ASSERT_EQ(first.cells.size(), 1u);
  EXPECT_EQ(first.cells[0].baseline_fj, first.cells[0].energy_per_op_fj);

  cfg.triad_specs.push_back({1.5, 1.0, 0.0});  // add relaxed nominal
  CampaignStore grown(path);
  const CampaignOutcome second = run_campaign(lib, cfg, grown);
  ASSERT_EQ(second.cells.size(), 2u);
  EXPECT_EQ(second.reused, 1u);
  const CampaignCell& stressed = second.cells[0];
  const CampaignCell& nominal = second.cells[1];
  ASSERT_GT(nominal.energy_per_op_fj, stressed.energy_per_op_fj);
  EXPECT_EQ(stressed.baseline_fj, nominal.energy_per_op_fj);
  EXPECT_EQ(nominal.baseline_fj, nominal.energy_per_op_fj);
  std::remove(path.c_str());
}

// ------------------------------------------------- chip axis + merge
std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

TEST(CampaignStore, ChipFieldRoundTripsAndDefaultsToNominal) {
  CampaignCell cell = sample_cell();
  cell.key.chip = 5;
  const std::string line = CampaignStore::to_jsonl(cell);
  EXPECT_NE(line.find("\"chip\":5"), std::string::npos);
  const auto parsed = CampaignStore::parse_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key.chip, 5u);
  EXPECT_EQ(parsed->key, cell.key);

  // A pre-fleet line (no chip field) is the nominal die, not garbage.
  std::string legacy = line;
  const auto at = legacy.find(",\"chip\":5");
  ASSERT_NE(at, std::string::npos);
  legacy.erase(at, std::string(",\"chip\":5").size());
  const auto old = CampaignStore::parse_jsonl(legacy);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->key.chip, 0u);

  // Present-but-garbled chip must reject the line, not default it.
  std::string bad = line;
  bad.replace(bad.find("\"chip\":5"), std::string("\"chip\":5").size(),
              "\"chip\":x");
  EXPECT_FALSE(CampaignStore::parse_jsonl(bad).has_value());
}

TEST(CampaignStore, MergeKeepsLastWriteOnOverlappingKeys) {
  const std::string a = temp_path("merge_a.jsonl");
  const std::string b = temp_path("merge_b.jsonl");
  const std::string out = temp_path("merge_out.jsonl");
  {
    std::ofstream fa(a), fb(b);
    CampaignCell cell = sample_cell();
    cell.quality = 1.0;
    fa << CampaignStore::to_jsonl(cell) << "\n";
    CampaignCell other = sample_cell();
    other.key.workload = "dot";
    fa << CampaignStore::to_jsonl(other) << "\n";
    cell.quality = 2.0;  // same key, later file: must win
    fb << CampaignStore::to_jsonl(cell) << "\n";
  }
  const MergeStats stats = merge_stores({a, b}, out);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.cells, 2u);
  CampaignStore merged(out);
  const auto hit = merged.find(sample_cell().key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->quality, 2.0);
  for (const std::string& p : {a, b, out}) std::remove(p.c_str());
}

TEST(CampaignStore, MergeSkipsMalformedLinesAndThrowsOnMissingInput) {
  const std::string a = temp_path("merge_bad.jsonl");
  const std::string out = temp_path("merge_bad_out.jsonl");
  {
    std::ofstream fa(a);
    fa << "not json\n";
    fa << CampaignStore::to_jsonl(sample_cell()) << "\n";
    fa << "{\"workload\":\"fir\",\"circu\n";
  }
  const MergeStats stats = merge_stores({a}, out);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.cells, 1u);
  EXPECT_THROW(merge_stores({temp_path("nope_missing.jsonl")}, out),
               std::runtime_error);
  for (const std::string& p : {a, out}) std::remove(p.c_str());
}

TEST(CampaignStore, ManifestHeaderWritesOnceAndSurvivesReload) {
  const std::string path = temp_path("store_manifest.jsonl");
  std::remove(path.c_str());
  obs::RunManifest m;
  m.tool = "campaign";
  m.config = "campaign --workloads=fir";
  {
    CampaignStore store(path);
    EXPECT_EQ(store.manifest_line(), "");
    store.write_header(m.to_jsonl());
    EXPECT_EQ(store.manifest_line(), m.to_jsonl());
    // Second writer (a resumed run) must not duplicate the header.
    obs::RunManifest other = m;
    other.config = "campaign --workloads=dot";
    store.write_header(other.to_jsonl());
    EXPECT_EQ(store.manifest_line(), m.to_jsonl());
    store.insert(sample_cell());
  }
  // Reload finds the header AND the cell: the manifest line is not a
  // cell and a cell line is not a manifest.
  CampaignStore reopened(path);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.manifest_line(), m.to_jsonl());
  EXPECT_TRUE(reopened.find(sample_cell().key).has_value());
  // In-memory stores have nowhere to put a header.
  CampaignStore memory;
  memory.write_header(m.to_jsonl());
  EXPECT_EQ(memory.manifest_line(), "");
  std::remove(path.c_str());
}

TEST(CampaignStore, ResumeWorksAcrossManifestHeaderVersions) {
  // Store-format backward compatibility, both directions. A pre-manifest
  // store (what every store written before the telemetry layer looks
  // like: cells only, no header) must fully resume under the current
  // reader; and a store WITH a manifest header must resume identically,
  // because the header parses-as-absent to the cell loader.
  const std::string path = temp_path("store_old_format.jsonl");
  std::remove(path.c_str());
  const CellLibrary& lib = make_fdsoi28_lvt();
  const CampaignConfig cfg = small_campaign();

  // run_campaign writes no header itself — this file IS the old format.
  CampaignStore old_store(path);
  const CampaignOutcome first = run_campaign(lib, cfg, old_store);
  EXPECT_EQ(first.computed, 3u);
  {
    std::ifstream f(path);
    std::string contents((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents.find("vosim_manifest"), std::string::npos);
  }

  CampaignStore resumed(path);
  EXPECT_EQ(resumed.manifest_line(), "");
  const CampaignOutcome second = run_campaign(lib, cfg, resumed);
  EXPECT_EQ(second.reused, 3u);
  EXPECT_EQ(second.computed, 0u);

  // Upgrade the store in place (what the CLI does on its next run) and
  // resume again: the header changes nothing about cell identity.
  obs::RunManifest m;
  m.tool = "campaign";
  m.config = "campaign fir";
  CampaignStore upgraded(path);
  upgraded.write_header(m.to_jsonl());
  const CampaignOutcome third = run_campaign(lib, cfg, upgraded);
  EXPECT_EQ(third.reused, 3u);
  EXPECT_EQ(third.computed, 0u);

  CampaignStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(reloaded.manifest_line(), m.to_jsonl());
  std::remove(path.c_str());
}

TEST(CampaignStore, MergeExcludesManifestHeaders) {
  // merge-store unifies shard stores that each carry their own manifest;
  // the merged output must contain cells only (the merge is a new run
  // context, and --strip-timing canonicalization must not be defeated
  // by per-shard headers).
  const std::string a = temp_path("merge_manifest_a.jsonl");
  const std::string b = temp_path("merge_manifest_b.jsonl");
  const std::string out = temp_path("merge_manifest_out.jsonl");
  obs::RunManifest m;
  m.tool = "campaign";
  m.shard = "0/2";
  m.config = "campaign --shard=0/2";
  {
    std::ofstream fa(a), fb(b);
    fa << m.to_jsonl() << "\n";
    fa << CampaignStore::to_jsonl(sample_cell()) << "\n";
    m.shard = "1/2";
    fb << m.to_jsonl() << "\n";
    CampaignCell other = sample_cell();
    other.key.workload = "dot";
    fb << CampaignStore::to_jsonl(other) << "\n";
  }
  const MergeStats stats = merge_stores({a, b}, out, /*strip_timing=*/true);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.manifests, 2u);
  EXPECT_EQ(stats.skipped, 0u);  // manifests are headers, not garbage
  EXPECT_EQ(stats.cells, 2u);
  {
    std::ifstream f(out);
    std::string contents((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents.find("vosim_manifest"), std::string::npos);
    EXPECT_NE(contents.find("\"elapsed_s\":0"), std::string::npos);
  }
  for (const std::string& p : {a, b, out}) std::remove(p.c_str());
}

// A manifest header torn mid-append is garbage like a torn cell: no
// prefix of it is a manifest, the store loads none from it (so
// write_header still writes a whole one), and merge-store counts it as
// a skipped line, not a header.
TEST(CampaignStore, TornManifestHeaderIsSkipped) {
  const std::string path = temp_path("store_torn_manifest.jsonl");
  const std::string out = temp_path("store_torn_manifest_out.jsonl");
  obs::RunManifest m;
  m.tool = "campaign";
  m.config = "campaign --store=x";
  const std::string header = m.to_jsonl();
  for (std::size_t n = 0; n < header.size(); ++n)
    EXPECT_FALSE(obs::RunManifest::is_manifest_line(header.substr(0, n)))
        << header.substr(0, n);
  const std::string torn =
      header.substr(0, header.find(",\"store_version\"") + 5);
  ASSERT_EQ(torn, "{\"vosim_manifest\":1,\"sto");
  {
    std::ofstream f(path, std::ios::trunc);
    f << torn << "\n" << CampaignStore::to_jsonl(sample_cell()) << "\n";
  }
  {
    CampaignStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.manifest_line(), "");
    store.write_header(header);
    EXPECT_EQ(store.manifest_line(), header);
  }
  EXPECT_EQ(CampaignStore(path).manifest_line(), header);
  const MergeStats stats = merge_stores({path}, out);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.manifests, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(stats.cells, 1u);
  for (const std::string& p : {path, out}) std::remove(p.c_str());
}

TEST(CampaignRunner, ShardedFleetCampaignMergesBitIdentical) {
  // The sharded-store contract end to end: an N-shard fleet campaign,
  // merged, must be byte-for-byte the canonicalized single-process
  // store (elapsed_s stripped — the only wall-clock field).
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.triad_specs = {{1.0, 1.0, 0.0}, {1.0, 0.65, 0.0}};
  cfg.fleet.num_chips = 6;
  cfg.jobs = 2;

  const std::string single = temp_path("shard_single.jsonl");
  const std::string canon = temp_path("shard_canon.jsonl");
  const std::string merged = temp_path("shard_merged.jsonl");
  std::vector<std::string> shard_paths;
  for (int i = 0; i < 3; ++i)
    shard_paths.push_back(temp_path("shard_" + std::to_string(i) +
                                    ".jsonl"));
  for (const std::string& p : shard_paths) std::remove(p.c_str());
  std::remove(single.c_str());

  CampaignStore whole(single);
  const CampaignOutcome all = run_campaign(lib, cfg, whole);
  EXPECT_EQ(all.cells.size(), 12u);  // 2 triads x 6 chips

  std::size_t shard_cells = 0;
  cfg.shard_count = 3;
  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard_index = i;
    CampaignStore shard(shard_paths[i]);
    shard_cells += run_campaign(lib, cfg, shard).computed;
  }
  EXPECT_EQ(shard_cells, all.cells.size());  // disjoint, exhaustive

  merge_stores(shard_paths, merged, /*strip_timing=*/true);
  merge_stores({single}, canon, /*strip_timing=*/true);
  const std::string merged_bytes = read_file(merged);
  EXPECT_FALSE(merged_bytes.empty());
  EXPECT_EQ(merged_bytes, read_file(canon));

  std::remove(single.c_str());
  std::remove(canon.c_str());
  std::remove(merged.c_str());
  for (const std::string& p : shard_paths) std::remove(p.c_str());
}

TEST(CampaignRunner, ShardValidation) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  CampaignStore store;
  cfg.shard_count = 0;
  EXPECT_THROW(run_campaign(lib, cfg, store), std::invalid_argument);
  cfg.shard_count = 2;
  cfg.shard_index = 2;
  EXPECT_THROW(run_campaign(lib, cfg, store), std::invalid_argument);
}

TEST(CampaignRunner, MaxTriadsTruncatesTheGrid) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.triad_specs.clear();  // full 43-triad Table-III grid...
  cfg.max_triads = 2;       // ...truncated
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  EXPECT_EQ(outcome.cells.size(), 2u);
}

}  // namespace
}  // namespace vosim
