#include "src/campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <tuple>

#include "src/characterize/characterizer.hpp"
#include "src/obs/probe.hpp"
#include "src/characterize/triads.hpp"
#include "src/fleet/fleet.hpp"
#include "src/model/vos_model.hpp"
#include "src/netlist/dut.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/util/parallel.hpp"

namespace vosim {

namespace {

/// FNV-1a over the cell key, mixed with the campaign seed — a
/// schedule-independent per-cell seed (determinism across thread
/// counts depends on this never seeing worker identity).
std::uint64_t content_seed(std::uint64_t seed, const std::string& key) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Everything computed once per circuit and shared by its cells.
struct CircuitContext {
  DutNetlist dut;
  double critical_path_ns = 0.0;
  std::vector<OperatingTriad> triads;
  std::vector<TriadResult> characterized;  ///< energy/BER join, per triad
  std::vector<std::optional<VosAdderModel>> models;  ///< model backend
  std::optional<SeqDut> seq;  ///< registered view, sim-seq backend only
};

bool is_adder_shaped(const DutNetlist& dut, int width) {
  return dut.num_operands() == 2 && dut.operand_width(0) == width &&
         dut.operand_width(1) == width &&
         dut.output_width() == width + 1;
}

/// Relaxation ranking of a triad: the most relaxed operating point
/// (highest Vdd, then longest clock, then least body-bias) is the
/// energy baseline — the relaxed-nominal triad on every
/// Table-III-shaped grid. Chosen by content, never by grid position,
/// so reordered or resumed grids agree on it.
std::tuple<double, double, double> relaxation_rank(
    const OperatingTriad& t) {
  return std::make_tuple(t.vdd_v, t.tclk_ns, -t.vbb_v);
}

std::size_t baseline_index(const std::vector<OperatingTriad>& triads) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < triads.size(); ++i)
    if (relaxation_rank(triads[i]) > relaxation_rank(triads[best]))
      best = i;
  return best;
}

/// The workload's input data must be identical across backends and
/// triads (deviation and Pareto compare cells at fixed stimuli), so it
/// derives from the campaign seed and the workload only.
std::uint64_t data_seed(std::uint64_t seed, const std::string& workload) {
  return content_seed(seed, "data|" + workload);
}

CircuitContext make_context(const CellLibrary& lib,
                            const CampaignConfig& config,
                            const std::string& spec, int adder_width,
                            bool needs_model, bool needs_gate_level,
                            bool needs_seq) {
  CircuitContext ctx;
  ctx.dut = build_circuit(spec);
  ctx.critical_path_ns =
      synthesize_report(ctx.dut.netlist, lib).critical_path_ns;

  if ((needs_model || needs_gate_level) &&
      !is_adder_shaped(ctx.dut, adder_width))
    throw std::invalid_argument(
        "campaign: circuit '" + spec + "' cannot back the workloads' " +
        std::to_string(adder_width) + "-bit routed adder (needs a " +
        std::to_string(adder_width) + "-bit two-operand adder)");
  if (needs_seq)
    ctx.seq = wrap_as_pipeline(ctx.dut);  // one wrap per circuit

  if (!config.triads.empty()) {
    ctx.triads = config.triads;
  } else if (!config.triad_specs.empty()) {
    for (const TriadSpec& s : config.triad_specs)
      ctx.triads.push_back(OperatingTriad{
          s.tclk_scale * ctx.critical_path_ns, s.vdd_v, s.vbb_v});
  } else {
    ctx.triads = make_circuit_triads(ctx.dut, ctx.critical_path_ns);
  }
  if (config.max_triads != 0 && ctx.triads.size() > config.max_triads)
    ctx.triads.resize(config.max_triads);
  return ctx;
}

/// Characterization and model training for one circuit — deferred
/// until the grid enumeration proves the circuit has missing cells, so
/// a fully-resumed campaign answers from the store without touching a
/// simulator. `model_triads[t]` marks the triads some pending cell
/// will actually read a model for; only those are trained (resuming a
/// finished model grid with a new cheap backend must not re-train 43
/// models nobody reads).
void prepare_context(const CellLibrary& lib, const CampaignConfig& config,
                     CircuitContext& ctx,
                     const std::vector<char>& model_triads,
                     std::ostream* progress) {
  // Gate-level energy + BER for the join, once per (circuit, triad):
  // the levelized engine collapses the whole grid into one normalized
  // timing pass.
  CharacterizeConfig ccfg;
  ccfg.num_patterns = config.characterize_patterns;
  ccfg.engine = EngineKind::kLevelized;
  ccfg.threads = config.jobs;
  if (progress != nullptr)
    *progress << "campaign: characterizing " << ctx.dut.display_name
              << " over " << ctx.triads.size() << " triads\n";
  {
    obs::ScopedSpan span("campaign.characterize", "campaign");
    span.arg("circuit", ctx.dut.display_name)
        .arg("triads", static_cast<std::uint64_t>(ctx.triads.size()));
    obs::metrics().counter("campaign.characterize.calls").add();
    ctx.characterized = characterize_dut(ctx.dut, lib, ctx.triads, ccfg);
  }

  std::vector<std::size_t> to_train;
  for (std::size_t t = 0; t < model_triads.size(); ++t)
    if (model_triads[t] != 0) to_train.push_back(t);
  if (to_train.empty()) return;
  if (progress != nullptr)
    *progress << "campaign: training " << to_train.size()
              << " models for " << ctx.dut.display_name << "\n";
  obs::ScopedSpan train_span("campaign.train", "campaign");
  train_span.arg("circuit", ctx.dut.display_name)
      .arg("models", static_cast<std::uint64_t>(to_train.size()));
  obs::metrics().counter("campaign.train.calls").add(to_train.size());
  ctx.models.resize(ctx.triads.size());
  auto& ctx_ref = ctx;
  parallel_for(
      to_train.size(),
      [&lib, &config, &ctx_ref, &to_train](std::size_t i) {
        const std::size_t t = to_train[i];
        TimingSimConfig sim_cfg;
        sim_cfg.engine = EngineKind::kLevelized;
        VosDutSim sim(ctx_ref.dut, lib, ctx_ref.triads[t], sim_cfg);
        TrainerConfig tcfg;
        tcfg.num_patterns = config.train_patterns;
        ctx_ref.models[t] = train_vos_model(
            ctx_ref.dut.operand_width(0), ctx_ref.triads[t],
            sampled_batch_oracle(sim), tcfg);
      },
      config.jobs);
}

}  // namespace

const char* arith_backend_name(ArithBackend backend) {
  switch (backend) {
    case ArithBackend::kExact: return "exact";
    case ArithBackend::kModel: return "model";
    case ArithBackend::kSimEvent: return "sim-event";
    case ArithBackend::kSimLevelized: return "sim-levelized";
    case ArithBackend::kSimSeq: return "sim-seq";
  }
  return "?";
}

ArithBackend parse_arith_backend(const std::string& name) {
  if (name == "exact") return ArithBackend::kExact;
  if (name == "model") return ArithBackend::kModel;
  if (name == "sim-event") return ArithBackend::kSimEvent;
  if (name == "sim-levelized" || name == "sim")
    return ArithBackend::kSimLevelized;
  if (name == "sim-seq") return ArithBackend::kSimSeq;
  throw std::invalid_argument(
      "unknown backend '" + name +
      "' (expected exact | model | sim-event | sim-levelized | sim-seq)");
}

CampaignOutcome run_campaign(const CellLibrary& lib,
                             const CampaignConfig& config,
                             CampaignStore& store) {
  const std::vector<Workload> workloads =
      resolve_workloads(config.workloads);
  if (config.circuits.empty())
    throw std::invalid_argument("campaign: no circuits selected");
  if (config.backends.empty())
    throw std::invalid_argument("campaign: no backends selected");
  if (config.shard_count == 0 ||
      config.shard_index >= config.shard_count)
    throw std::invalid_argument(
        "campaign: bad shard (need index < count, count >= 1)");
  // Every built-in workload routes the same adder width; the circuit
  // must expose it for the model/gate-level backends.
  const int adder_width = workloads.front().width;
  for (const Workload& w : workloads)
    if (w.width != adder_width)
      throw std::invalid_argument(
          "campaign: workloads disagree on adder width");
  bool needs_model = false;
  bool needs_gate_level = false;
  bool needs_seq = false;
  for (const ArithBackend b : config.backends) {
    needs_model = needs_model || b == ArithBackend::kModel;
    needs_gate_level = needs_gate_level || b == ArithBackend::kSimEvent ||
                       b == ArithBackend::kSimLevelized ||
                       b == ArithBackend::kSimSeq;
    needs_seq = needs_seq || b == ArithBackend::kSimSeq;
  }

  // Phase 1 — per-circuit netlist, synthesis and triad grid (the cell
  // keys need these; characterization waits until the store has been
  // consulted).
  std::vector<CircuitContext> contexts;
  contexts.reserve(config.circuits.size());
  {
    obs::ScopedSpan span("campaign.synth", "campaign");
    span.arg("circuits",
             static_cast<std::uint64_t>(config.circuits.size()));
    for (const std::string& spec : config.circuits)
      contexts.push_back(make_context(lib, config, spec, adder_width,
                                      needs_model, needs_gate_level,
                                      needs_seq));
  }

  // Phase 2 — enumerate the grid, answer finished cells from the store
  // and queue the rest.
  struct PendingCell {
    std::size_t slot;      ///< position in the outcome grid
    std::size_t workload;
    std::size_t circuit;
    std::size_t triad;
    ArithBackend backend;
    CampaignCellKey key;
  };
  // The chip axis: the nominal die alone, or fleet members 1..N.
  std::vector<std::uint64_t> chip_ids;
  if (config.fleet.num_chips == 0) {
    chip_ids.push_back(0);
  } else {
    for (std::uint64_t i = 1; i <= config.fleet.num_chips; ++i)
      chip_ids.push_back(i);
  }

  CampaignOutcome outcome;
  std::vector<PendingCell> pending;
  std::set<std::string> enumerated;  // dedup repeated axis entries
  // Store-lookup accounting: these count per lookup in the loop below,
  // so a snapshot's hit/miss exactly equals reused/computed (test_obs).
  obs::Counter& hit_counter = obs::metrics().counter("campaign.cache.hit");
  obs::Counter& miss_counter =
      obs::metrics().counter("campaign.cache.miss");
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      for (std::size_t t = 0; t < contexts[c].triads.size(); ++t) {
        for (const ArithBackend backend : config.backends) {
          for (const std::uint64_t chip : chip_ids) {
            CampaignCellKey key;
            key.workload = workloads[w].name;
            key.circuit = config.circuits[c];
            key.backend = arith_backend_name(backend);
            key.triad = contexts[c].triads[t];
            key.seed = config.seed;
            key.train_patterns =
                backend == ArithBackend::kModel ? config.train_patterns
                                                : 0;
            // The joined energy/BER depend on the characterization
            // budget, so it is part of the cell's identity too.
            key.characterize_patterns = config.characterize_patterns;
            key.chip = chip;
            // "--workloads fir,fir" or repeated backends must not
            // compute (and report) the same cell twice.
            const std::string key_str = key.to_string();
            if (!enumerated.insert(key_str).second) continue;
            // Shard partition by content hash of the key: every shard
            // enumerates the identical grid and claims a disjoint
            // subset, independent of enumeration order or fleet size
            // (fixed hash seed — all shards and merge must agree).
            if (config.shard_count > 1 &&
                fleet_content_hash(0, key_str) % config.shard_count !=
                    config.shard_index)
              continue;
            const std::size_t slot = outcome.cells.size();
            const auto hit = store.find(key);
            if (hit.has_value()) {
              outcome.cells.push_back(*hit);
              ++outcome.reused;
              hit_counter.add();
            } else {
              outcome.cells.push_back(CampaignCell{});  // filled below
              pending.push_back({slot, w, c, t, backend, key});
              miss_counter.add();
            }
          }
        }
      }
    }
  }
  if (config.progress != nullptr) {
    *config.progress << "campaign: grid " << outcome.cells.size()
                     << " cells";
    if (config.shard_count > 1)
      *config.progress << " (shard " << config.shard_index << "/"
                       << config.shard_count << ")";
    *config.progress << ", " << outcome.reused << " from store, "
                     << pending.size() << " to compute\n";
  }

  // Phase 2.5 — characterize only the circuits that still have missing
  // cells, and train only the (circuit, triad) models some pending
  // model-backend cell will read (characterization and training
  // parallelize internally over the shared pool).
  std::vector<bool> circuit_pending(contexts.size(), false);
  std::vector<std::vector<char>> model_triads(contexts.size());
  for (std::size_t c = 0; c < contexts.size(); ++c)
    model_triads[c].assign(contexts[c].triads.size(), 0);
  for (const PendingCell& p : pending) {
    circuit_pending[p.circuit] = true;
    if (p.backend == ArithBackend::kModel)
      model_triads[p.circuit][p.triad] = 1;
  }
  for (std::size_t c = 0; c < contexts.size(); ++c)
    if (circuit_pending[c])
      prepare_context(lib, config, contexts[c], model_triads[c],
                      config.progress);

  // Phase 3 — run the missing cells on the pool. Cells are coarse
  // (one full workload run), so index-claiming costs are negligible.
  obs::ScopedSpan execute_span("campaign.execute", "campaign");
  execute_span.arg("pending", static_cast<std::uint64_t>(pending.size()));
  auto& cells = outcome.cells;
  parallel_for(
      pending.size(),
      [&](std::size_t i) {
        const PendingCell& p = pending[i];
        const Workload& wl = workloads[p.workload];
        const CircuitContext& ctx = contexts[p.circuit];
        const TriadResult& tr = ctx.characterized[p.triad];
        obs::ScopedSpan cell_span("campaign.cell", "campaign");
        cell_span.arg("workload", wl.name)
            .arg("circuit", p.key.circuit)
            .arg("backend", p.key.backend)
            .arg("chip", p.key.chip);
        const auto t0 = std::chrono::steady_clock::now();

        QualityResult q;
        double register_energy_fj = 0.0;  // sim-seq: bank clock/latch
        std::string culprits;  // provenance mode, sim backends only
        const std::uint64_t dseed = data_seed(config.seed, wl.name);
        // The chip's die corner — pure content, so any shard or
        // thread schedule reconstructs the same die. Chip 0 is the
        // nominal die and leaves every config untouched.
        const ChipInstance chip =
            draw_chip_instance(config.fleet, p.key.chip);
        switch (p.backend) {
          case ArithBackend::kExact: {
            q = wl.run(exact_adder_fn(wl.width), dseed);
            break;
          }
          case ArithBackend::kModel: {
            Rng rng(content_seed(config.seed, p.key.to_string()));
            q = wl.run(model_adder_fn(*ctx.models[p.triad], rng), dseed);
            break;
          }
          case ArithBackend::kSimEvent:
          case ArithBackend::kSimLevelized: {
            TimingSimConfig sim_cfg;
            sim_cfg.engine = p.backend == ArithBackend::kSimEvent
                                 ? EngineKind::kEvent
                                 : EngineKind::kLevelized;
            sim_cfg = apply_chip(sim_cfg, chip,
                                 config.fleet.within_die_sigma);
            VosDutSim sim(ctx.dut, lib, ctx.triads[p.triad], sim_cfg);
            std::unique_ptr<ErrorProvenance> prov;
            if (config.provenance) {
              prov = std::make_unique<ErrorProvenance>(ctx.dut);
              sim.engine().attach_observer(prov.get());
            }
            q = wl.run(sim_adder_fn(sim), dseed);
            if (prov != nullptr) {
              culprits = prov->summary().top_culprits_string(
                  config.top_culprits);
              prov->publish("provenance.campaign", config.top_culprits);
            }
            break;
          }
          case ArithBackend::kSimSeq: {
            // The adder between real registers: truncating clocked
            // semantics on the levelized backend. The joined energy/op
            // additionally pays the bank's clock/latch energy.
            TimingSimConfig sim_cfg;
            sim_cfg.engine = EngineKind::kLevelized;
            sim_cfg = apply_chip(sim_cfg, chip,
                                 config.fleet.within_die_sigma);
            SeqSim sim(*ctx.seq, lib, ctx.triads[p.triad], sim_cfg);
            register_energy_fj = seq_clock_energy_fj(
                *ctx.seq, lib, ctx.triads[p.triad].vdd_v);
            std::vector<std::unique_ptr<ErrorProvenance>> provs;
            if (config.provenance) {
              for (std::size_t k = 0; k < sim.num_stages(); ++k) {
                const DutPinMap spins(ctx.seq->stages[k]);
                provs.push_back(std::make_unique<ErrorProvenance>(
                    ctx.seq->stages[k].netlist, spins,
                    static_cast<int>(k)));
                sim.stage_engine(k).attach_observer(provs[k].get());
              }
            }
            // Stream-capable kernels latch whole operand vectors
            // through the packed-lane batch path; dependency-bound
            // ones fall back to one scalar step_cycle per add.
            q = wl.run_batch != nullptr
                    ? wl.run_batch(seq_batch_adder_fn(sim), dseed)
                    : wl.run(seq_adder_fn(sim), dseed);
            if (!provs.empty()) {
              // Stage culprits share one top-K budget per cell; names
              // carry the "s<k>:" stage prefix.
              std::vector<CulpritCount> all;
              for (const auto& prov : provs) {
                const ProvenanceSummary s = prov->summary();
                all.insert(all.end(), s.culprits.begin(),
                           s.culprits.end());
                prov->publish("provenance.campaign",
                              config.top_culprits);
              }
              std::sort(all.begin(), all.end(),
                        [](const CulpritCount& a, const CulpritCount& b) {
                          return a.bits != b.bits ? a.bits > b.bits
                                                  : a.name < b.name;
                        });
              for (std::size_t k = 0;
                   k < all.size() && k < config.top_culprits; ++k) {
                if (!culprits.empty()) culprits += ',';
                culprits += all[k].name + "=" +
                            std::to_string(all[k].bits);
              }
            }
            break;
          }
        }

        CampaignCell cell;
        cell.key = p.key;
        cell.metric = q.metric;
        cell.quality = q.value;
        cell.normalized = q.normalized;
        // Cross-chip caching: characterization ran once on the nominal
        // die; a fleet member's energy rescales the characterized
        // leakage by its die corner analytically instead of
        // re-characterizing the grid per chip. Chip 0 keeps the exact
        // pre-fleet sum (no recomputed rounding).
        cell.energy_per_op_fj =
            p.key.chip == 0
                ? tr.energy_per_op_fj + register_energy_fj
                : tr.dynamic_energy_fj +
                      tr.leakage_energy_fj * chip.leakage_scale +
                      register_energy_fj;
        cell.baseline_fj =
            ctx.characterized[baseline_index(ctx.triads)].energy_per_op_fj;
        cell.ber = tr.ber;
        cell.adds = q.adds;
        cell.culprits = culprits;
        cell.elapsed_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        obs::metrics()
            .histogram("campaign.cell.seconds." + cell.key.backend)
            .observe(cell.elapsed_s);
        store.insert(cell);  // append-on-complete
        cells[p.slot] = cell;
        if (config.on_cell) config.on_cell(cell);
      },
      config.jobs);
  outcome.computed = pending.size();

  // Reused cells carry the baseline their original grid had; rebase
  // every cell of a circuit on the current grid's most relaxed triad
  // so one report never mixes savings baselines. Per-triad energy is
  // backend-independent within an energy class — but sim-seq charges
  // the register clock energy on top, so registered and combinational
  // cells rebase separately (a registered design's guard-banded
  // baseline pays its flops too). On a fleet grid each chip is its own
  // die corner, so savings compare against that chip's own
  // guard-banded baseline, not the nominal die's.
  const auto is_seq = [](const CampaignCell& cell) {
    return cell.key.backend == "sim-seq";
  };
  std::set<std::uint64_t> rebase_chips;
  for (const CampaignCell& cell : outcome.cells)
    rebase_chips.insert(cell.key.chip);
  for (const std::string& circuit : config.circuits) {
    for (const bool seq_class : {false, true}) {
      for (const std::uint64_t chip : rebase_chips) {
        const CampaignCell* base = nullptr;
        for (const CampaignCell& cell : outcome.cells)
          if (cell.key.circuit == circuit &&
              is_seq(cell) == seq_class && cell.key.chip == chip &&
              (base == nullptr || relaxation_rank(cell.key.triad) >
                                      relaxation_rank(base->key.triad)))
            base = &cell;
        if (base == nullptr) continue;
        const double baseline = base->energy_per_op_fj;
        for (CampaignCell& cell : outcome.cells)
          if (cell.key.circuit == circuit &&
              is_seq(cell) == seq_class && cell.key.chip == chip)
            cell.baseline_fj = baseline;
      }
    }
  }
  return outcome;
}

}  // namespace vosim
