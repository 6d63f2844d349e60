// Telemetry-layer tests: metrics registry correctness under threads,
// latency-histogram quantiles, Chrome-trace span sessions, run
// manifests, and the acceptance pin — a campaign's cache-hit counters
// exactly match the runner's reused/computed cell counts, and its
// characterize/train counters match the calls actually made.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/tech/library.hpp"

namespace vosim {
namespace {

TEST(Metrics, CounterSumsAcrossThreads) {
  obs::Counter& c = obs::metrics().counter("test.obs.threads");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeTracksUpAndDown) {
  obs::Gauge& g = obs::metrics().gauge("test.obs.gauge");
  g.reset();
  g.add(3.0);
  g.add(2.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  obs::Counter& a = obs::metrics().counter("test.obs.stable");
  obs::Counter& b = obs::metrics().counter("test.obs.stable");
  EXPECT_EQ(&a, &b);  // cached static-local refs stay valid
}

TEST(Metrics, LatencyHistogramQuantilesAndSnapshot) {
  obs::LatencyHisto& h = obs::metrics().histogram("test.obs.latency");
  h.reset();
  // 90 fast observations and 10 slow ones: p50 lands in the fast
  // cluster, p99 in the slow one. The estimate is bucket-interpolated
  // (6 buckets/decade), so compare within half a decade.
  for (int i = 0; i < 90; ++i) h.observe(1e-4);
  for (int i = 0; i < 10; ++i) h.observe(1e-1);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.mean, 0.9 * 1e-4 + 0.1 * 1e-1, 1e-6);
  EXPECT_DOUBLE_EQ(snap.min, 1e-4);
  EXPECT_DOUBLE_EQ(snap.max, 1e-1);
  EXPECT_GT(snap.p50, 1e-5);
  EXPECT_LT(snap.p50, 1e-3);
  EXPECT_GT(snap.p99, 1e-2);
  EXPECT_LT(snap.p99, 1.0);
}

TEST(Metrics, SnapshotJsonIsSingleLineWithEveryKind) {
  obs::metrics().counter("test.obs.json.counter").add(5);
  obs::metrics().gauge("test.obs.json.gauge").set(2.5);
  obs::metrics().histogram("test.obs.json.histo").observe(0.01);
  const std::string json = obs::metrics().snapshot().to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.counter\":"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.histo\":{\"count\":"),
            std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Trace, DisabledSpansRecordNothing) {
  ASSERT_FALSE(obs::tracing());
  {
    obs::ScopedSpan span("test.noop", "test");
    span.arg("k", std::string("v"));
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Trace, SessionRecordsChromeCompleteEvents) {
  obs::start_trace();
  {
    obs::ScopedSpan outer("test.outer", "test");
    outer.arg("label", std::string("quoted \"value\""))
        .arg("n", std::uint64_t{42})
        .arg("text", std::string("a\nb\tc\\"));
    obs::ScopedSpan inner("test.inner", "test");
  }
  std::thread worker([] { obs::ScopedSpan span("test.worker", "test"); });
  worker.join();
  EXPECT_EQ(obs::trace_event_count(), 3u);
  const std::string doc = obs::stop_trace_json();
  EXPECT_FALSE(obs::tracing());
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"test.inner\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"test.worker\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"label\":\"quoted \\\"value\\\"\","
                     "\"n\":\"42\",\"text\":\"a\\u000ab\\u0009c\\\\\"}"),
            std::string::npos);
  // The worker thread got its own track (tid 2 after the main thread).
  EXPECT_NE(doc.find("\"tid\":2"), std::string::npos);
  // Stopping drained the session.
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Trace, RestartDropsThePreviousSession) {
  obs::start_trace();
  { obs::ScopedSpan span("test.stale", "test"); }
  obs::start_trace();  // new session: the stale event must not leak in
  { obs::ScopedSpan span("test.fresh", "test"); }
  const std::string doc = obs::stop_trace_json();
  EXPECT_EQ(doc.find("test.stale"), std::string::npos);
  EXPECT_NE(doc.find("test.fresh"), std::string::npos);
}

TEST(Manifest, RoundTripsThroughJsonl) {
  obs::RunManifest m;
  m.tool = "campaign";
  m.engine = "levelized";
  m.lane_width = 256;
  m.shard = "2/4";
  m.config = "campaign --workloads=fir";
  const std::string line = m.to_jsonl();
  EXPECT_TRUE(obs::RunManifest::is_manifest_line(line));
  const auto parsed = obs::RunManifest::parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tool, "campaign");
  EXPECT_EQ(parsed->engine, "levelized");
  EXPECT_EQ(parsed->lane_width, 256u);
  EXPECT_EQ(parsed->shard, "2/4");
  EXPECT_EQ(parsed->store_version, obs::kStoreVersion);
  EXPECT_EQ(parsed->parsed_hash, m.config_hash());
  // Different configs hash differently (FNV-1a content hash).
  obs::RunManifest other = m;
  other.config = "campaign --workloads=dot";
  EXPECT_NE(other.config_hash(), m.config_hash());
  // The backward-compat linchpin: a manifest line is NOT a cell.
  EXPECT_FALSE(CampaignStore::parse_jsonl(line).has_value());
  EXPECT_FALSE(obs::RunManifest::parse("{\"workload\":\"fir\"}")
                   .has_value());
}

TEST(Campaign, CacheCountersMatchRunnerOutcome) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  auto& reg = obs::metrics();
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kModel};
  cfg.max_triads = 2;
  cfg.characterize_patterns = 300;
  cfg.train_patterns = 400;

  CampaignStore store;  // in-memory: pass 2 resumes from pass 1
  const std::uint64_t hit0 =
      reg.counter("campaign.cache.hit").value();
  const std::uint64_t miss0 =
      reg.counter("campaign.cache.miss").value();
  const std::uint64_t char0 =
      reg.counter("campaign.characterize.calls").value();
  const std::uint64_t train0 =
      reg.counter("campaign.train.calls").value();

  const CampaignOutcome first = run_campaign(lib, cfg, store);
  EXPECT_EQ(first.reused, 0u);
  EXPECT_EQ(first.computed, 2u);
  EXPECT_EQ(reg.counter("campaign.cache.hit").value() - hit0,
            first.reused);
  EXPECT_EQ(reg.counter("campaign.cache.miss").value() - miss0,
            first.computed);
  // One pending circuit -> one characterize_dut call; two model-backend
  // triads -> two trained models.
  EXPECT_EQ(reg.counter("campaign.characterize.calls").value() - char0,
            1u);
  EXPECT_EQ(reg.counter("campaign.train.calls").value() - train0, 2u);

  const CampaignOutcome second = run_campaign(lib, cfg, store);
  EXPECT_EQ(second.reused, 2u);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(reg.counter("campaign.cache.hit").value() - hit0,
            first.reused + second.reused);
  EXPECT_EQ(reg.counter("campaign.cache.miss").value() - miss0,
            first.computed + second.computed);
  // A fully-resumed campaign touches no simulator: no new
  // characterization and no new models.
  EXPECT_EQ(reg.counter("campaign.characterize.calls").value() - char0,
            1u);
  EXPECT_EQ(reg.counter("campaign.train.calls").value() - train0, 2u);
  // The per-backend wall-time histogram saw exactly the computed cells.
  EXPECT_GE(reg.histogram("campaign.cell.seconds.model").snapshot().count,
            2u);
}

TEST(Campaign, TraceCoversCampaignPhases) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kExact};
  cfg.max_triads = 1;
  cfg.characterize_patterns = 200;

  obs::start_trace();
  CampaignStore store;
  run_campaign(lib, cfg, store);
  const std::string doc = obs::stop_trace_json();
  EXPECT_NE(doc.find("\"name\":\"campaign.synth\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"campaign.characterize\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"campaign.execute\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"campaign.cell\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend\":\"exact\""), std::string::npos);
}

}  // namespace
}  // namespace vosim
