// Byte pins of every JSON line the program writes: a campaign store
// cell, a run manifest, a metrics snapshot, a trace document and the
// serve daemon's acks, footers and unknown-verb error. Each expected
// string is a literal, so any change to the emitted bytes — separators,
// number forms, key order, escaping — fails here first. Then a
// malformed-input corpus: mutated store lines and requests get only
// rejections, or single valid-JSON error lines from the daemon.
#include <gtest/gtest.h>
#include <unistd.h>

#include <regex>
#include <string>
#include <vector>

#include "src/campaign/store.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/server.hpp"
#include "src/tech/library.hpp"
#include "src/util/jsonl.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

TEST(WireFormat, StoreCellLineBytes) {
  CampaignCell cell;
  cell.key.workload = "fir";
  cell.key.circuit = "rca16";
  cell.key.backend = "sim-levelized";
  cell.key.triad = {0.53, 0.5, 2.0};
  cell.key.seed = 7;
  cell.key.train_patterns = 4000;
  cell.key.characterize_patterns = 2000;
  cell.key.chip = 3;
  cell.metric = "snr_db";
  cell.quality = 0.1;
  cell.normalized = 1.0 / 3;
  cell.energy_per_op_fj = 1e-300;
  cell.baseline_fj = -0.0;
  cell.ber = 0.25;
  cell.adds = 123456789012ULL;
  cell.elapsed_s = 1.5;
  cell.culprits = "s0=12,c3=4";
  const std::string line = CampaignStore::to_jsonl(cell);
  EXPECT_EQ(line,
            "{\"workload\":\"fir\",\"circuit\":\"rca16\",\"backend\":"
            "\"sim-levelized\",\"tclk_ns\":0.53,\"vdd_v\":0.5,\"vbb_v\":2,"
            "\"seed\":7,\"train_patterns\":4000,\"characterize_patterns\":"
            "2000,\"chip\":3,\"metric\":\"snr_db\",\"quality\":0.1,"
            "\"normalized\":0.33333333333333331,\"energy_per_op_fj\":"
            "1e-300,\"baseline_fj\":-0,\"ber\":0.25,"
            "\"adds\":123456789012,\"elapsed_s\":1.5,\"culprits\":"
            "\"s0=12,c3=4\"}");
  // The line reads back to the same cell and re-writes to the same
  // bytes; without culprits the field is omitted.
  const auto parsed = CampaignStore::parse_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(CampaignStore::to_jsonl(*parsed), line);
  cell.culprits.clear();
  EXPECT_EQ(CampaignStore::to_jsonl(cell),
            line.substr(0, line.find(",\"culprits\"")) + "}");
}

TEST(WireFormat, ManifestLineBytes) {
  obs::RunManifest m;
  m.tool = "campaign";
  m.engine = "levelized";
  m.shard = "1/4";
  m.config = "workloads=fir|circuits=rca16";
  EXPECT_EQ(m.to_jsonl(),
            "{\"vosim_manifest\":1,\"store_version\":9,\"tool\":"
            "\"campaign\",\"engine\":\"levelized\",\"lane_width\":64,"
            "\"shard\":\"1/4\",\"config_hash\":\"2384dfee5ea5c1b5\"}");
}

TEST(WireFormat, MetricsSnapshotBytes) {
  obs::MetricsSnapshot snap;
  snap.counters["serve.requests"] = 42;
  snap.gauges["serve.connections.active"] = -1.5;
  obs::LatencyHisto::Snapshot h;
  h.count = 3;
  h.mean = 0.1;
  h.min = 1e-7;
  h.max = 2.5;
  h.p50 = 1.0 / 3;
  h.p95 = 2.0;
  h.p99 = 2.5;
  snap.histograms["serve.request.seconds"] = h;
  EXPECT_EQ(snap.to_json(),
            "{\"counters\":{\"serve.requests\":42},\"gauges\":"
            "{\"serve.connections.active\":-1.5},\"histograms\":"
            "{\"serve.request.seconds\":{\"count\":3,\"mean\":0.1,"
            "\"min\":1e-07,\"max\":2.5,\"p50\":"
            "0.33333333333333331,\"p95\":2,\"p99\":2.5}}}");
  EXPECT_EQ(obs::MetricsSnapshot{}.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(WireFormat, TraceDocumentBytes) {
  obs::start_trace();
  {
    obs::ScopedSpan span("unit.span", "test");
    span.arg("label", std::string("a\"b"))
        .arg("cycles", std::uint64_t{17})
        .arg("ratio", 0.5);
  }
  std::string doc = obs::stop_trace_json();
  // Timestamps are wall clock: mask them, pin everything else.
  doc = std::regex_replace(doc, std::regex("\"(ts|dur)\":[-0-9.e+]+"),
                           "\"$1\":T");
  EXPECT_EQ(doc,
            "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\","
            "\"pid\":1,\"tid\":1,\"args\":{\"name\":\"vosim-1\"}},"
            "{\"name\":\"unit.span\",\"cat\":\"test\",\"ph\":\"X\","
            "\"ts\":T,\"dur\":T,\"pid\":1,\"tid\":1,\"args\":{\"label\":"
            "\"a\\\"b\",\"cycles\":\"17\",\"ratio\":\"0.5\"}}],"
            "\"displayTimeUnit\":\"ms\"}");
  // A session without spans is an empty event list.
  obs::start_trace();
  EXPECT_EQ(obs::stop_trace_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(WireFormat, DaemonAcksFootersAndErrorBytes) {
  ServeConfig cfg;
  cfg.socket_path =
      "/tmp/vosim_test_wire_" + std::to_string(::getpid()) + ".sock";
  CampaignServer server(make_fdsoi28_lvt(), cfg);
  server.start();
  const auto ask = [&](const std::string& req) {
    return send_request(cfg.socket_path, req);
  };
  EXPECT_EQ(ask("{\"cmd\":\"ping\"}"),
            std::vector<std::string>{"{\"ok\":true,\"cmd\":\"ping\"}"});
  EXPECT_EQ(ask("{\"cmd\":\"nope\"}"),
            std::vector<std::string>{
                "{\"error\":\"unknown cmd\",\"cmd\":\"nope\",\"known\":"
                "[\"campaign\",\"ping\",\"shutdown\",\"stats\","
                "\"watch\"]}"});
  const auto cells = ask(
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":\"rca16\","
      "\"backends\":\"exact\",\"max_triads\":1,\"patterns\":300}");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1], "{\"done\":true,\"cells\":1,\"reused\":0,"
                      "\"computed\":1}");
  const auto watch = ask("{\"cmd\":\"watch\",\"limit\":1}");
  ASSERT_EQ(watch.size(), 3u);
  EXPECT_EQ(watch[0], "{\"ok\":true,\"cmd\":\"watch\"}");
  EXPECT_EQ(watch[1], cells[0]);
  EXPECT_EQ(watch[2], "{\"done\":true,\"cmd\":\"watch\",\"events\":1,"
                      "\"dropped\":0}");
  EXPECT_EQ(ask("{\"cmd\":\"shutdown\"}"),
            std::vector<std::string>{"{\"ok\":true,\"cmd\":\"shutdown\"}"});
  server.wait();
  server.stop();
}

/// `line` with one to three bytes replaced by JSON punctuation, escape
/// material or random bytes, and up to three bytes cut off its end.
std::string mutate(const std::string& line, Rng& rng) {
  static const std::string alphabet = "{}[]\",:\\u 0x-e.";
  std::string out = line;
  for (int m = 1 + static_cast<int>(rng.below(3)); m > 0; --m) {
    const std::size_t at = rng.below(out.size());
    out[at] = rng.below(4) == 0 ? static_cast<char>(rng.below(256))
                                : alphabet[rng.below(alphabet.size())];
  }
  out.resize(out.size() - rng.below(4));
  return out;
}

/// True when `s` is valid UTF-8 (shortest forms, no surrogates, at
/// most U+10FFFF).
bool valid_utf8(const std::string& s) {
  for (std::size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    const std::size_t n = c < 0x80 ? 1 : c < 0xC2 ? 0 : c < 0xE0 ? 2
                          : c < 0xF0 ? 3 : c < 0xF5 ? 4 : 0;
    if (n == 0 || i + n > s.size()) return false;
    std::uint32_t cp = n == 1 ? c : c & (0x7F >> n);
    for (std::size_t k = 1; k < n; ++k) {
      const unsigned char t = static_cast<unsigned char>(s[i + k]);
      if ((t & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (t & 0x3F);
    }
    const std::uint32_t min[] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < min[n] || (cp >= 0xD800 && cp < 0xE000) || cp > 0x10FFFF)
      return false;
    i += n;
  }
  return true;
}

// A store line mutated anywhere is rejected, or read as a cell that
// writes back as a valid UTF-8 line; nothing crashes (the sanitizer
// builds run this).
TEST(WireFormat, MutatedStoreLinesAreRejectedOrReadConsistently) {
  CampaignCell cell;
  cell.key = {"fir", "rca16", "model", {0.53, 0.5, 2.0}, 7, 4000, 2000, 3};
  cell.metric = "snr_db";
  cell.quality = 31.5;
  cell.normalized = 1.0 / 3;
  cell.culprits = "s0=12,c3=4";
  const std::string line = CampaignStore::to_jsonl(cell);
  Rng rng(11);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const std::string bad = mutate(line, rng);
    const auto parsed = CampaignStore::parse_jsonl(bad);
    if (!parsed) {
      ++rejected;
      continue;
    }
    // Bytes of the line that are no UTF-8 are written as \ufffd, which
    // reads back as U+FFFD; from there the line is a fixed point.
    const std::string again = CampaignStore::to_jsonl(*parsed);
    ASSERT_TRUE(valid_utf8(again)) << bad;
    const auto reparsed = CampaignStore::parse_jsonl(again);
    ASSERT_TRUE(reparsed.has_value()) << bad;
    EXPECT_EQ(reparsed->key.seed, parsed->key.seed) << bad;
    const std::string stable = CampaignStore::to_jsonl(*reparsed);
    const auto last = CampaignStore::parse_jsonl(stable);
    ASSERT_TRUE(last.has_value()) << bad;
    EXPECT_EQ(last->key, reparsed->key) << bad;
    EXPECT_EQ(CampaignStore::to_jsonl(*last), stable) << bad;
  }
  EXPECT_GT(rejected, 2500u);
}

// Every malformed request gets exactly one line back: one valid UTF-8
// JSON object carrying a string "error". The corpus is hand-written
// cases plus mutations of a request whose verb no mutation can turn
// into a known one, so no campaign runs.
TEST(WireFormat, MalformedRequestsGetOneValidJsonErrorLine) {
  ServeConfig cfg;
  cfg.socket_path =
      "/tmp/vosim_test_corpus_" + std::to_string(::getpid()) + ".sock";
  CampaignServer server(make_fdsoi28_lvt(), cfg);
  server.start();
  std::vector<std::string> corpus = {
      "", "{", "}", "[]", "null", "\"cmd\"", "{\"cmd\"}", "{\"cmd\":}",
      "{\"cmd\":ping}", "{\"cmd\":\"ping\",}", "{\"cmd\":\"ping\"}}",
      "{\"cmd\":\"\\ud800\"}", "{\"cmd\":\"\\udc00\"}",
      "{\"cmd\":\"p\x01\"}", "{\"cmd\":\"\xff\xfe\"}",
      "{\"cmd\":\"\xc0\xaf\"}", "{\"cmd\":[\"ping\"]}",
      "{\"cmd\":{\"cmd\":\"ping\"}}", "{\"cmd\":\"campaign\",\"jobs\":1e3}",
      "{\"cmd\":\"campaign\",\"backends\":\"\\u0000\"}",
      "{\"cmd\":\"\\ud83d\\ude00\"}",
      "{\"cmd\":\"" + std::string(70000, 'x') + "\"}",
      "{\"a\":" + std::string(100, '[') + std::string(100, ']') + "}"};
  Rng rng(29);
  const std::string base =
      R"({"cmd":"nope","opts":{"a":[1,{"b":"x"}]},"s":"q\"r\u00e9",)"
      R"("n":-1.5e3})";
  for (int trial = 0; trial < 400; ++trial)
    corpus.push_back(mutate(base, rng));
  for (const std::string& req : corpus) {
    const auto reply = send_request(cfg.socket_path, req);
    ASSERT_EQ(reply.size(), 1u) << req;
    std::string error;
    EXPECT_TRUE(jsonl::Fields(reply[0]).str("error", error))
        << req << " -> " << reply[0];
    EXPECT_TRUE(valid_utf8(reply[0])) << req << " -> " << reply[0];
  }
  EXPECT_TRUE(server.running());
  server.stop();
}

}  // namespace
}  // namespace vosim
