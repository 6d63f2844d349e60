// Sweep-daemon tests: in-process CampaignServer on a Unix socket,
// concurrent campaign requests, equivalence of the streamed cells with
// an offline run of the same grid, malformed-request and mid-stream
// disconnect survival, and the stats introspection verb.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/server.hpp"
#include "src/tech/library.hpp"
#include "src/util/jsonl.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

/// Short socket path: sockaddr_un caps at ~100 chars and TempDir can
/// be long, so sockets live under /tmp with the test pid mixed in.
std::string socket_path(const std::string& tag) {
  return "/tmp/vosim_test_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(CampaignServer, PingAndShutdownRoundTrip) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("ping");
  CampaignServer server(lib(), cfg);
  server.start();
  EXPECT_TRUE(server.running());

  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");

  const auto bad = send_request(cfg.socket_path, "{\"cmd\":\"nope\"}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("\"error\""), std::string::npos);

  const auto ack =
      send_request(cfg.socket_path, "{\"cmd\":\"shutdown\"}");
  ASSERT_EQ(ack.size(), 1u);
  EXPECT_EQ(ack[0], "{\"ok\":true,\"cmd\":\"shutdown\"}");
  server.wait();  // returns because shutdown was served
  server.stop();
  EXPECT_EQ(server.requests_served(), 3u);
}

/// Threads of this process (entries of /proc/self/task).
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

/// VmSize of this process in MB (/proc/self/status), 0 if unreadable.
double vm_size_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0)
      return std::stod(line.substr(7)) / 1024.0;  // kB
  return 0.0;
}

TEST(CampaignServer, ConcurrentRequestsMatchOfflineExecution) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("campaign");
  CampaignServer server(lib(), cfg);
  server.start();

  const std::string req1 =
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800,\"chips\":2}";
  const std::string req2 =
      "{\"cmd\":\"campaign\",\"workloads\":\"dot\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800,\"chips\":2}";

  std::vector<std::string> r1, r2;
  std::thread t1(
      [&] { r1 = send_request(cfg.socket_path, req1); });
  std::thread t2(
      [&] { r2 = send_request(cfg.socket_path, req2); });
  t1.join();
  t2.join();
  server.stop();

  // Each stream: 2 triads x 2 chips = 4 cells plus the done footer.
  ASSERT_EQ(r1.size(), 5u);
  ASSERT_EQ(r2.size(), 5u);
  EXPECT_NE(r1.back().find("\"done\":true,\"cells\":4"),
            std::string::npos);
  EXPECT_NE(r2.back().find("\"done\":true,\"cells\":4"),
            std::string::npos);

  // Offline reference: the same grids through run_campaign. The
  // daemon streams the stored cell form, so everything but the
  // wall-clock elapsed_s must match byte-for-byte.
  CampaignConfig offline;
  offline.circuits = {"rca16"};
  offline.backends = {ArithBackend::kModel};
  offline.max_triads = 2;
  offline.characterize_patterns = 300;
  offline.train_patterns = 800;
  offline.fleet.num_chips = 2;
  const auto strip = [](const std::string& line) {
    return line.substr(0, line.find("\"elapsed_s\""));
  };
  const std::vector<std::string>* streams[] = {&r1, &r2};
  const char* workloads[] = {"fir", "dot"};
  for (int i = 0; i < 2; ++i) {
    offline.workloads = {workloads[i]};
    CampaignStore store;
    const CampaignOutcome outcome = run_campaign(lib(), offline, store);
    ASSERT_EQ(outcome.cells.size(), 4u);
    for (std::size_t c = 0; c < outcome.cells.size(); ++c) {
      const auto stored = store.find(outcome.cells[c].key);
      ASSERT_TRUE(stored.has_value());
      EXPECT_EQ(strip((*streams[i])[c]),
                strip(CampaignStore::to_jsonl(*stored)))
          << workloads[i] << " cell " << c;
    }
  }
}

TEST(CampaignServer, WarmStoreAnswersRepeatRequests) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("warm");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string req =
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":1,"
      "\"patterns\":300,\"train_patterns\":800}";
  const auto first = send_request(cfg.socket_path, req);
  const auto second = send_request(cfg.socket_path, req);
  server.stop();
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  // Pass 1 computes, pass 2 answers everything from the warm store.
  EXPECT_NE(first.back().find("\"reused\":0,\"computed\":1"),
            std::string::npos);
  EXPECT_NE(second.back().find("\"reused\":1,\"computed\":0"),
            std::string::npos);
  EXPECT_EQ(server.store().size(), 1u);
}

TEST(CampaignServer, RejectsBadRequestsAndBadSockets) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("errors");
  CampaignServer server(lib(), cfg);
  server.start();
  const auto no_cmd = send_request(cfg.socket_path, "{}");
  ASSERT_EQ(no_cmd.size(), 1u);
  EXPECT_EQ(no_cmd[0], "{\"error\":\"missing cmd\"}");
  // A campaign over an unknown workload streams an error, not a crash.
  const auto bad = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"nope\"}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("\"error\""), std::string::npos);
  server.stop();
  EXPECT_THROW(send_request(cfg.socket_path, "{\"cmd\":\"ping\"}"),
               std::runtime_error);
  CampaignServer unbindable(lib(), ServeConfig{});
  EXPECT_THROW(unbindable.start(), std::runtime_error);
}

TEST(CampaignServer, MalformedRequestJsonStreamsErrorsNotCrashes) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("malformed");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t errors0 =
      obs::metrics().counter("serve.errors").value();

  // Garbage, a request truncated mid-string, and a campaign over a
  // circuit the builder rejects: each gets exactly one error line.
  for (const char* req :
       {"this is not json", "{\"cmd\":\"campai",
        "{\"cmd\":\"campaign\",\"circuits\":\"nosuchcircuit\"}"}) {
    const auto reply = send_request(cfg.socket_path, req);
    ASSERT_EQ(reply.size(), 1u) << req;
    EXPECT_NE(reply[0].find("\"error\""), std::string::npos) << req;
  }
  EXPECT_EQ(obs::metrics().counter("serve.errors").value() - errors0, 3u);

  // The daemon shrugged all three off and still answers.
  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");
  server.stop();
}

/// Connects to the daemon without sending anything; returns the socket
/// (-1 on failure).
int connect_raw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(CampaignServer, SurvivesClientDisconnectMidStream) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("disconnect");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t gone0 =
      obs::metrics().counter("serve.disconnects").value();

  // A client that fires a campaign request and hangs up without reading
  // a byte. The daemon is deep in run_campaign when its first stream
  // write hits the closed peer — without MSG_NOSIGNAL that's a SIGPIPE
  // and a dead daemon.
  const int fd = connect_raw(cfg.socket_path);
  ASSERT_GE(fd, 0);
  const std::string req =
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":1,"
      "\"patterns\":300,\"train_patterns\":800}\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  ::close(fd);

  // The abandoned campaign still runs to completion (the store keeps
  // the cell) and the broken stream is counted, not fatal.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (obs::metrics().counter("serve.disconnects").value() == gone0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(obs::metrics().counter("serve.disconnects").value() - gone0,
            1u);
  EXPECT_EQ(server.store().size(), 1u);

  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");
  server.stop();
}

// A client that connects and never sends its request line must neither
// block later requests nor hang shutdown: its read times out, it gets
// an error line, and stop() (which joins every connection thread)
// returns within the read timeout.
TEST(CampaignServer, SilentClientTimesOutAndDoesNotHangStop) {
  using std::chrono::steady_clock;
  const auto timeout = CampaignServer::kRequestReadTimeout;
  ServeConfig cfg;
  cfg.socket_path = socket_path("silent");
  CampaignServer server(lib(), cfg);
  server.start();

  const int silent = connect_raw(cfg.socket_path);
  ASSERT_GE(silent, 0);
  std::this_thread::sleep_for(timeout + std::chrono::milliseconds(500));
  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");
  // The timed-out connection was answered and closed.
  char buf[256];
  const ssize_t n = ::read(silent, buf, sizeof(buf));
  ASSERT_GT(n, 0);
  EXPECT_NE(std::string(buf, static_cast<std::size_t>(n)).find("\"error\""),
            std::string::npos);
  EXPECT_EQ(::read(silent, buf, sizeof(buf)), 0);
  ::close(silent);

  // A second silent client is still connected when stop() runs: wait
  // until its connection thread is up and blocked in the read.
  obs::Gauge& active = obs::metrics().gauge("serve.connections.active");
  const double active0 = active.value();
  const int held = connect_raw(cfg.socket_path);
  ASSERT_GE(held, 0);
  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  while (active.value() == active0 && steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GT(active.value(), active0);
  const auto t0 = steady_clock::now();
  server.stop();
  EXPECT_LT(steady_clock::now() - t0, timeout + std::chrono::seconds(3));
  EXPECT_FALSE(server.running());
  ::close(held);
}

TEST(CampaignServer, StatsVerbReportsManifestAndMetrics) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("stats");
  CampaignServer server(lib(), cfg);
  server.start();

  // Idle daemon: the stats request is itself the first served request.
  const auto idle = send_request(cfg.socket_path, "{\"cmd\":\"stats\"}");
  ASSERT_EQ(idle.size(), 1u);
  EXPECT_NE(idle[0].find("\"ok\":true,\"cmd\":\"stats\""),
            std::string::npos);
  EXPECT_NE(idle[0].find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(idle[0].find("\"requests_served\":1"), std::string::npos);
  EXPECT_NE(idle[0].find("\"active_connections\":1"), std::string::npos);
  EXPECT_NE(idle[0].find("\"store_cells\":0"), std::string::npos);
  // The embedded run manifest identifies the daemon...
  EXPECT_NE(idle[0].find("\"manifest\":{\"vosim_manifest\":1"),
            std::string::npos);
  EXPECT_NE(idle[0].find("\"tool\":\"serve\""), std::string::npos);
  EXPECT_NE(idle[0].find("\"config_hash\":"), std::string::npos);
  // ...and the metrics block is the process-wide snapshot.
  EXPECT_NE(idle[0].find("\"metrics\":{\"counters\":{"),
            std::string::npos);

  // Busy daemon: after a campaign the store and counters have moved.
  const auto stream = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":1,"
      "\"patterns\":300,\"train_patterns\":800}");
  ASSERT_FALSE(stream.empty());
  const auto busy = send_request(cfg.socket_path, "{\"cmd\":\"stats\"}");
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_NE(busy[0].find("\"requests_served\":3"), std::string::npos);
  EXPECT_NE(busy[0].find("\"store_cells\":1"), std::string::npos);
  EXPECT_NE(busy[0].find("\"campaign.cache.miss\":"), std::string::npos);
  server.stop();
}

TEST(CampaignServer, UnknownVerbReturnsStructuredError) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("unknown");
  CampaignServer server(lib(), cfg);
  server.start();
  // The error line is self-diagnosing: it echoes the verb back and
  // enumerates the supported set, so a client can repair itself.
  const auto bad = send_request(cfg.socket_path, "{\"cmd\":\"nope\"}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0],
            "{\"error\":\"unknown cmd\",\"cmd\":\"nope\",\"known\":"
            "[\"campaign\",\"ping\",\"shutdown\",\"stats\",\"watch\"]}");
  server.stop();
}

// Client text echoed into an error line is escaped, so every reply is
// one valid JSON object whatever the client sent. Whitespace around the
// colon (Python's json.dumps writes `{"cmd": "ping"}`) is valid JSON
// and parses like the compact form, and a string value spelled like the
// key is not taken for it.
TEST(CampaignServer, ErrorLinesEscapeClientText) {
  EXPECT_EQ(jsonl::Writer().str("a\"b\\c\n\x01" "d").text(),
            "\"a\\\"b\\\\c\\u000a\\u0001d\"");

  ServeConfig cfg;
  cfg.socket_path = socket_path("escape");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string known =
      ",\"known\":[\"campaign\",\"ping\",\"shutdown\",\"stats\","
      "\"watch\"]}";
  for (const char* spaced_ping :
       {"{\"cmd\": \"ping\"}", "{ \"cmd\" : \"ping\" }",
        "{\"tag\": \"cmd\", \"cmd\": \"ping\"}"}) {
    const auto spaced = send_request(cfg.socket_path, spaced_ping);
    ASSERT_EQ(spaced.size(), 1u) << spaced_ping;
    EXPECT_EQ(spaced[0], "{\"ok\":true,\"cmd\":\"ping\"}") << spaced_ping;
  }
  // The verb is read up to its closing quote with the escape decoded
  // (`x"y`), and echoed re-quoted.
  const auto quoted = send_request(cfg.socket_path, "{\"cmd\":\"x\\\"y\"}");
  ASSERT_EQ(quoted.size(), 1u);
  EXPECT_EQ(quoted[0],
            "{\"error\":\"unknown cmd\",\"cmd\":\"x\\\"y\"" + known);
  // An exception message carrying client text is escaped the same way.
  const auto backend = send_request(
      cfg.socket_path, "{\"cmd\":\"campaign\",\"backends\":\"x\\\"y\"}");
  ASSERT_EQ(backend.size(), 1u);
  EXPECT_EQ(backend[0],
            "{\"error\":\"unknown backend 'x\\\"y' (expected exact | model | "
            "sim-event | sim-levelized | sim-seq)\"}");
  server.stop();
}

// Only the request's top-level `cmd` is its verb: one spelled inside a
// nested object (or inside a string) is data, so this request is a
// ping, and the daemon keeps serving after it.
TEST(CampaignServer, NestedCmdIsNotTheVerb) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("nested");
  CampaignServer server(lib(), cfg);
  server.start();
  for (const char* req :
       {"{\"opts\":{\"cmd\":\"shutdown\"},\"cmd\":\"ping\"}",
        "{\"tags\":[{\"cmd\":\"shutdown\"}],\"note\":\"\\\"cmd\\\":"
        "\\\"shutdown\\\"\",\"cmd\":\"ping\"}"}) {
    const auto reply = send_request(cfg.socket_path, req);
    ASSERT_EQ(reply.size(), 1u) << req;
    EXPECT_EQ(reply[0], "{\"ok\":true,\"cmd\":\"ping\"}") << req;
  }
  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");
  EXPECT_TRUE(server.running());
  server.stop();
}

TEST(CampaignServer, WatchVerbStreamsComputedCellsWithBacklog) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("watch");
  CampaignServer server(lib(), cfg);
  server.start();

  // A campaign computes 2 cells; each fans out to the watch log.
  const std::string campaign_fir =
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800}";
  const auto stream = send_request(cfg.socket_path, campaign_fir);
  ASSERT_EQ(stream.size(), 3u);  // 2 cells + done footer
  EXPECT_EQ(server.watch_events(), 2u);

  // A late watcher still sees them: attach starts at the retained
  // backlog, so limit=2 drains the two events and closes with the
  // footer — no live campaign needed.
  const auto backlog =
      send_request(cfg.socket_path, "{\"cmd\":\"watch\",\"limit\":2}");
  ASSERT_EQ(backlog.size(), 4u);  // header + 2 cells + footer
  EXPECT_EQ(backlog[0], "{\"ok\":true,\"cmd\":\"watch\"}");
  EXPECT_EQ(backlog.back(),
            "{\"done\":true,\"cmd\":\"watch\",\"events\":2,"
            "\"dropped\":0}");
  // The streamed lines are the stored cell form, byte for byte.
  for (std::size_t i = 1; i + 1 < backlog.size(); ++i) {
    EXPECT_NE(backlog[i].find("\"workload\":\"fir\""),
              std::string::npos);
    EXPECT_NE(backlog[i].find("\"circuit\":\"rca16\""),
              std::string::npos);
  }

  // Reused cells never re-publish: the same grid again answers from
  // the warm store and the event log does not move.
  const auto warm = send_request(cfg.socket_path, campaign_fir);
  ASSERT_FALSE(warm.empty());
  EXPECT_NE(warm.back().find("\"reused\":2,\"computed\":0"),
            std::string::npos);
  EXPECT_EQ(server.watch_events(), 2u);

  // A live watcher: attach first, then compute 2 fresh cells. The
  // watcher's limit=4 stream is the 2-event backlog plus the 2 new
  // cells as they finish.
  std::vector<std::string> live;
  std::thread watcher([&] {
    live = send_request(cfg.socket_path,
                        "{\"cmd\":\"watch\",\"limit\":4}");
  });
  const auto dot = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"dot\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800}");
  ASSERT_EQ(dot.size(), 3u);
  watcher.join();
  ASSERT_EQ(live.size(), 6u);  // header + 4 cells + footer
  EXPECT_EQ(live.back(),
            "{\"done\":true,\"cmd\":\"watch\",\"events\":4,"
            "\"dropped\":0}");
  EXPECT_NE(live[4].find("\"workload\":\"dot\""), std::string::npos);

  // The stats verb surfaces the watch counters.
  const auto stats =
      send_request(cfg.socket_path, "{\"cmd\":\"stats\"}");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NE(stats[0].find("\"watchers\":0"), std::string::npos);
  EXPECT_NE(stats[0].find("\"watch_events\":4"), std::string::npos);
  server.stop();
}

/// The "error" message of a one-line reply, "" when the reply is not
/// one JSON object line with a string "error" field.
std::string error_of(const std::vector<std::string>& reply) {
  std::string message;
  if (reply.size() != 1 || !jsonl::Fields(reply[0]).str("error", message))
    return "";
  return message;
}

// A request field that is present but does not read as its type gets
// one error line naming it (counted in serve.errors) instead of the
// campaign default: an array where a comma list belongs, a quoted
// number, a negative count, a non-boolean provenance flag, a quoted
// watch limit, a cmd that is no string.
TEST(CampaignServer, MistypedRequestFieldsAreNamedNotDefaulted) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("typed");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t errors0 =
      obs::metrics().counter("serve.errors").value();
  // Each campaign also names an unknown circuit (or workload), so a
  // daemon that defaulted the bad field would fail fast on that
  // instead of running the default grid.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"cmd":"campaign","workloads":["fir"],"circuits":"x"})",
       "'workloads'"},
      {R"({"cmd":"campaign","circuits":{"rca16":1},"workloads":"x"})",
       "'circuits'"},
      {R"({"cmd":"campaign","seed":"7","circuits":"x"})", "'seed'"},
      {R"({"cmd":"campaign","jobs":-1,"circuits":"x"})", "'jobs'"},
      {R"({"cmd":"campaign","max_triads":1.5,"circuits":"x"})",
       "'max_triads'"},
      {R"({"cmd":"campaign","speed_sigma":"0.1","circuits":"x"})",
       "'speed_sigma'"},
      {R"({"cmd":"campaign","provenance":"yes","circuits":"x"})",
       "'provenance'"},
      {R"({"cmd":5})", "'cmd'"},
      {R"({"cmd":"watch","limit":"2"})", "'limit'"}};
  for (const auto& [req, names] : cases) {
    const auto reply = send_request(cfg.socket_path, req);
    EXPECT_NE(error_of(reply).find(names), std::string::npos)
        << req << " -> " << (reply.empty() ? "" : reply[0]);
  }
  EXPECT_EQ(obs::metrics().counter("serve.errors").value() - errors0,
            std::size(cases));
  // A \u-escaped name is decoded before it reaches the registry, which
  // rejects it by its decoded (UTF-8) spelling.
  const auto escaped = send_request(
      cfg.socket_path,
      R"({"cmd":"campaign","workloads":"f\u0131r","circuits":"rca16"})");
  EXPECT_NE(error_of(escaped).find("unknown workload 'f\xc4\xb1r'"),
            std::string::npos)
      << (escaped.empty() ? "" : escaped[0]);
  // The daemon still answers after all of them.
  EXPECT_EQ(send_request(cfg.socket_path, R"({"cmd":"ping"})"),
            std::vector<std::string>{R"({"ok":true,"cmd":"ping"})"});
  server.stop();
}

// Python's json.dumps writes flags as true/false, spaces after `:` and
// `,`, and non-ASCII text as \u escapes; such a request runs the same
// campaign as its compact form, and "provenance":true turns
// attribution on.
TEST(CampaignServer, PythonStyleRequestsRunTheSameCampaign) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("python");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string grid =
      R"("workloads": "fir", "circuits": "rca16", "backends": )"
      R"("sim-levelized", "max_triads": 12, "patterns": 200)";
  const auto with = send_request(
      cfg.socket_path,
      "{\"cmd\": \"campaign\", " + grid + ", \"provenance\": true}");
  ASSERT_EQ(with.size(), 13u);
  std::size_t with_culprits = 0;
  for (std::size_t i = 0; i + 1 < with.size(); ++i) {
    ASSERT_TRUE(CampaignStore::parse_jsonl(with[i]).has_value()) << with[i];
    with_culprits += with[i].find("\"culprits\"") != std::string::npos;
  }
  EXPECT_GT(with_culprits, 0u);
  // "provenance": false, with the verb spelled in \u escapes, is the
  // same grid without attribution: every cell comes from the store.
  const auto without = send_request(
      cfg.socket_path, "{\"cmd\": \"\\u0063ampaign\", " + grid +
                           ", \"provenance\": false}");
  ASSERT_EQ(without.size(), 13u);
  EXPECT_EQ(without.back(),
            R"({"done":true,"cells":12,"reused":12,"computed":0})");
  server.stop();
}

/// Everything the daemon writes to `fd` until it closes the connection.
std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  return out;
}

/// Sends `request` unchanged (no newline added) on a fresh connection and
/// returns the whole answer.
std::string exchange_raw(const std::string& path, const std::string& request) {
  const int fd = connect_raw(path);
  if (fd < 0) return "";
  const bool sent = ::write(fd, request.data(), request.size()) ==
                    static_cast<ssize_t>(request.size());
  std::string answer = sent ? read_all(fd) : "";
  ::close(fd);
  return answer;
}

// The request line is read in chunks up to its first newline: a line
// that arrives in pieces is the same request, bytes after the newline
// are not read as a second one, a line longer than 64 KiB is cut there
// (so it reads as no JSON object at all), and a long valid line is
// still one request.
TEST(CampaignServer, RequestLineIsReadInChunksUpToItsNewline) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("reader");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string pong = "{\"ok\":true,\"cmd\":\"ping\"}";

  const int fd = connect_raw(cfg.socket_path);
  ASSERT_GE(fd, 0);
  for (const char* piece : {"{\"cmd\"", ":\"pi", "ng\"}\n"}) {
    ASSERT_EQ(::write(fd, piece, std::strlen(piece)),
              static_cast<ssize_t>(std::strlen(piece)));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_EQ(read_all(fd), exchange_raw(cfg.socket_path, pong + "\n"));
  ::close(fd);

  EXPECT_EQ(exchange_raw(cfg.socket_path,
                         "{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n"),
            pong + "\n");
  EXPECT_TRUE(server.running());

  const std::string unterminated =
      "{\"cmd\":\"ping\",\"pad\":\"" + std::string(70 * 1024, 'x');
  EXPECT_EQ(exchange_raw(cfg.socket_path, unterminated),
            "{\"error\":\"missing cmd\"}\n");

  const std::string padded =
      "{\"cmd\":\"ping\",\"pad\":\"" + std::string(60000, 'x') + "\"}";
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(send_request(cfg.socket_path, padded),
              std::vector<std::string>{pong});
  server.stop();
  EXPECT_EQ(server.requests_served(), 23u);
}

/// The exact-backend grid the store tests preload: fir on rca16 at its
/// first `triads` VOS triads, on `chips` fleet chips (0: the nominal die).
CampaignConfig exact_grid(std::size_t triads, std::uint64_t seed,
                          std::uint64_t chips = 0) {
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kExact};
  cfg.max_triads = triads;
  cfg.characterize_patterns = 300;
  cfg.seed = seed;
  cfg.fleet.num_chips = chips;
  return cfg;
}

/// The campaign request for exact_grid(triads, seed, chips).
std::string exact_request(std::size_t triads, std::uint64_t seed,
                          std::uint64_t chips = 0) {
  return "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
         "\"rca16\",\"backends\":\"exact\",\"max_triads\":" +
         std::to_string(triads) + ",\"patterns\":300,\"seed\":" +
         std::to_string(seed) + ",\"chips\":" + std::to_string(chips) + "}";
}

/// What the daemon answers a warm request over `store`: the offline
/// to_jsonl(*store.find(key)) line of every cell, then the footer.
std::vector<std::string> warm_answer(CampaignStore& store,
                                     const CampaignConfig& cfg) {
  const CampaignOutcome out = run_campaign(lib(), cfg, store);
  std::vector<std::string> lines;
  for (const CampaignCell& cell : out.cells)
    lines.push_back(CampaignStore::to_jsonl(*store.find(cell.key)));
  lines.push_back("{\"done\":true,\"cells\":" +
                  std::to_string(out.cells.size()) + ",\"reused\":" +
                  std::to_string(out.reused) + ",\"computed\":0}");
  return lines;
}

/// A store file holding exact_grid(triads, 1, chips), computed offline.
std::string preloaded_store(const std::string& tag, std::size_t triads,
                            std::uint64_t chips = 0) {
  const std::string path = testing::TempDir() + "serve_" + tag + ".jsonl";
  std::remove(path.c_str());
  CampaignStore store(path);
  run_campaign(lib(), exact_grid(triads, 1, chips), store);
  return path;
}

// A served cell is to_jsonl of the cell the store parsed, never the
// bytes its file held: a line re-spaced the way Python's json.dumps
// writes it is served compact, and of a key written twice the last
// line wins.
TEST(CampaignServer, ServedLinesAreCanonicalNotFileBytes) {
  const std::string path = preloaded_store("canonical", 2);
  std::vector<std::string> stored;
  {
    std::ifstream in(path);
    for (std::string l; std::getline(in, l);) stored.push_back(l);
  }
  ASSERT_EQ(stored.size(), 2u);
  // Built into a new string: an in-place insert trips GCC 12's
  // -Wrestrict false positive (GCC bug 105329).
  const auto dumps_style = [](std::string l) {
    for (const std::string_view sep : {"\":", ",\""}) {
      std::string spaced;
      std::size_t from = 0;
      for (auto at = l.find(sep); at != std::string::npos;
           at = l.find(sep, at + sep.size())) {
        spaced.append(l, from, at + 1 - from).push_back(' ');
        from = at + 1;
      }
      l = spaced.append(l, from);
    }
    return l;
  };
  CampaignCell first = *CampaignStore::parse_jsonl(stored[0]);
  first.quality += 1.0;
  const std::vector<std::string> file = {
      CampaignStore::to_jsonl(first), dumps_style(stored[1]),
      dumps_style(stored[0])};
  {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& l : file) out << l << "\n";
  }
  ServeConfig cfg;
  cfg.socket_path = socket_path("canonical");
  cfg.store_path = path;
  CampaignServer server(lib(), cfg);
  server.start();
  const auto answer = send_request(cfg.socket_path, exact_request(2, 1));
  server.stop();
  ASSERT_EQ(answer.size(), 3u);
  EXPECT_EQ(answer[2], R"({"done":true,"cells":2,"reused":2,"computed":0})");
  std::map<std::string, std::string> last;  // key -> its last file line
  for (const std::string& l : file)
    last[CampaignStore::parse_jsonl(l)->key.to_string()] = l;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto cell = CampaignStore::parse_jsonl(answer[i]);
    ASSERT_TRUE(cell.has_value()) << answer[i];
    const std::string& raw = last.at(cell->key.to_string());
    EXPECT_EQ(answer[i],
              CampaignStore::to_jsonl(*CampaignStore::parse_jsonl(raw)));
    EXPECT_NE(answer[i], raw);
  }
  // Which are the lines the offline run stored.
  std::vector<std::string> served(answer.begin(), answer.end() - 1);
  std::sort(served.begin(), served.end());
  std::sort(stored.begin(), stored.end());
  EXPECT_EQ(served, stored);
  std::remove(path.c_str());
}

// Inserting a key again (the append a computed cell makes) replaces the
// line a warm request had memoized, so the next answer carries it.
TEST(CampaignServer, ReinsertedKeyIsServedWithItsNewLine) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("reinsert");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string req = exact_request(2, 1);
  const auto cold = send_request(cfg.socket_path, req);
  const auto warm = send_request(cfg.socket_path, req);
  ASSERT_EQ(warm.size(), 3u);
  EXPECT_EQ(std::vector<std::string>(cold.begin(), cold.end() - 1),
            std::vector<std::string>(warm.begin(), warm.end() - 1));

  CampaignCell cell = *CampaignStore::parse_jsonl(warm[0]);
  cell.elapsed_s += 1.0;
  cell.quality += 1.0;
  server.store().insert(cell);
  const auto after = send_request(cfg.socket_path, req);
  server.stop();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0], CampaignStore::to_jsonl(cell));
  EXPECT_EQ(after[1], warm[1]);
}

// Warm clients racing a cold one (which inserts beside their line
// reads) each get the offline store's lines byte for byte; the cold
// client gets the offline campaign's cells up to elapsed_s.
TEST(CampaignServer, ConcurrentWarmAndColdClientsGetOfflineLines) {
  const std::string path = preloaded_store("concurrent", 4);
  std::vector<std::string> expected;
  {
    CampaignStore offline(path);
    expected = warm_answer(offline, exact_grid(4, 1));
  }
  ServeConfig cfg;
  cfg.socket_path = socket_path("concurrent");
  cfg.store_path = path;
  CampaignServer server(lib(), cfg);
  server.start();

  constexpr int kWarmClients = 4;
  constexpr int kRequests = 10;
  std::vector<std::vector<std::vector<std::string>>> warm(kWarmClients);
  std::vector<std::string> cold;
  std::vector<std::thread> clients;
  for (int c = 0; c < kWarmClients; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequests; ++i)
        warm[c].push_back(send_request(cfg.socket_path, exact_request(4, 1)));
    });
  clients.emplace_back(
      [&] { cold = send_request(cfg.socket_path, exact_request(3, 7)); });
  for (std::thread& t : clients) t.join();
  server.stop();

  for (int c = 0; c < kWarmClients; ++c)
    for (const auto& answer : warm[c]) EXPECT_EQ(answer, expected);
  CampaignStore fresh;
  const CampaignOutcome offline = run_campaign(lib(), exact_grid(3, 7), fresh);
  ASSERT_EQ(cold.size(), offline.cells.size() + 1);
  const auto strip = [](const std::string& line) {
    return line.substr(0, line.find("\"elapsed_s\""));
  };
  for (std::size_t i = 0; i < offline.cells.size(); ++i)
    EXPECT_EQ(strip(cold[i]), strip(CampaignStore::to_jsonl(
                                  *fresh.find(offline.cells[i].key))));
  EXPECT_EQ(cold.back(), R"({"done":true,"cells":3,"reused":0,"computed":3})");
  std::remove(path.c_str());
}

// An answer longer than one 64 KiB write (fir at all 43 triads on 6
// chips: 258 cells) arrives whole and in grid order, and
// serve.bytes.streamed counts every byte of it.
TEST(CampaignServer, AnswerPastOneWriteArrivesWhole) {
  const std::string path = preloaded_store("large", 43, 6);
  std::vector<std::string> expected;
  {
    CampaignStore offline(path);
    expected = warm_answer(offline, exact_grid(43, 1, 6));
  }
  std::uint64_t bytes = 0;
  for (const std::string& l : expected) bytes += l.size() + 1;
  ASSERT_EQ(expected.size(), 259u);
  ASSERT_GT(bytes, 1u << 16);
  ServeConfig cfg;
  cfg.socket_path = socket_path("large");
  cfg.store_path = path;
  CampaignServer server(lib(), cfg);
  server.start();
  obs::Counter& streamed = obs::metrics().counter("serve.bytes.streamed");
  const std::uint64_t streamed0 = streamed.value();
  EXPECT_EQ(send_request(cfg.socket_path, exact_request(43, 1, 6)),
            expected);
  server.stop();
  EXPECT_EQ(streamed.value() - streamed0, bytes);
  std::remove(path.c_str());
}

// Long uptime on a preloaded store: 10,000 sequential connections, every
// tenth a warm campaign request and the rest pings. Every connection
// runs on its own thread, and a finished one must be joined (its ~8 MB
// stack mapping released) long before stop(). Past a 1,000-connection
// warm-up the thread count stays flat and VmSize stays put: neither
// thread stacks nor the served-line memo (one line per stored cell)
// grow with requests.
TEST(CampaignServer, TenThousandConnectionsKeepThreadsAndMemoryFlat) {
#ifdef M_ARENA_MAX
  // glibc reserves a 64 MB malloc arena whenever a starting thread finds
  // every arena attached — with sequential connections that happens a
  // few times, at random connections, then never again. Capping the
  // arena count keeps those bounded one-offs out of the VmSize reading,
  // which is meant to see thread stacks and the memo.
  mallopt(M_ARENA_MAX, 1);
#endif
  const std::string path = preloaded_store("uptime10k", 4);
  std::vector<std::string> expected;
  {
    CampaignStore offline(path);
    expected = warm_answer(offline, exact_grid(4, 1));
  }
  ServeConfig cfg;
  cfg.socket_path = socket_path("uptime10k");
  cfg.store_path = path;
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string warm = exact_request(4, 1);
  const std::vector<std::string> pong = {R"({"ok":true,"cmd":"ping"})"};
  std::size_t wrong = 0;
  const auto connect = [&](int i) {
    if (i % 10 == 0)
      wrong += send_request(cfg.socket_path, warm) != expected;
    else
      wrong += send_request(cfg.socket_path, R"({"cmd":"ping"})") != pong;
  };
  int i = 0;
  for (; i < 1000; ++i) connect(i);  // warm-up
  const std::size_t threads0 = thread_count();
  const double vm0 = vm_size_mb();
  for (; i < 10000; ++i) connect(i);
  EXPECT_LE(thread_count(), threads0 + 1);
  EXPECT_LT(vm_size_mb() - vm0, 16.0);
  server.stop();
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(server.requests_served(), 10000u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vosim
