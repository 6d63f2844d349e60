// Sweep-daemon tests: in-process CampaignServer on a Unix socket,
// concurrent campaign requests, equivalence of the streamed cells with
// an offline run of the same grid, malformed-request and mid-stream
// disconnect survival, and the stats introspection verb.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/server.hpp"
#include "src/tech/library.hpp"

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

// Long uptime: every connection runs on its own thread, and a finished
// one must be joined (its stack released) long before stop() — else
// each sequential ping leaks a thread and its ~8 MB stack mapping.
TEST(CampaignServer, SequentialPingsKeepThreadsAndMemoryFlat) {
#ifdef M_ARENA_MAX
  // glibc reserves a 64 MB malloc arena whenever a starting thread finds
  // every arena attached — with sequential connections that happens a
  // few times, at random pings, then never again. Capping the arena
  // count keeps those bounded one-offs out of the VmSize reading, which
  // is meant to see thread stacks.
  mallopt(M_ARENA_MAX, 1);
#endif
  ServeConfig cfg;
  cfg.socket_path = socket_path("uptime");
  CampaignServer server(lib(), cfg);
  server.start();
  const auto ping = [&] {
    const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
    ASSERT_EQ(pong.size(), 1u);
  };
  for (int i = 0; i < 20; ++i) ping();  // warm-up
  const std::size_t threads0 = thread_count();
  const double vm0 = vm_size_mb();
  for (int i = 0; i < 2000; ++i) ping();
  // At most the last connection's thread is still awaiting its join.
  EXPECT_LE(thread_count(), threads0 + 1);
  EXPECT_LT(vm_size_mb() - vm0, 64.0);
  server.stop();
  EXPECT_EQ(server.requests_served(), 2020u);
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
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, cfg.socket_path.c_str(),
              cfg.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
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
// one valid JSON object whatever the client sent. Whitespace after the
// colon is not parsed (the verb keeps its quotes), but it is still
// echoed as a well-formed string.
TEST(CampaignServer, ErrorLinesEscapeClientText) {
  EXPECT_EQ(jsonl::quote("a\"b\\c\n\x01" "d"),
            "\"a\\\"b\\\\c\\u000a\\u0001d\"");

  ServeConfig cfg;
  cfg.socket_path = socket_path("escape");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string known =
      ",\"known\":[\"campaign\",\"ping\",\"shutdown\",\"stats\","
      "\"watch\"]}";
  const auto spaced = send_request(cfg.socket_path, "{\"cmd\": \"ping\"}");
  ASSERT_EQ(spaced.size(), 1u);
  EXPECT_EQ(spaced[0], "{\"error\":\"unknown cmd\",\"cmd\":"
                       "\" \\\"ping\\\"\"" + known);
  // The verb scan stops at the escaped quote, leaving `x\`.
  const auto quoted = send_request(cfg.socket_path, "{\"cmd\":\"x\\\"y\"}");
  ASSERT_EQ(quoted.size(), 1u);
  EXPECT_EQ(quoted[0],
            "{\"error\":\"unknown cmd\",\"cmd\":\"x\\\\\"" + known);
  // An exception message carrying client text is escaped the same way.
  const auto backend = send_request(
      cfg.socket_path, "{\"cmd\":\"campaign\",\"backends\":\"x\\\"y\"}");
  ASSERT_EQ(backend.size(), 1u);
  EXPECT_EQ(backend[0],
            "{\"error\":\"unknown backend 'x\\\\' (expected exact | model | "
            "sim-event | sim-levelized | sim-seq)\"}");
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

}  // namespace
}  // namespace vosim
