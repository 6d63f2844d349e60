// Long-lived sweep daemon: a Unix-domain-socket server that accepts
// campaign requests, runs them concurrently on the shared persistent
// ThreadPool with warm caches (one content-keyed CampaignStore lives
// for the daemon's lifetime, so repeated or overlapping requests
// answer finished cells without touching a simulator), and streams
// JSONL results back — the "heavy traffic" serving story from the
// ROADMAP north star. DESIGN.md §11 documents the wire format.
//
// Wire protocol (newline-delimited JSON, one request per connection):
//   client sends one line:  {"cmd":"ping"} | {"cmd":"shutdown"} |
//     {"cmd":"stats"} | {"cmd":"watch","limit":N} |
//     {"cmd":"campaign","workloads":"fir,dot","circuits":"rca16",
//      "backends":"model","seed":1,"patterns":2000,
//      "train_patterns":4000,"max_triads":3,"chips":0,"jobs":0,
//      "provenance":1,"top_culprits":4}
//     Any valid JSON encoding of the object is accepted (whitespace,
//     \uXXXX escapes, "provenance":true). Only top-level keys are read
//     (jsonl::Fields): a "cmd" inside a nested object is data, and a
//     line that is not one JSON object reads as having no fields. The
//     lists are comma-list strings, the counts unsigned integers.
//     The daemon reads the line 4 KiB per read() up to its first
//     newline; bytes after it are ignored, and a line longer than
//     64 KiB is cut one byte past that.
//   server streams back:
//     campaign — one CampaignStore::to_jsonl line per cell (canonical
//       grid order, the *stored* form with the shard-independent
//       baseline, so streams are byte-comparable with offline stores
//       modulo elapsed_s), then a footer
//       {"done":true,"cells":N,"reused":R,"computed":C}. A cell's line
//       is CampaignStore::line(), serialized once per stored cell; the
//       lines and the footer go out in one write (one per 64 KiB of
//       answer). Every other verb writes one line per write.
//     ping — {"ok":true,"cmd":"ping"}
//     stats — one line with daemon introspection (DESIGN.md §12):
//       {"ok":true,"cmd":"stats","uptime_s":...,"requests_served":N,
//        "active_connections":A,"watchers":W,"watch_events":E,
//        "store_cells":S,"provenance_counters":P,
//        "manifest":{...RunManifest...},"metrics":{...snapshot...}}
//       (provenance_counters = registered "provenance.*" counters, so a
//       client can tell whether any served campaign ran attribution)
//     watch — live campaign progress (DESIGN.md §13): a header
//       {"ok":true,"cmd":"watch"}, then one CampaignStore::to_jsonl
//       line per cell *computed* by any concurrently-served campaign
//       (reused cells never stream; with "provenance":1 each line
//       carries its "culprits" field), as the cells finish — the
//       watcher first drains the bounded in-daemon event log (last
//       1024 events), then follows live. Ends with
//       {"done":true,"cmd":"watch","events":N,"dropped":D} after
//       "limit":N events (0/absent = until shutdown); D counts log
//       evictions that happened before this watcher attached.
//     shutdown — {"ok":true,"cmd":"shutdown"}, then the accept loop
//       winds down and wait() returns
//   A connection that sends no byte for CampaignServer::
//   kRequestReadTimeout ends its request line there: it is answered
//   as the line read so far (usually {"error":"missing cmd"}).
//   errors — one structured JSON line, then the connection closes:
//     unknown verbs answer {"error":"unknown cmd","cmd":"<verb>",
//     "known":["campaign","ping","shutdown","stats","watch"]} rather
//     than silently dropping the connection, so misspelled clients can
//     self-diagnose; a present field of another type answers
//     {"error":"field '<name>' must be <type>"} instead of running
//     with a default; other failures answer {"error":"<message>"}.
#ifndef VOSIM_SERVE_SERVER_HPP
#define VOSIM_SERVE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/obs/manifest.hpp"
#include "src/tech/library.hpp"

namespace vosim {

/// Daemon configuration.
struct ServeConfig {
  /// Filesystem path of the Unix-domain socket (created on start(),
  /// unlinked on stop()). Must fit sockaddr_un (~100 chars).
  std::string socket_path;
  /// Warm store backing file ("" = in-memory only): every request's
  /// finished cells land here and pre-answer later requests.
  std::string store_path;
  /// Default worker cap for requests that do not send "jobs".
  unsigned jobs = 0;
};

/// The daemon. start() binds and listens synchronously (the socket
/// exists when it returns), then serves each connection on its own
/// thread; the simulation work inside a request parallelizes on the
/// shared ThreadPool, which serializes concurrent submitters — so two
/// in-flight requests interleave safely instead of oversubscribing.
class CampaignServer {
 public:
  CampaignServer(const CellLibrary& lib, ServeConfig config);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Read timeout (SO_RCVTIMEO) of every accepted connection. stop()
  /// joins every connection thread, so a client that connects and
  /// sends nothing holds shutdown for at most this long.
  static constexpr std::chrono::seconds kRequestReadTimeout{2};

  /// Binds the socket and starts accepting. Throws std::runtime_error
  /// when the socket cannot be created/bound.
  void start();
  /// Blocks until a shutdown request has been served (returns
  /// immediately if one already was).
  void wait();
  /// Stops accepting, joins every connection thread (a silent client's
  /// within kRequestReadTimeout), unlinks the socket. Idempotent.
  void stop();

  bool running() const noexcept { return running_.load(); }
  const std::string& socket_path() const noexcept {
    return config_.socket_path;
  }
  std::uint64_t requests_served() const noexcept {
    return requests_.load();
  }
  /// Total events ever published to the watch log (monotonic; the
  /// bounded log may have evicted the oldest ones).
  std::uint64_t watch_events() const noexcept {
    return watch_events_.load();
  }
  /// The warm store (e.g. to inspect cached cells in tests).
  CampaignStore& store() noexcept { return store_; }
  /// This daemon's run manifest (also served by the `stats` verb).
  const obs::RunManifest& manifest() const noexcept { return manifest_; }

 private:
  void accept_loop();
  void handle_connection(int fd);
  /// Parses and answers one request; returns false when the client
  /// went away mid-stream. `bytes` accumulates payload written.
  bool dispatch(int fd, std::uint64_t& bytes);
  /// The answer to the stats verb.
  std::string stats_line() const;
  /// Appends one event line to the bounded watch log and wakes every
  /// watcher. Called from pool worker threads (campaign on_cell).
  void publish_event(const std::string& line);
  /// Serves one watch subscription; returns false when the watcher
  /// went away mid-stream.
  bool serve_watch(int fd, std::uint64_t limit, std::uint64_t& bytes);

  /// Bounded watch log capacity: old events are evicted front-first so
  /// a daemon nobody watches never grows without bound.
  static constexpr std::size_t kWatchLogCap = 1024;

  const CellLibrary& lib_;
  ServeConfig config_;
  obs::RunManifest manifest_;
  CampaignStore store_;
  std::chrono::steady_clock::time_point started_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread acceptor_;
  /// One connection thread. It sets `done` as its last act, so the
  /// acceptor joins finished threads (releasing their stacks) before it
  /// starts the next one and a long-running daemon holds at most its
  /// live connections. List nodes keep `done` at a stable address.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conn_m_;
  std::list<Connection> connections_;
  std::mutex wait_m_;
  std::condition_variable wait_cv_;
  /// Watch machinery: a bounded event log (deque semantics on a
  /// vector) under its own mutex. `watch_base_` is the monotonic
  /// sequence number of watch_log_.front(); a watcher's cursor is a
  /// sequence number, so eviction never corrupts an attached stream —
  /// a slow watcher that falls behind simply skips evicted events.
  std::mutex watch_m_;
  std::condition_variable watch_cv_;
  std::vector<std::string> watch_log_;
  std::uint64_t watch_base_ = 0;
  std::atomic<std::uint64_t> watch_events_{0};
};

/// Client helper: connects to the daemon, sends one request line and
/// returns every response line until the server closes the
/// connection. Throws std::runtime_error when the socket is
/// unreachable.
std::vector<std::string> send_request(const std::string& socket_path,
                                      const std::string& request);

}  // namespace vosim

#endif  // VOSIM_SERVE_SERVER_HPP
