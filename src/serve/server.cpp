#include "src/serve/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/jsonl.hpp"

namespace vosim {

namespace {

/// Splits a comma list ("fir,dot") into its non-empty tokens.
std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Writes the whole buffer, riding out short writes. Returns false on
/// a broken connection (the client went away mid-stream).
/// MSG_NOSIGNAL turns the SIGPIPE a disconnected peer would raise into
/// an EPIPE return, so a vanishing client never kills the daemon.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, const std::string& line) {
  return write_all(fd, line + "\n");
}

/// A request line longer than this is cut one byte past it (a sane
/// request is a few hundred bytes).
constexpr std::size_t kMaxRequestBytes = 1 << 16;
/// A campaign answer is sent once its buffered lines reach this size.
constexpr std::size_t kAnswerFlushBytes = 1 << 16;

/// Reads until the first newline, EOF or read timeout, 4 KiB per
/// read(); bytes after the newline are dropped (the request is one
/// line, one per connection).
std::string read_request_line(int fd) {
  std::string line;
  char buf[4096];
  while (line.size() <= kMaxRequestBytes) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    const auto size = static_cast<std::size_t>(n);
    const auto* nl = static_cast<const char*>(std::memchr(buf, '\n', size));
    line.append(buf, nl != nullptr ? static_cast<std::size_t>(nl - buf)
                                   : size);
    if (nl != nullptr) break;
  }
  if (line.size() > kMaxRequestBytes) line.resize(kMaxRequestBytes + 1);
  return line;
}

/// Typed reads of request fields. An absent field reads as not given
/// (false); a present field of another type throws naming it, so a
/// client never silently gets a default it did not ask for.
class RequestFields {
 public:
  explicit RequestFields(const jsonl::Fields& f) : f_(f) {}

  bool text(std::string_view name, std::string& out) const {
    return given(name, f_.str(name, out), "a string");
  }
  bool count(std::string_view name, std::uint64_t& out) const {
    return given(name, f_.u64(name, out), "an unsigned integer");
  }
  bool real(std::string_view name, double& out) const {
    return given(name, f_.num(name, out), "a number");
  }
  /// true, false, or an unsigned integer (nonzero is true).
  bool flag(std::string_view name, bool& out) const {
    std::uint64_t u = 0;
    const bool as_count = f_.u64(name, u);
    if (as_count) out = u != 0;
    return given(name, as_count || f_.boolean(name, out),
                 "true, false or an unsigned integer");
  }

 private:
  bool given(std::string_view name, bool read, const char* expected) const {
    if (read || !f_.has(name)) return read;
    throw std::invalid_argument("field '" + std::string(name) +
                                "' must be " + expected);
  }

  const jsonl::Fields& f_;
};

/// The campaign request body -> CampaignConfig. Absent fields keep
/// the campaign defaults; `default_jobs` is the daemon-wide cap.
CampaignConfig parse_campaign_request(const RequestFields& f,
                                      unsigned default_jobs) {
  CampaignConfig cfg;
  cfg.jobs = default_jobs;
  std::string text;
  if (f.text("workloads", text)) cfg.workloads = split_list(text);
  if (f.text("circuits", text)) cfg.circuits = split_list(text);
  if (f.text("backends", text)) {
    cfg.backends.clear();
    for (const std::string& name : split_list(text))
      cfg.backends.push_back(parse_arith_backend(name));
  }
  std::uint64_t u = 0;
  if (f.count("seed", u)) cfg.seed = u;
  if (f.count("patterns", u)) cfg.characterize_patterns = u;
  if (f.count("train_patterns", u)) cfg.train_patterns = u;
  if (f.count("max_triads", u)) cfg.max_triads = u;
  if (f.count("jobs", u)) cfg.jobs = static_cast<unsigned>(u);
  if (f.count("chips", u)) cfg.fleet.num_chips = u;
  if (f.count("fleet_seed", u)) cfg.fleet.seed = u;
  double d = 0.0;
  if (f.real("speed_sigma", d)) cfg.fleet.speed_sigma = d;
  if (f.real("leakage_sigma", d)) cfg.fleet.leakage_sigma = d;
  f.flag("provenance", cfg.provenance);
  if (f.count("top_culprits", u)) cfg.top_culprits = u;
  return cfg;
}

/// {"ok":true,"cmd":<verb>}: a verb's acknowledgement.
std::string ack(std::string_view verb) {
  return jsonl::Writer()
      .begin_object()
      .key("ok").boolean(true)
      .key("cmd").str(verb)
      .end_object()
      .take();
}

/// {"error":<message>}
std::string error_line(std::string_view message) {
  return jsonl::Writer().begin_object().key("error").str(message)
      .end_object().take();
}

/// Decrements a gauge on scope exit (watcher lifetime accounting).
struct GaugeGuard {
  obs::Gauge& g;
  ~GaugeGuard() { g.add(-1.0); }
};

}  // namespace

CampaignServer::CampaignServer(const CellLibrary& lib, ServeConfig config)
    : lib_(lib),
      config_(std::move(config)),
      store_(config_.store_path) {
  manifest_.tool = "serve";
  manifest_.engine = "levelized";
  manifest_.config = "socket=" + config_.socket_path +
                     "|store=" + config_.store_path +
                     "|jobs=" + std::to_string(config_.jobs);
  // Stamp the warm store with this daemon's manifest (no-op for
  // in-memory stores or stores that already carry one).
  if (!config_.store_path.empty())
    store_.write_header(manifest_.to_jsonl());
}

CampaignServer::~CampaignServer() { stop(); }

void CampaignServer::start() {
  sockaddr_un addr{};
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("serve: bad socket path '" +
                             config_.socket_path + "'");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("serve: socket() failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  ::unlink(config_.socket_path.c_str());  // a stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind " + config_.socket_path);
  }
  running_.store(true);
  started_ = std::chrono::steady_clock::now();
  acceptor_ = std::thread([this] { accept_loop(); });
}

void CampaignServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) break;
      continue;  // EINTR and friends
    }
    const timeval timeout{kRequestReadTimeout.count(), 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::lock_guard<std::mutex> lock(conn_m_);
    connections_.remove_if([](Connection& c) {
      if (!c.done.load()) return false;
      c.thread.join();
      return true;
    });
    Connection& c = connections_.emplace_back();
    c.thread = std::thread([this, fd, &c] {
      handle_connection(fd);
      c.done.store(true);
    });
  }
}

void CampaignServer::handle_connection(int fd) {
  auto& reg = obs::metrics();
  reg.gauge("serve.connections.active").add(1.0);
  reg.counter("serve.requests").add();
  std::uint64_t bytes = 0;
  bool alive = true;
  {
    obs::ScopedTimer timer(reg.histogram("serve.request.seconds"));
    alive = dispatch(fd, bytes);
  }
  reg.counter("serve.bytes.streamed").add(bytes);
  if (!alive) reg.counter("serve.disconnects").add();
  reg.gauge("serve.connections.active").add(-1.0);
  ::close(fd);
}

bool CampaignServer::dispatch(int fd, std::uint64_t& bytes) {
  // Successful writes count toward serve.bytes.streamed.
  const auto send = [fd, &bytes](const std::string& data) {
    if (!write_all(fd, data)) return false;
    bytes += data.size();
    return true;
  };
  const auto send_line = [&send](const std::string& line) {
    return send(line + "\n");
  };
  const std::string line = read_request_line(fd);
  const jsonl::Fields request(line);
  std::string cmd;
  if (!request.str("cmd", cmd)) {
    obs::metrics().counter("serve.errors").add();
    return send_line(error_line(request.has("cmd")
                                    ? "field 'cmd' must be a string"
                                    : "missing cmd"));
  }
  requests_.fetch_add(1);
  obs::ScopedSpan span("serve.request", "serve");
  span.arg("cmd", cmd);
  try {
    const RequestFields fields(request);
    if (cmd == "ping") return send_line(ack("ping"));
    if (cmd == "shutdown") {
      const bool ok = send_line(ack("shutdown"));
      shutdown_requested_.store(true);
      wait_cv_.notify_all();
      // Wake watchers so open `watch` streams drain their footer and
      // close; the empty critical section orders the store above
      // against a watcher's predicate check (no lost wakeup).
      { std::lock_guard<std::mutex> lock(watch_m_); }
      watch_cv_.notify_all();
      return ok;
    }
    if (cmd == "stats") return send_line(stats_line());
    if (cmd == "watch") {
      std::uint64_t limit = 0;  // 0 = follow until shutdown
      fields.count("limit", limit);
      return serve_watch(fd, limit, bytes);
    }
    if (cmd == "campaign") {
      CampaignConfig cfg = parse_campaign_request(fields, config_.jobs);
      // Every computed cell fans out to the watch log as it finishes,
      // so `watch` clients follow any in-flight campaign live.
      cfg.on_cell = [this](const CampaignCell& cell) {
        publish_event(CampaignStore::to_jsonl(cell));
      };
      const CampaignOutcome outcome = run_campaign(lib_, cfg, store_);
      // Answer with the *stored* form of each cell, not the in-memory
      // post-rebase view: stored lines carry the shard-independent
      // baseline, so a served stream is byte-comparable (modulo
      // elapsed_s) with any offline store of the same grid. The lines
      // and the footer go out in one write per kAnswerFlushBytes.
      std::string answer;
      for (const CampaignCell& cell : outcome.cells) {
        const auto stored = store_.line(cell.key);
        answer += stored ? *stored : CampaignStore::to_jsonl(cell);
        answer += '\n';
        if (answer.size() < kAnswerFlushBytes) continue;
        if (!send(answer)) return false;  // client went away mid-stream
        answer.clear();
      }
      answer += jsonl::Writer()
                    .begin_object()
                    .key("done").boolean(true)
                    .key("cells").u64(outcome.cells.size())
                    .key("reused").u64(outcome.reused)
                    .key("computed").u64(outcome.computed)
                    .end_object()
                    .take();
      answer += '\n';
      return send(answer);
    }
  } catch (const std::exception& e) {
    obs::metrics().counter("serve.errors").add();
    return send_line(error_line(e.what()));
  }
  // Unknown verbs get a structured, self-diagnosing error line (verb
  // echoed back plus the supported set) instead of a bare message.
  obs::metrics().counter("serve.errors").add();
  jsonl::Writer error;
  error.begin_object()
      .key("error").str("unknown cmd")
      .key("cmd").str(cmd)
      .key("known").begin_array();
  for (const char* verb : {"campaign", "ping", "shutdown", "stats", "watch"})
    error.str(verb);
  return send_line(error.end_array().end_object().take());
}

std::string CampaignServer::stats_line() const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  // One snapshot serves both the metrics blob and the provenance
  // census, so the two never disagree within a line.
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  std::uint64_t provenance_counters = 0;
  for (const auto& [name, value] : snap.counters)
    if (name.rfind("provenance.", 0) == 0) ++provenance_counters;
  const auto gauge = [](const char* name) {
    return static_cast<std::int64_t>(obs::metrics().gauge(name).value());
  };
  return jsonl::Writer()
      .begin_object()
      .key("ok").boolean(true)
      .key("cmd").str("stats")
      .key("uptime_s").num(uptime)
      .key("requests_served").u64(requests_.load())
      .key("active_connections").i64(gauge("serve.connections.active"))
      .key("watchers").i64(gauge("serve.watchers.active"))
      .key("watch_events").u64(watch_events_.load())
      .key("store_cells").u64(store_.size())
      .key("provenance_counters").u64(provenance_counters)
      .key("manifest").raw(manifest_.to_jsonl())
      .key("metrics").raw(snap.to_json())
      .end_object()
      .take();
}

void CampaignServer::publish_event(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(watch_m_);
    watch_log_.push_back(line);
    if (watch_log_.size() > kWatchLogCap) {
      // O(cap) front eviction on a ≤1024-string vector is noise next
      // to the simulation work that produced the event.
      watch_log_.erase(watch_log_.begin());
      ++watch_base_;
    }
    watch_events_.fetch_add(1);
  }
  watch_cv_.notify_all();
  obs::metrics().counter("serve.watch.events_published").add();
}

bool CampaignServer::serve_watch(int fd, std::uint64_t limit,
                                 std::uint64_t& bytes) {
  auto& reg = obs::metrics();
  reg.counter("serve.watch.requests").add();
  reg.gauge("serve.watchers.active").add(1.0);
  GaugeGuard guard{reg.gauge("serve.watchers.active")};
  const auto send_line = [fd, &bytes](const std::string& l) {
    if (!write_line(fd, l)) return false;
    bytes += l.size() + 1;
    return true;
  };
  std::uint64_t cursor = 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(watch_m_);
    cursor = watch_base_;   // start with the retained backlog
    dropped = watch_base_;  // evictions that predate this watcher
  }
  if (!send_line(ack("watch"))) return false;
  std::uint64_t sent = 0;
  bool stopping = false;
  while (!stopping && (limit == 0 || sent < limit)) {
    std::vector<std::string> batch;
    {
      std::unique_lock<std::mutex> lock(watch_m_);
      // The timeout is a belt-and-braces net; publish_event, shutdown
      // and stop() all notify under/after taking watch_m_.
      watch_cv_.wait_for(lock, std::chrono::milliseconds(250), [&] {
        return !running_.load() || shutdown_requested_.load() ||
               watch_base_ + watch_log_.size() > cursor;
      });
      if (cursor < watch_base_) cursor = watch_base_;  // fell behind
      while (cursor < watch_base_ + watch_log_.size() &&
             (limit == 0 || sent + batch.size() < limit)) {
        batch.push_back(watch_log_[cursor - watch_base_]);
        ++cursor;
      }
      stopping = batch.empty() &&
                 (!running_.load() || shutdown_requested_.load());
    }
    for (const std::string& l : batch) {
      if (!send_line(l)) return false;  // watcher went away
      ++sent;
    }
  }
  reg.counter("serve.watch.events_streamed").add(sent);
  return send_line(jsonl::Writer()
                       .begin_object()
                       .key("done").boolean(true)
                       .key("cmd").str("watch")
                       .key("events").u64(sent)
                       .key("dropped").u64(dropped)
                       .end_object()
                       .take());
}

void CampaignServer::wait() {
  std::unique_lock<std::mutex> lock(wait_m_);
  wait_cv_.wait(lock, [this] { return shutdown_requested_.load(); });
}

void CampaignServer::stop() {
  if (!running_.exchange(false)) return;
  // Wake blocked watchers before joining their connection threads
  // (same lost-wakeup fence as the shutdown verb).
  { std::lock_guard<std::mutex> lock(watch_m_); }
  watch_cv_.notify_all();
  // Unblock accept(): shut the listener down before joining.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(conn_m_);
    conns.swap(connections_);
  }
  for (Connection& c : conns)
    if (c.thread.joinable()) c.thread.join();
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
  shutdown_requested_.store(true);  // release any wait()er
  wait_cv_.notify_all();
}

std::vector<std::string> send_request(const std::string& socket_path,
                                      const std::string& request) {
  sockaddr_un addr{};
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("request: bad socket path '" + socket_path +
                             "'");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("request: socket() failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(),
              socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("request: cannot connect to " + socket_path);
  }
  if (!write_line(fd, request)) {
    ::close(fd);
    throw std::runtime_error("request: send failed");
  }
  std::vector<std::string> lines;
  std::string current;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    const char* p = buf;
    const char* const end = p + n;
    while (const auto* nl = static_cast<const char*>(
               std::memchr(p, '\n', static_cast<std::size_t>(end - p)))) {
      current.append(p, nl);
      lines.push_back(std::move(current));
      current.clear();
      p = nl + 1;
    }
    current.append(p, end);
  }
  if (!current.empty()) lines.push_back(current);
  ::close(fd);
  return lines;
}

}  // namespace vosim
