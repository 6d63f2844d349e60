#include "src/obs/trace.hpp"

#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "src/util/jsonl.hpp"

namespace vosim::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

struct SpanEvent {
  const char* name;
  const char* cat;
  double ts_us;
  double dur_us;
  std::uint32_t tid;
  std::vector<std::pair<std::string, std::string>> args;
};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<SpanEvent> events;
};

/// One recording session. Buffers are owned here (not thread_local) so
/// worker threads may exit before the trace is serialized; the
/// generation counter invalidates stale thread-local pointers when a
/// new session starts.
struct Session {
  std::mutex m;
  std::vector<std::unique_ptr<ThreadBuf>> buffers;
  std::chrono::steady_clock::time_point t0;
  std::atomic<std::uint64_t> generation{0};
};

Session& session() {
  static Session* s = new Session();  // never destroyed
  return *s;
}

std::uint64_t now_ns(const Session& s) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - s.t0)
          .count());
}

/// The calling thread's buffer for the current session, registering a
/// fresh one when the session generation moved on.
ThreadBuf& thread_buf() {
  thread_local ThreadBuf* buf = nullptr;
  thread_local std::uint64_t buf_gen = 0;
  Session& s = session();
  const std::uint64_t gen = s.generation.load(std::memory_order_acquire);
  if (buf == nullptr || buf_gen != gen) {
    std::lock_guard<std::mutex> lock(s.m);
    s.buffers.push_back(std::make_unique<ThreadBuf>());
    buf = s.buffers.back().get();
    buf->tid = static_cast<std::uint32_t>(s.buffers.size());
    buf_gen = gen;
  }
  return *buf;
}

}  // namespace

void start_trace() {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.m);
  s.buffers.clear();
  s.t0 = std::chrono::steady_clock::now();
  s.generation.fetch_add(1, std::memory_order_release);
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

std::string stop_trace_json() {
  // Spans append to their thread buffer without the session mutex, so
  // callers must stop only after worker threads have joined (the CLI
  // and tests both serialize after the run completes).
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.m);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buf : s.buffers) {
    // Thread-name metadata event so Perfetto labels the tracks.
    out << (first ? "" : ",")
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << buf->tid << ",\"args\":{\"name\":\"vosim-" << buf->tid << "\"}}";
    first = false;
    for (const SpanEvent& e : buf->events) {
      out << ",{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
          << "\",\"ph\":\"X\",\"ts\":" << jsonl::num(e.ts_us)
          << ",\"dur\":" << jsonl::num(e.dur_us)
          << ",\"pid\":1,\"tid\":" << e.tid;
      if (!e.args.empty()) {
        out << ",\"args\":{";
        bool afirst = true;
        for (const auto& [k, v] : e.args) {
          out << (afirst ? "" : ",") << jsonl::quote(k) << ':'
              << jsonl::quote(v);
          afirst = false;
        }
        out << '}';
      }
      out << '}';
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  s.buffers.clear();
  return out.str();
}

bool write_trace_file(const std::string& path) {
  const std::string doc = stop_trace_json();
  std::ofstream out(path);
  if (!out) return false;
  out << doc << '\n';
  return static_cast<bool>(out);
}

std::size_t trace_event_count() {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.m);
  std::size_t n = 0;
  for (const auto& buf : s.buffers) n += buf->events.size();
  return n;
}

ScopedSpan::ScopedSpan(const char* name, const char* cat) noexcept
    : name_(name), cat_(cat) {
  if (!tracing()) return;
  active_ = true;
  start_ns_ = now_ns(session());
}

ScopedSpan::~ScopedSpan() {
  if (!active_ || !tracing()) return;
  Session& s = session();
  const std::uint64_t end_ns = now_ns(s);
  ThreadBuf& buf = thread_buf();
  buf.events.push_back(SpanEvent{
      name_, cat_, static_cast<double>(start_ns_) * 1e-3,
      static_cast<double>(end_ns - start_ns_) * 1e-3, buf.tid,
      std::move(args_)});
}

ScopedSpan& ScopedSpan::arg(const char* key, std::string value) {
  if (active_) args_.emplace_back(key, std::move(value));
  return *this;
}

ScopedSpan& ScopedSpan::arg(const char* key, std::uint64_t value) {
  if (active_) args_.emplace_back(key, std::to_string(value));
  return *this;
}

ScopedSpan& ScopedSpan::arg(const char* key, double value) {
  if (active_) args_.emplace_back(key, jsonl::num(value));
  return *this;
}

}  // namespace vosim::obs
