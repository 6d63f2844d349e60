// Span recorder and sample store of the vosim benchmark.
//
// Every span is recorded here, in the benchmark's own code, around a
// call into one of the library's public functions: name, start, end,
// the span that caused it and a unit-of-work id (a rep, cell, chip or
// request). Spans stay in memory and are written out once, as a
// Chrome trace (chrome://tracing, Perfetto), when the run ends. The
// library itself carries no benchmark instrumentation.
#ifndef VOSIM_PERFBENCH_TRACE_HPP
#define VOSIM_PERFBENCH_TRACE_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded span; times are seconds since the recorder's epoch.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;          ///< index of the causing span, -1 = none
  std::uint64_t unit = 0;   ///< unit-of-work id
  unsigned tid = 0;         ///< small per-thread id
};

/// Process-wide span store. Disabled (the untraced runs) it records
/// nothing and costs one branch per scope.
class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  double now() const { return seconds_between(epoch_, Clock::now()); }

  /// Opens a span whose parent is the innermost open span of the
  /// calling thread, or `parent` when given (>= 0).
  int open(std::string name, std::uint64_t unit, int parent = -1) {
    if (!enabled()) return -1;
    auto& stack = thread_stack();
    if (parent < 0 && !stack.empty()) parent = stack.back();
    const double t = now();
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({std::move(name), t, t, parent, unit, thread_id()});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    const double t = now();
    auto& stack = thread_stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    std::lock_guard<std::mutex> lock(m_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  /// Records an already finished span (e.g. one reconstructed from a
  /// callback timestamp and the duration the callback reports).
  void add(std::string name, double start, double end, int parent,
           std::uint64_t unit) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(
        {std::move(name), start, end, parent, unit, thread_id()});
  }

  /// Innermost open span of the calling thread, -1 when none; lets
  /// work handed to other threads name the span that caused it.
  int current() const {
    const auto& stack = thread_stack();
    return stack.empty() ? -1 : stack.back();
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(m_);
    return spans_;
  }

  /// Span duration minus the part of it its direct children cover
  /// (children may run on other threads; overlaps count once).
  static std::vector<double> self_times(const std::vector<SpanRecord>& s) {
    std::vector<std::vector<std::pair<double, double>>> kids(s.size());
    for (const SpanRecord& r : s)
      if (r.parent >= 0)
        kids[static_cast<std::size_t>(r.parent)].push_back({r.start, r.end});
    std::vector<double> self(s.size(), 0.0);
    for (std::size_t i = 0; i < s.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0, lo = s[i].start, hi = s[i].start;
      for (auto [a, b] : iv) {
        a = std::max(a, s[i].start);
        b = std::min(b, s[i].end);
        if (b <= a) continue;
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
      self[i] = std::max(0.0, (s[i].end - s[i].start) - covered);
    }
    return self;
  }

  /// Writes every span as a Chrome-trace complete event; the span id,
  /// parent, unit-of-work id and self time ride in "args".
  bool write_chrome_trace(const std::string& path) const {
    const std::vector<SpanRecord> s = spans();
    const std::vector<double> self = self_times(s);
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i != 0) os << ",\n";
      os << "{\"name\":\"" << s[i].name << "\",\"ph\":\"X\",\"pid\":1"
         << ",\"tid\":" << s[i].tid << ",\"ts\":" << s[i].start * 1e6
         << ",\"dur\":" << (s[i].end - s[i].start) * 1e6
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s[i].parent
         << ",\"unit\":" << s[i].unit << ",\"self_us\":" << self[i] * 1e6
         << "}}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(os);
  }

 private:
  Tracer() : epoch_(Clock::now()) {}

  static std::vector<int>& thread_stack() {
    thread_local std::vector<int> stack;
    return stack;
  }
  static unsigned thread_id() {
    static std::mutex m;
    static unsigned next = 0;
    thread_local unsigned id = [] {
      std::lock_guard<std::mutex> lock(m);
      return next++;
    }();
    return id;
  }

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  mutable std::mutex m_;
  std::vector<SpanRecord> spans_;
};

/// RAII span on the calling thread.
class Scope {
 public:
  explicit Scope(std::string name, std::uint64_t unit = 0, int parent = -1)
      : id_(Tracer::get().open(std::move(name), unit, parent)) {}
  ~Scope() { Tracer::get().close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

/// Named sample lists the per-layer metrics are computed from. Written
/// from pool workers too (campaign on_cell callbacks), hence the lock.
class Samples {
 public:
  static Samples& get() {
    static Samples s;
    return s;
  }
  void add(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(m_);
    data_[name].push_back(v);
  }
  std::vector<double> values(const std::string& name) const {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = data_.find(name);
    return it == data_.end() ? std::vector<double>{} : it->second;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(m_);
    data_.clear();
  }

 private:
  mutable std::mutex m_;
  std::map<std::string, std::vector<double>> data_;
};

/// Median of a sample list (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest of p50/p90/p95/p99/p99.9 with at least ten samples
/// beyond it; {percentile, value}. {0, 0} when fewer than 11 samples.
inline std::pair<double, double> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::pair<double, double> best{0.0, 0.0};
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(p / 100.0 * (n - 1.0));
    if (v.size() < 11 || v.size() - 1 - rank < 10) break;
    best = {p, v[rank]};
  }
  return best;
}

}  // namespace perfbench

#endif  // VOSIM_PERFBENCH_TRACE_HPP
