// Chrome trace-event spans: RAII timers that record complete ("ph":"X")
// events into per-thread buffers and serialize them as a
// chrome://tracing / Perfetto-loadable JSON document (DESIGN.md §12).
//
// Tracing is off by default and gated on a single relaxed atomic bool:
// a disabled ScopedSpan constructor is one load and no stores, so
// instrumentation can stay in hot paths permanently. When a session is
// active each thread appends to its own buffer (registered under a
// mutex once per thread per session); the session owns the buffers, so
// threads may exit before the trace is written.
//
// Span phases used across the stack: "campaign.synth",
// "campaign.characterize", "campaign.train", "campaign.execute",
// "campaign.cell", "characterize.patterns", "characterize.seq.reference",
// "characterize.seq.probe", "characterize.seq.replay",
// "characterize.seq.stitch", "fleet.ladder", "fleet.serve",
// "fleet.chip", "serve.request".
//
// Characterization span args: "characterize.patterns" (both sweeps'
// stimulus generation) carries patterns and operands;
// "characterize.seq.reference" carries pieces, cycles and cycle_safe;
// "characterize.seq.probe" (one per active triad) carries triad and
// saturated; "characterize.seq.replay" (one per piece of an unsaturated
// replay, or one whole replay below a reference that is not cycle-safe)
// carries triad, first (its first cycle), cycles, simulated (cycles
// stepped, warm starts included, and the probe on a whole replay — the
// rest were copied from the reference run) and stretches (dirty
// stretches stepped); "characterize.seq.stitch" (one per piece, as it
// joins its triad's serial replay) carries triad, first, simulated (the
// piece's) and restepped (cycles the stitch stepped again where the
// piece's first cycle was not a resync point).
#ifndef VOSIM_OBS_TRACE_HPP
#define VOSIM_OBS_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vosim::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True while a trace session is recording.
inline bool tracing() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Starts a fresh trace session (drops any unsaved previous session).
void start_trace();

/// Stops the session and returns the whole Chrome trace document:
/// {"traceEvents":[...],"displayTimeUnit":"ms"}. Returns an empty
/// document when no session was active.
std::string stop_trace_json();

/// stop_trace_json() straight to a file; false on I/O failure.
bool write_trace_file(const std::string& path);

/// Number of span events recorded in the current session (tests).
std::size_t trace_event_count();

/// RAII complete-event span. `name` and `cat` must be literals (or
/// outlive the span); string args are copied. All methods are no-ops
/// when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "vosim") noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a key/value to the event's "args" object. Chainable.
  ScopedSpan& arg(const char* key, std::string value);
  ScopedSpan& arg(const char* key, std::uint64_t value);
  ScopedSpan& arg(const char* key, double value);

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace vosim::obs

#endif  // VOSIM_OBS_TRACE_HPP
