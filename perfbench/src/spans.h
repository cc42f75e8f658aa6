// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around calls into each layer from the benchmark's own
// code, kept in memory, and written out once at the end in the Chrome
// trace-event format, which Perfetto loads.  A span's parent is the
// innermost span open when it began.  A replay span may additionally
// "explain" an earlier span: it re-runs, call by call, the work that span did
// inside a public call the benchmark cannot see into, so its duration counts
// as covered time of the explained span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  ///< static storage: spans are many and small
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;    ///< enclosing span, -1 for a root
    int explains = -1;  ///< span whose hidden work this replay re-runs
    std::uint64_t traceId = 0;  ///< shared by the spans of one session
  };

  SpanRecorder();

  /// Opens a span; its parent is the innermost open span.
  int begin(const char* name, std::uint64_t traceId);
  void end(int id);
  /// Marks span `replay` as re-running the hidden work of span `explained`.
  void setExplains(int replay, int explained);
  /// Adds a finished span as given (tests and imports).
  int add(Span span);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Per span: its duration minus the part of its interval its children
  /// cover, minus the durations of the replays that explain it (never < 0).
  [[nodiscard]] std::vector<std::int64_t> selfNs() const;
  /// Self time summed per span name.
  [[nodiscard]] std::map<std::string, std::int64_t> selfNsByName() const;
  /// Chrome trace-event JSON ("X" events, microsecond stamps) of the first
  /// `maxSpans` spans.
  void writeChromeTrace(std::ostream& out,
                        std::size_t maxSpans = static_cast<std::size_t>(-1)) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t traceId)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name, traceId) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
