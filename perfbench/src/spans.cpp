#include "spans.h"

#include <algorithm>
#include <iomanip>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int SpanRecorder::begin(const char* name, std::uint64_t traceId) {
  Span s;
  s.name = name;
  s.traceId = traceId;
  s.parent = open_.empty() ? -1 : open_.back();
  s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - origin_)
                  .count();
  s.endNs = s.startNs;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].endNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
}

void SpanRecorder::setExplains(int replay, int explained) {
  spans_.at(static_cast<std::size_t>(replay)).explains = explained;
}

int SpanRecorder::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<std::int64_t> SpanRecorder::selfNs() const {
  const std::size_t n = spans_.size();
  struct Cover {
    int parent;
    std::int64_t lo;
    std::int64_t hi;
  };
  std::vector<Cover> covers;
  std::vector<std::int64_t> explainedNs(n, 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      const std::int64_t lo = std::max(s.startNs, p.startNs);
      const std::int64_t hi = std::min(s.endNs, p.endNs);
      if (hi > lo) covers.push_back({s.parent, lo, hi});
    }
    if (s.explains >= 0) {
      explainedNs[static_cast<std::size_t>(s.explains)] += s.endNs - s.startNs;
    }
  }
  std::sort(covers.begin(), covers.end(), [](const Cover& a, const Cover& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.lo < b.lo;
  });
  std::vector<std::int64_t> coveredNs(n, 0);
  for (std::size_t i = 0; i < covers.size();) {
    // Union of one parent's child intervals, sorted by start.
    const int parent = covers[i].parent;
    std::int64_t lo = covers[i].lo, hi = covers[i].hi, total = 0;
    for (++i; i < covers.size() && covers[i].parent == parent; ++i) {
      if (covers[i].lo > hi) {
        total += hi - lo;
        lo = covers[i].lo;
        hi = covers[i].hi;
      } else {
        hi = std::max(hi, covers[i].hi);
      }
    }
    coveredNs[static_cast<std::size_t>(parent)] = total + (hi - lo);
  }
  std::vector<std::int64_t> self(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t dur = spans_[i].endNs - spans_[i].startNs;
    self[i] = std::max<std::int64_t>(0, dur - coveredNs[i] - explainedNs[i]);
  }
  return self;
}

std::map<std::string, std::int64_t> SpanRecorder::selfNsByName() const {
  const std::vector<std::int64_t> self = selfNs();
  std::map<std::string, std::int64_t> byName;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    byName[spans_[i].name] += self[i];
  }
  return byName;
}

void SpanRecorder::writeChromeTrace(std::ostream& out,
                                    std::size_t maxSpans) const {
  const std::ios_base::fmtflags flags = out.flags();
  const std::streamsize precision = out.precision();
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < std::min(maxSpans, spans_.size()); ++i) {
    const Span& s = spans_[i];
    const std::string_view name = s.name;
    const std::string_view cat = name.substr(0, name.find('.'));
    if (i > 0) out << ',';
    out << "\n{\"name\":\"" << s.name << "\",\"cat\":\"" << cat
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.startNs) / 1e3
        << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"explains\":" << s.explains << ",\"trace_id\":" << s.traceId
        << "}}";
  }
  out << "\n]}\n";
  out.flags(flags);
  out.precision(precision);
}

}  // namespace perfbench
