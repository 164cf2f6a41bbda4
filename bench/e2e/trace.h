// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent). Spans nest on one thread; a span's
// self time is its duration minus the time its child spans cover. Every
// span feeds its name's self-time total; the first kMaxStoredSpans are kept
// verbatim and written out when the run ends.
#ifndef FGPDB_BENCH_E2E_TRACE_H_
#define FGPDB_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "e2e.h"
#include "util/logging.h"

namespace fgpdb {
namespace e2e {

class Tracer {
 public:
  static constexpr size_t kMaxStoredSpans = size_t{1} << 18;

  struct Closed {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  Tracer() : origin_ns_(NowNs()) { spans_.reserve(kMaxStoredSpans); }

  /// Id for `name` (interned once; ids index self_ns()).
  uint16_t Intern(const std::string& name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<uint16_t>(i);
    }
    names_.push_back(name);
    self_ns_.push_back(0);
    return static_cast<uint16_t>(names_.size() - 1);
  }

  void Begin(uint16_t name) {
    int32_t stored = -1;
    const int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
    if (spans_.size() < kMaxStoredSpans && (stack_.empty() || parent >= 0)) {
      stored = static_cast<int32_t>(spans_.size());
      spans_.push_back(Span{0, 0, parent, name});
    } else {
      ++dropped_;
    }
    stack_.push_back(OpenSpan{NowNs(), 0, stored, name});
  }

  /// Closes the innermost open span.
  Closed End() {
    const int64_t end = NowNs();
    FGPDB_CHECK(!stack_.empty());
    const OpenSpan open = stack_.back();
    stack_.pop_back();
    Closed closed;
    closed.total_ns = end - open.start_ns;
    closed.self_ns = closed.total_ns - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += closed.total_ns;
    self_ns_[open.name] += closed.self_ns;
    if (open.stored >= 0) {
      spans_[open.stored].start_ns = open.start_ns - origin_ns_;
      spans_[open.stored].end_ns = end - origin_ns_;
    }
    return closed;
  }

  /// Cost of one Begin/End pair where the run executes, in ns: the median of
  /// timed batches of nested spans.
  static double CalibrateSpanNs() {
    constexpr int kBatches = 9;
    constexpr int kSpans = 20000;
    std::vector<double> per_span;
    for (int b = 0; b < kBatches; ++b) {
      Tracer tracer;
      const uint16_t root = tracer.Intern("root");
      const uint16_t leaf = tracer.Intern("leaf");
      tracer.Begin(root);
      const int64_t start = NowNs();
      for (int i = 0; i < kSpans; ++i) {
        tracer.Begin(leaf);
        tracer.End();
      }
      per_span.push_back(static_cast<double>(NowNs() - start) / kSpans);
      tracer.End();
    }
    return Summarize(per_span).median;
  }

  const std::vector<std::string>& names() const { return names_; }
  /// Self time summed over every span of each name.
  const std::vector<int64_t>& self_ns() const { return self_ns_; }
  uint64_t stored() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// CSV dump: one line per stored span, ids index the stored spans.
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,name,parent,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%d,%lld,%lld\n", i, names_[s.name].c_str(),
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint16_t name;
  };
  struct OpenSpan {
    int64_t start_ns;
    int64_t child_ns;
    int32_t stored;
    uint16_t name;
  };

  int64_t origin_ns_;
  std::vector<std::string> names_;
  std::vector<int64_t> self_ns_;
  std::vector<Span> spans_;
  std::vector<OpenSpan> stack_;
  uint64_t dropped_ = 0;
};

}  // namespace e2e
}  // namespace fgpdb

#endif  // FGPDB_BENCH_E2E_TRACE_H_
