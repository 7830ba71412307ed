// The benchmark's own spans: wall-clock intervals recorded around calls into
// the system's public API (setup, each RunUntil slice, churn, replays), kept
// in memory and written out as Chrome trace-event JSON when the run ends.
// Nothing here reaches inside src/; a layer's self time is its span minus
// the part its child spans cover.
#ifndef PERFBENCH_HARNESS_BENCH_TRACE_H_
#define PERFBENCH_HARNESS_BENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class BenchTrace {
 public:
  struct Span {
    const char* name = "";  // A string literal: recording never allocates.
    uint64_t trace_id = 0;  // One per round (or replay batch).
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // A disabled trace records nothing; Scope then costs one branch.
  explicit BenchTrace(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
    if (enabled_) {
      spans_.reserve(1 << 16);  // Rarely regrows mid-round.
      open_.reserve(16);
    }
  }

  void set_trace_id(uint64_t id) { trace_id_ = id; }

  int Begin(const char* name) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.trace_id = trace_id_;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) {
      open_.pop_back();
    }
  }

  class Scope {
   public:
    Scope(BenchTrace* trace, const char* name)
        : trace_(trace), id_(trace->Begin(name)) {}
    ~Scope() { trace_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BenchTrace* trace_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: count and Σ self time (duration minus the time covered
  // by direct children), in milliseconds, in first-seen order.
  struct SelfTime {
    std::string name;
    size_t count = 0;
    double self_ms = 0.0;
  };
  std::vector<SelfTime> SelfTimes() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::vector<SelfTime> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto it = std::find_if(out.begin(), out.end(), [&s](const SelfTime& t) {
        return t.name == s.name;
      });
      if (it == out.end()) {
        out.push_back({s.name, 0, 0.0});
        it = out.end() - 1;
      }
      ++it->count;
      it->self_ms +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events, µs timestamps). The
  // parent index and trace id ride in args.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"trace_id\":%llu}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<unsigned long long>(s.trace_id));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_;
  uint64_t trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_TRACE_H_
