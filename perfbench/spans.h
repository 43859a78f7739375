// Benchmark-side span recorder for the traced run.
//
// The benchmark records a span around each call it makes into a layer of
// the library (the library's own tracer stays off, so the untraced and
// traced runs execute the same program code). Spans are kept in memory,
// written out once at the end, and reduced to per-name self times: a
// span's duration minus the part of it that its child spans cover.
// Children are the spans opened on the same thread while the span was
// open, so a parent always fully contains its children.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double t0 = 0;  ///< Seconds since the recorder's epoch.
  double t1 = 0;
  int id = 0;
  int parent = -1;  ///< Id of the enclosing span on the same thread.
  long request = -1;  ///< Request id shared by the spans of one request.
  double child_seconds = 0;  ///< Summed durations of direct children.

  double seconds() const { return t1 - t0; }
  double self_seconds() const { return seconds() - child_seconds; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Call only while no other thread records spans.
  void set_enabled(bool on) {
    if (on && !enabled_) enabled_since_ = Now();
    if (!on && enabled_) enabled_seconds_ += Now() - enabled_since_;
    enabled_ = on;
  }
  /// Total time recording was on.
  double enabled_seconds() const { return enabled_seconds_; }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Opens a span on the calling thread; returns its id (-1 when off).
  int Open(const std::string& name, long request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = Stack().empty() ? -1 : Stack().back();
    s.request = request;
    Stack().push_back(s.id);
    s.t0 = Now();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void Close(int id) {
    if (id < 0) return;
    const double t1 = Now();
    std::lock_guard<std::mutex> lk(mu_);
    Span& s = spans_[static_cast<size_t>(id)];
    s.t1 = t1;
    if (s.parent >= 0) {
      spans_[static_cast<size_t>(s.parent)].child_seconds += s.seconds();
    }
    if (!Stack().empty() && Stack().back() == id) Stack().pop_back();
  }

  /// Durations of every closed span named `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.t1 > 0) out.push_back(s.seconds());
    }
    return out;
  }

  struct SelfTime {
    long count = 0;
    double seconds = 0;  ///< Summed self time.
  };
  std::map<std::string, SelfTime> SelfTimes() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, SelfTime> out;
    for (const Span& s : spans_) {
      SelfTime& t = out[s.name];
      ++t.count;
      t.seconds += s.self_seconds();
    }
    return out;
  }

  /// Writes every span as one JSON document; returns false on I/O error.
  bool WriteJson(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %d, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d, \"request\": %ld, "
                   "\"self_s\": %.9f}%s\n",
                   s.id, s.name.c_str(), s.t0, s.t1, s.parent, s.request,
                   s.self_seconds(), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::vector<int>& Stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = false;
  double enabled_since_ = 0;
  double enabled_seconds_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on a log; a no-op while the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, long request = -1)
      : log_(log), id_(log.Open(name, request)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
