// In-memory span recorder of the benchmark.
//
// A span marks one call the benchmark makes into a library layer: name,
// start, end, the span that caused it and the request it belongs to. Spans
// stay in memory while the workload runs and are written out as JSON lines
// when it ends. With tracing off, a ScopedSpan costs one branch.
#pragma once
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

/// Seconds on the steady clock since the first call in this process.
double now_seconds();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< -1 for a root span
  std::uint64_t request = 0;  ///< 0 when the span belongs to no request
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (or -1 when tracing is off).
  std::int64_t record(const std::string& name, double start, double end,
                      std::int64_t parent = -1, std::uint64_t request = 0);
  /// Open a span on the calling thread; its parent is the innermost span
  /// this thread has open, unless `parent` names another one.
  std::int64_t open(const std::string& name, std::int64_t parent = -1,
                    std::uint64_t request = 0);
  void close(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Self time per span name: each span's duration minus the part of it
  /// covered by its children, summed over the spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Write every span as one JSON object per line. Returns false on an I/O
  /// error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t parent = -1,
                      std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t id_ = -1;
};

}  // namespace pb
