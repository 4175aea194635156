// Shared pieces of the benchmark workloads: arguments, the result record
// printed as the last output line, and small statistics helpers.
#pragma once
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace er::obs {
struct MetricsSnapshot;
}  // namespace er::obs

namespace pb {

/// Threads the load and the library use: the benchmark machine's core
/// count, fixed so that runs on one machine are comparable.
inline constexpr int kThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run only the workload's set-up, cold, and report its time.
  bool setup_only = false;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed correctness check (printed to stderr).
  void fail(const std::string& what);
};

/// A check result line on stderr; failures also clear `correct`.
void check(Result& r, bool ok, const std::string& what);

/// Informational line on stderr, prefixed with the workload tag.
void note(const std::string& text);

[[nodiscard]] double median(std::vector<double> v);

/// The highest nearest-rank percentile that has at least ten samples
/// beyond it: the value, the percentile and the sample count. Fewer than
/// eleven samples leave no such percentile; the maximum is returned then
/// and `percentile` is 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Bitwise equality of two answer vectors.
inline bool same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Per-layer metrics derived from the pool series of `registry` between
/// two snapshots: parallel.busy_ratio (busy time over threads x elapsed)
/// and parallel.queue_wait_ms (mean task queue wait), with their bases.
void add_pool_metrics(Result& r, const er::obs::MetricsSnapshot& before,
                      const er::obs::MetricsSnapshot& after, int threads,
                      double elapsed_seconds);

/// Tracing overhead: traced minus untraced end-to-end time of the same
/// work, as a percentage of the untraced time, with both bases.
void add_trace_overhead(Result& r, double untraced_s, double traced_s);

// Workload entry points.
Result run_alg3(const Args& args);
Result run_pg_reduce(const Args& args);
Result run_serve(const Args& args, bool zipf_churn);

}  // namespace pb
