// perfbench: the repository benchmark driver binary.
//
//   perfbench --workload <alg3-er|pg-reduce|serve-distinct|serve-zipf-churn>
//             --seed N --seconds S --trace 0|1 [--setup-only]
//             [--spans PATH]
//
// Prints progress and check lines on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// run.py builds this binary and wraps it (see README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"

namespace pb {

namespace {

std::string g_tag = "perfbench";

// Counter value / histogram sum / histogram count of a registry series,
// summed over its label sets (0 when absent).
double counter_value(const er::obs::MetricsSnapshot& snap,
                     const std::string& name) {
  double total = 0.0;
  for (const auto& e : snap.entries)
    if (e.name == name) total += static_cast<double>(e.counter);
  return total;
}

double histogram_sum(const er::obs::MetricsSnapshot& snap,
                     const std::string& name) {
  double total = 0.0;
  for (const auto& e : snap.entries)
    if (e.name == name) total += e.histogram.sum;
  return total;
}

double histogram_count(const er::obs::MetricsSnapshot& snap,
                       const std::string& name) {
  double total = 0.0;
  for (const auto& e : snap.entries)
    if (e.name == name) total += static_cast<double>(e.histogram.count);
  return total;
}

}  // namespace

void Result::fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "[%s] CHECK FAILED: %s\n", g_tag.c_str(), what.c_str());
}

void check(Result& r, bool ok, const std::string& what) {
  if (ok)
    std::fprintf(stderr, "[%s] check ok: %s\n", g_tag.c_str(), what.c_str());
  else
    r.fail(what);
}

void note(const std::string& text) {
  std::fprintf(stderr, "[%s] %s\n", g_tag.c_str(), text.c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  // Rank n-10 (1-based) has exactly ten samples above it.
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

void add_pool_metrics(Result& r, const er::obs::MetricsSnapshot& before,
                      const er::obs::MetricsSnapshot& after, int threads,
                      double elapsed_seconds) {
  const double busy_us = counter_value(after, "er_pool_busy_us_total") -
                         counter_value(before, "er_pool_busy_us_total");
  const double tasks =
      histogram_count(after, "er_pool_task_queue_wait_seconds") -
      histogram_count(before, "er_pool_task_queue_wait_seconds");
  const double wait_s = histogram_sum(after, "er_pool_task_queue_wait_seconds") -
                        histogram_sum(before, "er_pool_task_queue_wait_seconds");
  const double capacity_s = threads * elapsed_seconds;
  r.add("parallel.busy_ratio", capacity_s > 0 ? busy_us * 1e-6 / capacity_s : 0,
        "ratio");
  r.add("parallel.busy_s", busy_us * 1e-6, "s");
  r.add("parallel.capacity_s", capacity_s, "s");
  r.add("parallel.queue_wait_ms", tasks > 0 ? wait_s * 1e3 / tasks : 0, "ms");
  r.add("parallel.tasks", tasks, "count");
}

void add_trace_overhead(Result& r, double untraced_s, double traced_s) {
  r.add("trace.overhead_pct",
        untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0,
        "%");
  r.add("trace.untraced_s", untraced_s, "s");
  r.add("trace.traced_s", traced_s, "s");
}

}  // namespace pb

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload <alg3-er|pg-reduce|"
               "serve-distinct|serve-zipf-churn> --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--spans PATH]\n";
}

bool parse(int argc, char** argv, pb::Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      a->workload = value;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      a->trace = value == "1";
    } else if (arg == "--spans") {
      a->spans_path = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

void print_result(const pb::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const pb::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
    // A value that could not be measured (e.g. the median latency when most
    // requests failed) is printed as null rather than a made-up number.
    if (std::isfinite(m.value))
      std::printf("%.17g", m.value);
    else
      std::printf("null");
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (!parse(argc, argv, &args)) {
    usage();
    return 2;
  }
  pb::g_tag = args.workload;
  pb::Tracer::global().set_enabled(args.trace && !args.setup_only);
  (void)pb::now_seconds();  // fix the span epoch

  pb::Result result;
  try {
    if (args.workload == "alg3-er") {
      result = pb::run_alg3(args);
    } else if (args.workload == "pg-reduce") {
      result = pb::run_pg_reduce(args);
    } else if (args.workload == "serve-distinct") {
      result = pb::run_serve(args, /*zipf_churn=*/false);
    } else if (args.workload == "serve-zipf-churn") {
      result = pb::run_serve(args, /*zipf_churn=*/true);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[%s] error: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace && !args.spans_path.empty() &&
      !pb::Tracer::global().write_jsonl(args.spans_path))
    std::fprintf(stderr, "[%s] could not write spans to %s\n",
                 args.workload.c_str(), args.spans_path.c_str());
  print_result(result);
  return result.correct ? 0 : 3;
}
