#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

// Spans this thread has open, innermost last.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::record(const std::string& name, double start, double end,
                            std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(Span{name, start, end, id, parent, request});
  return id;
}

std::int64_t Tracer::open(const std::string& name, std::int64_t parent,
                          std::uint64_t request) {
  if (!enabled_) return -1;
  if (parent < 0 && !t_open.empty()) parent = t_open.back();
  const std::int64_t id = record(name, now_seconds(), -1.0, parent, request);
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const double end = now_seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all)
    if (s.parent >= 0 && s.end >= 0.0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                 s.end);
  std::map<std::string, double> self;
  for (const Span& s : all) {
    if (s.end < 0.0) continue;
    auto& kids = children[static_cast<std::size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals inside this span.
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo_raw, hi_raw] : kids) {
      const double lo = std::max(lo_raw, s.start);
      const double hi = std::min(hi_raw, s.end);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(9);
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
        << ",\"end\":" << s.end << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t parent,
                       std::uint64_t request)
    : id_(Tracer::global().open(name, parent, request)) {}

ScopedSpan::~ScopedSpan() { Tracer::global().close(id_); }

}  // namespace pb
