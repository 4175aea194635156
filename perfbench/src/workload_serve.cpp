// serve-distinct and serve-zipf-churn: the serving daemon (ServingStack +
// net::Server, configured like er_served, cache attached) in-process on a
// loopback port, driven by an open-loop Poisson stream of 16-query
// requests.
//
//   serve-distinct    uniform random distinct port pairs (the cache never
//                     hits), then a closed-loop saturation phase with
//                     kThreads connections.
//   serve-zipf-churn  Zipf(1.1) draws from a fixed pool of 4096 pairs, with
//                     one 1-block wire edit per second beside the queries.
//
// Latency is measured from each request's scheduled send time, so a stall
// also delays the requests due behind it. Publish latency is measured from
// outside: from the edit's acknowledgement to the first instant the
// store's current version reflects it (AsyncUpdater::mods_reflected).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "accuracy.hpp"
#include "common.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "pg/generator.hpp"
#include "serve/query_frontend.hpp"
#include "serve/result_cache.hpp"
#include "trace.hpp"

namespace pb {

namespace {

using er::index_t;
using er::real_t;

constexpr double kRate = 25.0;             // requests per second
constexpr std::size_t kBatch = 16;         // queries per request
constexpr double kSloMs = 100.0;           // latency limit per request
constexpr std::size_t kZipfPool = 4096;    // distinct pairs in the pool
constexpr double kZipfExponent = 1.1;
constexpr double kEditPeriod = 1.0;        // seconds between wire edits
constexpr double kStartDelay = 0.05;       // lets the load threads start
constexpr std::uint64_t kScheduleSeed = 25;  // the fixed arrival trace
constexpr int kQueryConnections = 2;       // open-loop connections
constexpr std::size_t kVerifySample = 16;  // requests re-answered directly
constexpr std::size_t kKeepVersions = 3;   // snapshots the watcher retains
constexpr int kServerThreads = 2;          // er_served default --threads
constexpr std::size_t kErrorPairs = 256;   // port pairs in the ER accuracy

er::net::StackOptions stack_options() {
  er::net::StackOptions so;  // er_served defaults, 32 blocks
  so.reduction.num_blocks = 32;
  so.reduction.sparsify_quality = 1.0;
  so.reduction.parallel.num_threads = kServerThreads;
  so.attach_cache = true;
  so.staleness_bound = 6;
  so.fail_fast = true;
  return so;
}

er::net::ServerOptions server_options(er::obs::MetricsRegistry* reg) {
  er::net::ServerOptions sv;  // er_served defaults, no HTTP listener
  sv.enable_http = false;
  sv.dispatcher_threads = 2;
  sv.query_threads = kServerThreads;
  sv.admission_capacity = 64;
  sv.max_connections = 64;
  sv.registry = reg;
  return sv;
}

/// The daemon: stack, server and the time it took to answer first.
struct Daemon {
  std::unique_ptr<er::net::ServingStack> stack;
  std::unique_ptr<er::net::Server> server;
  double setup_s = 0.0;
};

Daemon start_daemon(const er::ConductanceNetwork& net,
                    const std::vector<char>& ports, index_t p, index_t q,
                    er::obs::MetricsRegistry* reg) {
  Daemon d;
  const double t0 = now_seconds();
  d.stack = std::make_unique<er::net::ServingStack>(net, ports,
                                                    stack_options(), reg);
  d.server = std::make_unique<er::net::Server>(
      &d.stack->store(), server_options(reg), d.stack->mod_fn());
  if (!d.server->start())
    throw std::runtime_error("could not bind a loopback listener");
  er::net::LoopbackClient client("127.0.0.1", d.server->port());
  er::PortQuery first;
  first.p = p;
  first.q = q;
  const auto res = client.query({first});
  if (res.retry_later || res.answers.size() != 1)
    throw std::runtime_error("first request was not answered");
  d.setup_s = now_seconds() - t0;
  return d;
}

/// One scheduled open-loop event: a query request or a wire edit.
struct Event {
  double due = 0.0;      // seconds after the stream starts
  bool edit = false;
  std::size_t index = 0;  // into requests or edits
};

struct Request {
  std::vector<er::PortQuery> batch;
  std::vector<std::uint8_t> payload;  // encoded once, before the run
  int connection = 0;
  // `due` is fixed before the load threads start; `sent` is written by the
  // sender only, the reply fields by the receiver only.
  double due = 0.0, sent = 0.0, received = -1.0;
  bool answered = false, retry_later = false, error = false;
  std::int64_t span = -1;  // live-recorded load.request span (traced runs)
  std::uint64_t version = 0;
  std::vector<real_t> answers;
  bool verify = false;       // in the sample re-answered after the run
  er::SnapshotPtr snapshot;  // the version the reply names (verify only)
};

struct Edit {
  er::net::WireModification mod;
  double due = 0.0, acked = -1.0;
  bool accepted = false;
};

/// Pairs of distinct port nodes, drawn without repetition.
class PairSource {
 public:
  PairSource(const std::vector<index_t>& nodes, std::uint64_t seed)
      : nodes_(nodes), rng_(seed) {}
  std::pair<index_t, index_t> next() {
    std::uniform_int_distribution<std::size_t> pick(0, nodes_.size() - 1);
    for (;;) {
      index_t p = nodes_[pick(rng_)];
      index_t q = nodes_[pick(rng_)];
      if (p == q) continue;
      if (p > q) std::swap(p, q);
      if (seen_.insert({p, q}).second) return {p, q};
    }
  }

 private:
  const std::vector<index_t>& nodes_;
  std::mt19937_64 rng_;
  std::set<std::pair<index_t, index_t>> seen_;
};

er::PortQuery make_query(std::pair<index_t, index_t> pq, std::size_t slot) {
  er::PortQuery query;
  // Half effective-resistance, half port-response queries.
  query.kind = slot % 2 == 0 ? er::QueryKind::kResistance
                             : er::QueryKind::kResponse;
  query.p = pq.first;
  query.q = pq.second;
  return query;
}

std::vector<std::uint8_t> encode(const std::vector<er::PortQuery>& batch) {
  er::net::QueryBatchRequest req;
  req.route = er::RouteMode::kSharded;  // the default wire route
  req.queries = batch;
  return er::net::encode_query_batch(req);
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

void sleep_until(double t) {
  const double wait = t - now_seconds();
  if (wait > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

/// Polls the store while the load runs: keeps every published snapshot
/// (answers are re-checked against the version a reply names), stamps the
/// instant each accepted modification becomes visible, and samples the
/// admission queue depth.
class Watcher {
 public:
  Watcher(er::net::ServingStack* stack, er::obs::Gauge* queue_depth)
      : stack_(stack), queue_depth_(queue_depth) {
    capture();
    thread_ = std::thread([this] { loop(); });
  }
  ~Watcher() { stop(); }
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// Wait until `mods` modifications are visible (or `timeout_s` passes).
  bool wait_reflected(std::uint64_t mods, double timeout_s) {
    const double end = now_seconds() + timeout_s;
    while (now_seconds() < end) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (visible_at_.size() >= mods) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }
  /// One of the most recent versions (null once it has aged out).
  er::SnapshotPtr snapshot(std::uint64_t version) {
    capture();  // a reply may name a version published since the last poll
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = snapshots_.find(version);
    return it == snapshots_.end() ? nullptr : it->second;
  }
  /// Build time and materialized bytes of every version published since
  /// the watcher started.
  std::vector<double> build_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return build_s_;
  }
  std::vector<double> bytes_materialized() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }
  /// Instant the k-th accepted modification (0-based) became visible.
  std::vector<double> visible_at() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return visible_at_;
  }
  std::int64_t queue_depth_max() const { return queue_depth_max_; }

 private:
  void capture() {
    const er::SnapshotPtr snap = stack_->store().acquire();
    const double t = now_seconds();
    const std::uint64_t reflected =
        stack_->updater().mods_reflected(snap->version());
    std::lock_guard<std::mutex> lock(mutex_);
    if (snapshots_.emplace(snap->version(), snap).second &&
        snapshots_.size() > 1) {
      build_s_.push_back(snap->build_seconds());
      bytes_.push_back(static_cast<double>(snap->bytes_materialized()));
    }
    // Retain only the latest versions, so the harness does not inflate
    // the daemon's memory; sampled replies pin the version they name.
    if (snapshots_.size() > kKeepVersions) snapshots_.erase(snapshots_.begin());
    while (visible_at_.size() < reflected) visible_at_.push_back(t);
  }
  void loop() {
    while (!stop_) {
      capture();
      queue_depth_max_ = std::max<std::int64_t>(queue_depth_max_,
                                                queue_depth_->value());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  er::net::ServingStack* stack_;
  er::obs::Gauge* queue_depth_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, er::SnapshotPtr> snapshots_;  // guarded
  std::vector<double> build_s_, bytes_;                 // guarded
  std::vector<double> visible_at_;                      // guarded
  std::atomic<std::int64_t> queue_depth_max_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: uses the members above
};

/// Receive every reply of one connection's requests.
void receive_replies(er::net::LoopbackClient* client, Watcher* watcher,
                     std::vector<Request>* requests,
                     const std::vector<std::size_t>& order, bool trace_odd) {
  for (std::size_t k = 0; k < order.size(); ++k) {
    er::net::Frame frame;
    try {
      frame = client->recv_frame();
    } catch (const std::exception& e) {
      note(std::string("receive failed: ") + e.what());
      for (std::size_t j = k; j < order.size(); ++j)
        (*requests)[order[j]].error = true;
      return;
    }
    const double t = now_seconds();
    // Request ids are 1, 2, ... in send order on a fresh connection.
    const std::size_t slot = static_cast<std::size_t>(frame.request_id - 1);
    if (slot >= order.size()) continue;
    const std::size_t index = order[slot];
    Request& req = (*requests)[index];
    req.received = t;
    switch (static_cast<er::net::Opcode>(frame.opcode)) {
      case er::net::Opcode::kAnswer: {
        er::net::AnswerReply reply;
        if (er::net::decode_answer(frame.payload, &reply) &&
            reply.answers.size() == req.batch.size()) {
          req.answered = true;
          req.version = reply.snapshot_version;
          req.answers = std::move(reply.answers);
          if (req.verify) req.snapshot = watcher->snapshot(req.version);
        } else {
          req.error = true;
        }
        break;
      }
      case er::net::Opcode::kRetryLater:
        req.retry_later = true;
        break;
      default:
        req.error = true;
    }
    // Odd requests are traced live; even ones are the untraced control.
    if (trace_odd && index % 2 == 1)
      req.span = Tracer::global().record("load.request", req.due, t, -1,
                                         index + 1);
  }
}

void receive_acks(er::net::LoopbackClient* client, std::vector<Edit>* edits) {
  for (std::size_t k = 0; k < edits->size(); ++k) {
    er::net::Frame frame;
    try {
      frame = client->recv_frame();
    } catch (const std::exception& e) {
      note(std::string("edit ack failed: ") + e.what());
      return;
    }
    const std::size_t slot = static_cast<std::size_t>(frame.request_id - 1);
    if (slot >= edits->size()) continue;
    Edit& edit = (*edits)[slot];
    edit.acked = now_seconds();
    edit.accepted =
        static_cast<er::net::Opcode>(frame.opcode) == er::net::Opcode::kModAck;
  }
}

}  // namespace

Result run_serve(const Args& args, bool zipf_churn) {
  Result r;
  // The grid is fixed (the preset's own seed), so timings compare across
  // runs; the seed draws what is asked: the pairs and the edited blocks.
  std::mt19937_64 rng(args.seed);
  const er::PowerGrid pg =
      er::generate_power_grid(er::ibmpg_like_preset(6, 0.65));
  const er::ConductanceNetwork net = pg.to_network();
  const std::vector<char> port_mask = pg.port_mask();
  const std::vector<index_t> ports = pg.port_nodes();
  note("grid n=" + std::to_string(pg.num_nodes) +
       " resistors=" + std::to_string(pg.resistors.size()) +
       " ports=" + std::to_string(ports.size()));

  // ---------------------------------------------------------------- set-up
  er::obs::MetricsRegistry reg;
  Daemon d = start_daemon(net, port_mask, ports[0], ports[1], &reg);
  er::net::ServingStack& stack = *d.stack;
  note("set-up (stack + server + first answer) " + std::to_string(d.setup_s) +
       " s, reduced nodes " +
       std::to_string(stack.reducer().model().stats.reduced_nodes));
  if (args.setup_only) {
    r.attempted = 1;
    r.add("setup_s", d.setup_s, "s");
    return r;
  }

  // ER accuracy, first half: the resistances the daemon serves for a fixed
  // sample of port pairs, answered directly (cache off) on the initial
  // version before any load; the exact reference is computed at the end.
  const std::vector<std::pair<index_t, index_t>> error_pairs =
      fixed_port_pairs(ports, kErrorPairs);
  std::vector<real_t> served_resistances;
  {
    std::vector<er::PortQuery> batch;
    for (const auto& [p, q] : error_pairs) {
      er::PortQuery query;
      query.kind = er::QueryKind::kResistance;
      query.p = p;
      query.q = q;
      batch.push_back(query);
    }
    er::obs::MetricsRegistry answer_reg;
    er::AnswerContext ctx;
    ctx.registry = &answer_reg;
    served_resistances =
        er::QueryFrontEnd::answer_on(*stack.store().acquire(), batch, ctx);
  }

  // ---------------------------------------------------------- the schedule
  PairSource distinct(ports, rng());
  std::vector<std::pair<index_t, index_t>> pool;  // zipf-churn pair pool
  std::vector<double> zipf_cdf;
  if (zipf_churn) {
    for (std::size_t i = 0; i < kZipfPool; ++i) pool.push_back(distinct.next());
    double total = 0.0;
    for (std::size_t k = 1; k <= kZipfPool; ++k) {
      total += std::pow(static_cast<double>(k), -kZipfExponent);
      zipf_cdf.push_back(total);
    }
    for (double& c : zipf_cdf) c /= total;
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto next_pair = [&]() {
    if (!zipf_churn) return distinct.next();
    const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(),
                                     unit(rng));
    return pool[std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf.begin()), kZipfPool - 1)];
  };

  // Poisson arrivals conditioned on their count: rate x seconds requests at
  // sorted uniform times, drawn from a fixed seed. Every run replays the
  // same arrival trace, bursts included, so runs differ in what is asked,
  // not in when: with a seeded trace the tail latency of ten runs spread
  // over more than a quarter of its median.
  std::vector<double> due;
  std::mt19937_64 schedule_rng(kScheduleSeed);
  std::uniform_real_distribution<double> when(kStartDelay, args.seconds);
  const auto n_requests = static_cast<std::size_t>(std::lround(
      kRate * (args.seconds - kStartDelay)));
  for (std::size_t i = 0; i < n_requests; ++i)
    due.push_back(when(schedule_rng));
  std::sort(due.begin(), due.end());
  std::vector<Request> requests;
  for (double t : due) {
    Request req;
    req.due = t;
    for (std::size_t i = 0; i < kBatch; ++i)
      req.batch.push_back(make_query(next_pair(), i));
    req.payload = encode(req.batch);
    req.connection = static_cast<int>(requests.size() % kQueryConnections);
    requests.push_back(std::move(req));
  }
  std::vector<Edit> edits;
  if (zipf_churn) {
    std::uniform_int_distribution<index_t> block(
        0, stack.structure().num_blocks - 1);
    for (double t = 0.5 * kEditPeriod; t < args.seconds; t += kEditPeriod) {
      Edit e;
      e.due = t;
      e.mod.dirty_blocks = {block(rng)};
      e.mod.resistance_scale = 1.1;
      edits.push_back(e);
    }
  }
  std::vector<Event> events;
  for (std::size_t i = 0; i < requests.size(); ++i)
    events.push_back({requests[i].due, false, i});
  for (std::size_t i = 0; i < edits.size(); ++i)
    events.push_back({edits[i].due, true, i});
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.due < b.due; });
  std::vector<std::vector<std::size_t>> order(kQueryConnections);
  for (std::size_t i = 0; i < requests.size(); ++i)
    order[static_cast<std::size_t>(requests[i].connection)].push_back(i);

  // ------------------------------------------------------------- open loop
  er::obs::Gauge& queue_gauge =
      reg.gauge("er_net_queue_depth", {{"queue", "queries"}});
  Watcher watcher(&stack, &queue_gauge);
  const std::shared_ptr<er::ResultCache> cache = stack.store().cache();
  const std::uint64_t hits0 = cache->hits(), misses0 = cache->misses();
  const std::uint64_t invalidations0 = cache->invalidations();
  const er::obs::MetricsSnapshot reg_before = reg.snapshot();
  const er::obs::MetricsSnapshot global_before =
      er::obs::MetricsRegistry::global().snapshot();

  std::vector<std::unique_ptr<er::net::LoopbackClient>> clients;
  for (int c = 0; c < kQueryConnections; ++c)
    clients.push_back(std::make_unique<er::net::LoopbackClient>(
        "127.0.0.1", d.server->port()));
  std::unique_ptr<er::net::LoopbackClient> edit_client;
  if (zipf_churn)
    edit_client = std::make_unique<er::net::LoopbackClient>(
        "127.0.0.1", d.server->port());

  // The sample re-answered after the run: a seeded window of consecutive
  // requests, so that the replies pin only a version or two.
  const std::size_t first_verified = std::uniform_int_distribution<std::size_t>(
      0, requests.size() - kVerifySample)(rng);
  for (std::size_t i = 0; i < kVerifySample; ++i)
    requests[first_verified + i].verify = true;

  // Absolute due times, fixed before any load thread reads them.
  const double start = now_seconds();
  for (Request& req : requests) req.due += start;

  // Load threads: one sender, one receiver per connection (<= kThreads).
  std::vector<std::thread> receivers;
  for (int c = 0; c < kQueryConnections; ++c)
    receivers.emplace_back(receive_replies, clients[c].get(), &watcher,
                           &requests,
                           std::cref(order[static_cast<std::size_t>(c)]),
                           args.trace);
  if (zipf_churn) receivers.emplace_back(receive_acks, edit_client.get(), &edits);
  for (const Event& ev : events) {
    sleep_until(start + ev.due);
    try {
      if (ev.edit) {
        const Edit& e = edits[ev.index];
        (void)edit_client->send(er::net::Opcode::kSubmitMods,
                                er::net::encode_modification(e.mod));
      } else {
        Request& req = requests[ev.index];
        req.sent = now_seconds();
        (void)clients[static_cast<std::size_t>(req.connection)]->send(
            er::net::Opcode::kErBatch, req.payload);
      }
    } catch (const std::exception& e) {
      note(std::string("send failed: ") + e.what());
      r.fail("open-loop send failed");
      break;
    }
  }
  for (std::thread& t : receivers) t.join();
  const double open_elapsed = now_seconds() - start;
  const er::obs::MetricsSnapshot reg_after = reg.snapshot();
  const std::uint64_t hits = cache->hits() - hits0;
  const std::uint64_t probes = hits + (cache->misses() - misses0);
  const std::uint64_t invalidations = cache->invalidations() - invalidations0;

  // Publish latency: every accepted edit must become visible.
  std::vector<double> publish_ms;
  std::uint64_t accepted = 0;
  for (const Edit& e : edits) accepted += e.accepted ? 1 : 0;
  if (zipf_churn) {
    stack.flush();
    check(r, watcher.wait_reflected(accepted, 60.0) &&
                 stack.mods_accepted() == accepted,
          std::to_string(accepted) + " of " + std::to_string(edits.size()) +
              " wire edits accepted and all of them published");
    const std::vector<double> visible = watcher.visible_at();
    std::size_t k = 0;
    for (const Edit& e : edits) {
      if (!e.accepted) continue;
      if (k < visible.size()) publish_ms.push_back(1e3 * (visible[k] - e.acked));
      ++k;
    }
  }
  watcher.stop();
  const double publish_max_ms =
      publish_ms.empty()
          ? 0.0
          : *std::max_element(publish_ms.begin(), publish_ms.end());
  if (zipf_churn)
    note("publish latency p50 " + std::to_string(median(publish_ms)) +
         " ms, max " + std::to_string(publish_max_ms) + " ms (" +
         std::to_string(publish_ms.size()) + " samples)");
  const er::obs::MetricsSnapshot global_after =
      er::obs::MetricsRegistry::global().snapshot();

  // Per-request latency from the scheduled send time; a refused or failed
  // request counts as missing the limit.
  std::vector<double> latency_ms, traced_ms, untraced_ms, round_trip_ms;
  std::uint64_t errors = 0, retries = 0, late = 0;
  double gen_late_ms = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    gen_late_ms = std::max(gen_late_ms, 1e3 * (req.sent - req.due));
    if (!req.answered) {
      errors += req.error ? 1 : 0;
      retries += req.retry_later ? 1 : 0;
      latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    if (req.span >= 0) {
      Tracer::global().record("gen.late", req.due, req.sent, req.span, i + 1);
      Tracer::global().record("net.round_trip", req.sent, req.received,
                              req.span, i + 1);
    }
    const double ms = 1e3 * (req.received - req.due);
    latency_ms.push_back(ms);
    round_trip_ms.push_back(1e3 * (req.received - req.sent));
    (i % 2 == 1 ? traced_ms : untraced_ms).push_back(ms);
    if (ms > kSloMs) ++late;
  }
  r.attempted += requests.size() + edits.size();
  r.failed += errors + retries;
  for (const Edit& e : edits) r.failed += e.accepted ? 0 : 1;
  const Tail lat_tail = tail(latency_ms);
  note("open loop: " + std::to_string(requests.size()) + " requests in " +
       std::to_string(open_elapsed) + " s, p50 " +
       std::to_string(median(latency_ms)) + " ms, p" +
       std::to_string(lat_tail.percentile) + " " +
       std::to_string(lat_tail.value) + " ms (" +
       std::to_string(lat_tail.samples) + " samples), late " +
       std::to_string(late) + ", retry " + std::to_string(retries) +
       ", errors " + std::to_string(errors) + ", generator late max " +
       std::to_string(gen_late_ms) + " ms, cache hits " +
       std::to_string(hits) + "/" + std::to_string(probes));
  check(r, errors == 0, "every request answered without a protocol error");

  // ---------------------------------------------- closed loop (saturation)
  double sat_qps = 0.0;
  if (!zipf_churn) {
    const double closed_s = 0.3 * args.seconds;
    std::atomic<std::uint64_t> answered{0}, sent{0}, refused{0};
    std::atomic<bool> closed_failed{false};
    std::vector<std::thread> loaders;
    const double c0 = now_seconds();
    for (int c = 0; c < kThreads; ++c) {
      loaders.emplace_back([&, seed = rng()] {
        try {
          PairSource mine(ports, seed);
          er::net::LoopbackClient client("127.0.0.1", d.server->port());
          while (now_seconds() - c0 < closed_s) {
            std::vector<er::PortQuery> batch;
            for (std::size_t i = 0; i < kBatch; ++i)
              batch.push_back(make_query(mine.next(), i));
            const auto res = client.query(batch);
            ++sent;
            if (res.retry_later)
              ++refused;
            else
              answered += batch.size();
          }
        } catch (...) {
          closed_failed = true;
        }
      });
    }
    for (std::thread& t : loaders) t.join();
    sat_qps = static_cast<double>(answered.load()) / (now_seconds() - c0);
    r.attempted += sent;
    r.failed += refused;
    check(r, !closed_failed, "closed-loop phase without transport errors");
    note("closed loop: " + std::to_string(answered.load()) + " queries, " +
         std::to_string(sat_qps) + " queries/s");
  }

  // ------------------------------------------------------------ the checks
  // The seeded sample of wire answers, re-answered directly on the
  // snapshot version each reply names: bitwise-equal on the sharded route,
  // and within 1e-8 relative of the monolithic reference.
  er::obs::MetricsRegistry scratch_reg;
  er::ThreadPool check_pool(kThreads, &scratch_reg);
  std::size_t verified = 0;
  bool bitwise = true;
  double max_rel = 0.0;
  for (const Request& req : requests) {
    if (!req.verify || !req.snapshot) continue;
    const er::ModelSnapshot& snap = *req.snapshot;
    er::AnswerContext ctx;
    ctx.pool = &check_pool;
    ctx.registry = &scratch_reg;
    ctx.mode = er::RouteMode::kSharded;
    const std::vector<real_t> direct =
        er::QueryFrontEnd::answer_on(snap, req.batch, ctx);
    bitwise = bitwise && same_bits(direct, req.answers);
    ctx.mode = er::RouteMode::kMonolithic;
    const std::vector<real_t> mono =
        er::QueryFrontEnd::answer_on(snap, req.batch, ctx);
    for (std::size_t k = 0; k < mono.size(); ++k) {
      const double rel =
          std::abs(req.answers[k] - mono[k]) / std::abs(mono[k]);
      max_rel = std::isfinite(rel) ? std::max(max_rel, rel) : 1.0;
    }
    ++verified;
  }
  check(r, verified == kVerifySample && bitwise,
        std::to_string(verified) + " sampled wire replies bitwise-equal to "
        "QueryFrontEnd::answer_on on the version each names");
  check(r, verified == kVerifySample && max_rel <= 1e-8,
        "sampled exact answers within 1e-8 relative of the monolithic "
        "reference (max " + sci(max_rel) + ")");

  if (args.trace) {
    // Direct answer_on calls, cache off, on the open-loop batches against
    // the final snapshot: what the serving layer costs without the network.
    const er::SnapshotPtr final_snap = stack.store().acquire();
    std::vector<double> answer_ms;
    double solve_s = 0.0;
    std::size_t solved = 0;
    er::ThreadPool answer_pool(kServerThreads, &scratch_reg);
    const double a0 = now_seconds();
    for (std::size_t i = 0;
         i < requests.size() && now_seconds() - a0 < 0.3 * args.seconds; ++i) {
      er::AnswerContext ctx;
      ctx.pool = &answer_pool;
      ctx.registry = &scratch_reg;
      ScopedSpan s("serve.answer_on", -1, i + 1);
      const double t0 = now_seconds();
      (void)er::QueryFrontEnd::answer_on(*final_snap, requests[i].batch, ctx);
      const double dt = now_seconds() - t0;
      answer_ms.push_back(1e3 * dt);
      solve_s += dt;
      solved += requests[i].batch.size();
    }
    const double answer_p50 = median(answer_ms);
    r.add("serve.answer_ms", answer_p50, "ms");
    r.add("serve.answer_batches", static_cast<double>(answer_ms.size()),
          "count");
    r.add("serve.solve_us_per_query",
          solved ? 1e6 * solve_s / static_cast<double>(solved) : 0.0, "us");
    r.add("serve.cache_hit_ratio",
          probes ? static_cast<double>(hits) / static_cast<double>(probes) : 0,
          "ratio");
    r.add("serve.cache_hits", static_cast<double>(hits), "count");
    r.add("serve.cache_probes", static_cast<double>(probes), "count");
    r.add("serve.cache_invalidations", static_cast<double>(invalidations),
          "count");
    if (zipf_churn) {
      const auto stage = [](const er::obs::MetricsSnapshot& snap,
                            const char* name) {
        const auto* e = snap.find("er_span_seconds", {{"stage", name}});
        return e ? e->histogram.sum : 0.0;
      };
      double update_s = 0.0;
      for (const char* name : {"partition", "reduce", "stitch", "stitch_update"})
        update_s += stage(global_after, name) - stage(global_before, name);
      const er::AsyncUpdater::Stats us = stack.updater().stats();
      r.add("serve.publish_build_s", median(watcher.build_seconds()), "s");
      r.add("serve.update_s",
            us.batches ? update_s / static_cast<double>(us.batches) : 0.0,
            "s");
      r.add("serve.publishes", static_cast<double>(us.batches), "count");
      r.add("serve.coalesce_ratio",
            us.submitted ? static_cast<double>(us.coalesced) /
                               static_cast<double>(us.submitted)
                         : 0.0,
            "ratio");
      r.add("serve.mods_submitted", static_cast<double>(us.submitted),
            "count");
      r.add("serve.bytes_materialized", median(watcher.bytes_materialized()),
            "bytes");
      // One publish per second leaves no percentile with ten samples
      // beyond it, so the tail is the run's slowest publish.
      r.add("publish_tail_ms", publish_max_ms, "ms");
      r.add("publish.samples", static_cast<double>(publish_ms.size()),
            "count");
    }
    // Round trip minus the direct answer is the network's share only when
    // the wire path pays the same solves, i.e. when the cache never hits.
    if (!zipf_churn)
      r.add("net.overhead_ms", median(round_trip_ms) - answer_p50, "ms");
    r.add("net.round_trip_ms", median(round_trip_ms), "ms");
    const er::ReducedModel& model = stack.reducer().model();
    r.add("reduction.reduced_nodes",
          static_cast<double>(model.stats.reduced_nodes), "count");
    r.add("reduction.reduced_edges",
          static_cast<double>(model.stats.reduced_edges), "count");
    r.add("net.retry_later", static_cast<double>(retries), "count");
    r.add("net.requests", static_cast<double>(requests.size()), "count");
    r.add("net.queue_depth_max", static_cast<double>(watcher.queue_depth_max()),
          "count");
    add_pool_metrics(r, reg_before, reg_after, kServerThreads, open_elapsed);
    // Usually a handful of requests or none, so it is reported here
    // rather than bounded as an end-to-end metric (see README.md).
    r.add("slo_miss_ratio",
          static_cast<double>(errors + retries + late) /
              static_cast<double>(requests.size()),
          "ratio");
    r.add("slo.misses", static_cast<double>(errors + retries + late),
          "count");
    // The tail moves with the machine's speed far more than the median
    // (queueing at ~50% load), beyond any bound (see README.md).
    r.add("lat_tail_ms", lat_tail.value, "ms");
    r.add("gen.late_ms", gen_late_ms, "ms");
    r.add("gen.tail_percentile", lat_tail.percentile, "%");
    // Odd requests recorded spans as their replies arrived; even ones did
    // not. The p50 difference is the tracing overhead on latency.
    add_trace_overhead(r, 1e-3 * median(untraced_ms), 1e-3 * median(traced_ms));
    if (zipf_churn)
      r.add("serve.publish_p50_ms", median(publish_ms), "ms");
    else
      r.add("net.sat_qps", sat_qps, "queries/s");
    return r;
  }

  // Read before the full grid's exact resistances, whose factor is the
  // check's.
  const double peak_mb = peak_rss_mb();
  const RelErr err = relative_errors(
      served_resistances,
      exact_port_resistances(net, error_pairs, &check_pool));
  // A coarse sanity bound (the reduction measures ~7% mean, ~40% max on
  // these grids): it catches a broken model, not a drift, which the
  // metrics report.
  check(r, err.finite && err.mean < 0.25,
        "served port resistances finite, mean relative error " +
            std::to_string(err.mean) + " < 0.25 over " +
            std::to_string(err.samples) + " fixed port pairs");

  r.add("setup_s", d.setup_s, "s");
  r.add("peak_rss_mb", peak_mb, "MiB");
  // One operation: a request, from its scheduled send to its reply.
  r.add("op_p50_ms", median(latency_ms), "ms");
  r.add("er_rel_err_mean", err.mean, "ratio");
  r.add("er_rel_err_max", err.max, "ratio");
  return r;
}

}  // namespace pb
