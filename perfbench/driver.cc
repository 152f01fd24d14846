// perfbench driver: the single load-generator process of the end-to-end
// benchmark (perfbench/README.md). It starts the shipped mrlquantd /
// mrlquant_router binaries, drives one workload through server::Client for
// --seconds, checks every answer against exact ranks of the generated
// stream, and prints one JSON result line last on stdout:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --bin-dir DIR --run-dir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the workload
// through every layer's public functions inside spans and reports the
// per-layer metrics.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "procs.h"
#include "replay.h"
#include "server/client.h"
#include "server/protocol.h"
#include "stats.h"
#include "stream/distribution.h"
#include "util/random.h"
#include "util/simd.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace perfbench {
namespace {

using mrl::server::Client;
using mrl::server::TenantConfig;

/// Setups per end-to-end run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// The open-loop generator is healthy while its p99 lateness stays below
/// this; beyond it the run is failed (the schedule was not kept).
constexpr double kLatenessLimitUs = 10000;
/// The timed window is cut into windows of at least this length; the
/// reported ingest rate is their median, so a burst of load from outside
/// the benchmark moves one window, not the result.
constexpr double kRateWindowSeconds = 0.5;
/// QUERY quantiles of the open loop (and of its in-process replay), in turn.
constexpr double kMixedPhis[] = {0.5, 0.9, 0.99};
/// Quantiles checked against exact ranks at the end of every run.
constexpr double kCheckPhis[] = {0.01, 0.05, 0.1,  0.25, 0.5,
                                 0.75, 0.9,  0.95, 0.99};

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Dist { kLogNormal, kZipf, kUniform };

struct Spec {
  std::string name;
  int daemons = 1;
  int shards = 2;
  bool routed = false;  ///< router --replicate --partition=part in front
  std::vector<std::string> tenants;
  std::vector<bool> partitioned;
  double eps = 0.01;
  Dist dist = Dist::kUniform;
  std::size_t frame_values = 65536;
  std::size_t pool_frames = 16;     ///< bounded pool, sent cyclically
  std::size_t frames_per_write = 1; ///< > 1: one pipelined flush
  int query_every = 0;  ///< closed-loop QUERY after every Nth frame of a tenant
  double query_phi = 0.99;
  double open_loop_qps = 0;  ///< QUERY on a second connection, open loop
  std::size_t warmup_writes = 32;
  /// Tenant whose writes give add_batch_rtt / whose queries give query
  /// latency when a workload mixes two kinds (-1: all).
  int rtt_tenant = -1;
  int query_tenant = -1;
};

Spec GetSpec(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "ingest_sampled" || name == "ingest_exact") {
    s.tenants = {"ingest"};
    s.eps = name == "ingest_sampled" ? 0.05 : 0.001;
    s.dist = Dist::kLogNormal;
    s.query_every = 4;
  } else if (name == "small_mixed") {
    for (int t = 0; t < 64; ++t) {
      char name[8];
      std::snprintf(name, sizeof(name), "t%02d", t);
      s.tenants.push_back(name);
    }
    s.dist = Dist::kZipf;
    s.frame_values = 32;
    s.pool_frames = 4096;
    s.frames_per_write = 32;
    s.open_loop_qps = 2000;
    s.warmup_writes = 16;
  } else if (name == "routed") {
    s.daemons = 3;
    s.shards = 1;
    s.routed = true;
    s.tenants = {"rep", "part"};
    s.partitioned = {false, true};
    s.query_every = 4;
    s.warmup_writes = 192;
    s.rtt_tenant = 0;    // replicated single-owner frames
    s.query_tenant = 1;  // fan-out QUERY of the partitioned tenant
  } else {
    throw Fatal("unknown workload '" + name +
                "' (ingest_sampled, ingest_exact, small_mixed, routed)");
  }
  s.partitioned.resize(s.tenants.size(), false);
  return s;
}

using Pool = std::vector<std::vector<double>>;

Pool MakePool(const Spec& s, std::uint64_t seed) {
  mrl::Random rng(seed);
  std::unique_ptr<mrl::Distribution> dist;
  switch (s.dist) {
    case Dist::kLogNormal:
      dist = std::make_unique<mrl::LogNormalDistribution>(0.0, 1.0);
      break;
    case Dist::kZipf:
      dist = std::make_unique<mrl::ZipfDistribution>(1000, 1.2);
      break;
    case Dist::kUniform:
      dist = std::make_unique<mrl::UniformDistribution>(0.0, 1.0);
      break;
  }
  Pool pool(s.pool_frames, std::vector<double>(s.frame_values));
  for (auto& frame : pool) {
    for (double& v : frame) v = dist->Draw(&rng);
  }
  return pool;
}

// ---------------------------------------------------------------------------
// One live topology being driven

struct Op {
  bool query = false;
  std::size_t tenant = 0;
  std::uint64_t first = 0;  ///< global frame index of the first frame
  std::size_t frames = 0;
  double phi = 0;
};

struct PassResult {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t values = 0;
  /// Ingest rate of each consecutive window of kRateWindowSeconds.
  std::vector<double> window_rates;
  std::vector<double> write_rtt, write_rtt_other, query, query_other;
  std::vector<double> lateness;  ///< closed loop: gap after the last reply
  /// Open loop: how late the generator itself sent, i.e. send time minus
  /// the later of the due time and the previous reply.
  std::vector<double> open_lateness;
  /// Open loop: send time minus due time, including waits for a slow reply
  /// on the one query connection.
  std::vector<double> open_send_delay;
};

struct Verdict {
  bool ok = true;
  double max_rank_error = 0;
  double sketch_bytes = 0;
};

/// Sends a copy of a workload frame through a router and straight to a
/// backend, to separate tenants, so the pair of round trips prices the
/// router on the workload's own frame shape.
class RouterProbe {
 public:
  RouterProbe(Topology& topo, const std::string& router,
              const TenantConfig& config)
      : via_(Connect(router)) {
    Check(via_.CreateSketch("probe", config), "probe create");
    for (const std::string& daemon : topo.daemons) {
      Client c = Connect(daemon);
      if (Check(c.Stats("probe"), "probe stats").tenant_present) {
        direct_.emplace(Connect(daemon));
        break;
      }
    }
    if (!direct_) throw Fatal("probe tenant has no owner");
    Check(direct_->CreateSketch("probe_direct", config), "probe create");
  }

  void Run(Tracer& tr, std::uint32_t root, std::span<const double> frame) {
    tr.Time(kRouterRouted, root, 1,
            [&] { Check(via_.AddBatch("probe", frame), "probe routed"); });
    tr.Time(kRouterDirect, root, 1, [&] {
      Check(direct_->AddBatch("probe_direct", frame), "probe direct");
    });
  }

 private:
  Client via_;
  std::optional<Client> direct_;
};

class Session {
 public:
  Session(const Spec& spec, const Pool& pool, PoolOracle& oracle,
          const std::vector<TenantConfig>& configs, Topology& topo)
      : spec_(spec),
        pool_(pool),
        oracle_(oracle),
        configs_(configs),
        topo_(topo),
        main_(Connect(topo.front)),
        writes_to_(spec.tenants.size(), 0) {
    for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
      Check(main_.CreateSketch(spec.tenants[t], configs[t]), "create");
    }
    if (spec.open_loop_qps > 0) query_client_.emplace(Connect(topo.front));
    pool_min_ = pool[0][0];
    pool_max_ = pool[0][0];
    for (const auto& frame : pool) {
      for (double v : frame) {
        pool_min_ = std::min(pool_min_, v);
        pool_max_ = std::max(pool_max_, v);
      }
    }
  }

  /// In-process copies for the traced run, created before warm-up so they
  /// see every value the daemons see.
  void EnableMirror() {
    mirror_ = std::make_unique<Mirror>(spec_.daemons, spec_.shards,
                                       spec_.tenants, configs_,
                                       spec_.partitioned);
  }
  Mirror* mirror() { return mirror_.get(); }

  void Warmup() {
    PassResult ignored;
    std::size_t writes = 0;
    while (writes < spec_.warmup_writes) {
      const Op op = NextOp();
      if (op.query) {
        DoQuery(op, nullptr, ignored);
        continue;
      }
      if (mirror_) {
        for (std::uint64_t g = op.first; g < op.first + op.frames; ++g) {
          mirror_->Ingest(TenantOf(g), pool_[PoolOf(g)]);
        }
      }
      DoWrite(op, nullptr, nullptr, ignored);
      ++writes;
    }
  }

  /// Drives the workload for `seconds`. With a tracer, every request is
  /// first replayed in process (one span per layer), then sent over the
  /// socket inside its own span.
  PassResult RunPass(double seconds, Tracer* tracer, RouterProbe* probe) {
    PassResult r;
    r.write_rtt.reserve(1 << 16);
    r.query.reserve(1 << 14);
    r.lateness.reserve(1 << 16);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const std::uint64_t values_before = values_acked_;

    std::vector<double> ol_latency, ol_lateness, ol_send_delay;
    std::string ol_error;
    std::thread open_loop;
    if (spec_.open_loop_qps > 0) {
      open_loop = std::thread([&] {
        try {
          OpenLoop(start, deadline, &ol_latency, &ol_lateness,
                   &ol_send_delay);
        } catch (const std::exception& e) {
          ol_error = e.what();
        }
      });
    }
    struct Joiner {
      std::thread& t;
      ~Joiner() {
        if (t.joinable()) t.join();
      }
    } joiner{open_loop};

    auto prev = start;
    auto window_start = start;
    std::uint64_t window_values = values_acked_;
    std::uint64_t query_replays = 0;
    while (true) {
      const Op op = NextOp();
      r.lateness.push_back(Us(Clock::now() - prev));
      if (op.query) {
        DoQuery(op, tracer, r);
      } else {
        DoWrite(op, tracer, probe, r);
        if (tracer != nullptr && spec_.query_every == 0) {
          // The writer sends no QUERY of its own here (the open loop does,
          // on another connection), so the query layers are replayed in
          // process after each flush, one tenant at a time.
          const std::uint32_t root =
              tracer->Begin(kQueryRequest, Span::kNoParent, 1);
          mirror_->TraceQuery(*tracer, root,
                              query_replays % spec_.tenants.size(),
                              kMixedPhis[query_replays % 3], true);
          tracer->End(root);
          ++query_replays;
        }
      }
      ++r.ops;
      prev = Clock::now();
      const double window_s =
          std::chrono::duration<double>(prev - window_start).count();
      if (window_s >= kRateWindowSeconds) {
        r.window_rates.push_back(
            static_cast<double>(values_acked_ - window_values) / window_s);
        window_start = prev;
        window_values = values_acked_;
      }
      if (prev >= deadline) break;
    }
    if (open_loop.joinable()) open_loop.join();
    if (!ol_error.empty()) throw Fatal(ol_error);
    r.query.insert(r.query.end(), ol_latency.begin(), ol_latency.end());
    r.open_lateness = std::move(ol_lateness);
    r.open_send_delay = std::move(ol_send_delay);
    r.seconds = std::chrono::duration<double>(prev - start).count();
    r.values = values_acked_ - values_before;
    return r;
  }

  /// Exact-rank check of every tenant over kCheckPhis, plus STATS counts
  /// and the sketches' space.
  Verdict Verify() {
    Verdict v;
    Client c = Connect(topo_.front);
    for (std::size_t t = 0; t < spec_.tenants.size(); ++t) {
      const std::string& name = spec_.tenants[t];
      for (double phi : kCheckPhis) {
        mrl::Result<double> answer = c.Query(name, phi);
        if (!answer.ok()) {
          Fail("final QUERY " + name + ": " + answer.status().ToString());
          v.ok = false;
          continue;
        }
        const double err = oracle_.Error(t, answer.value(), phi);
        v.max_rank_error = std::max(v.max_rank_error, err);
        if (err > configs_[t].eps) {
          Fail("rank error " + std::to_string(err) + " > eps on " + name +
               " at phi " + std::to_string(phi));
          v.ok = false;
        }
      }
      mrl::server::StatsReply stats = Check(c.Stats(name), "STATS");
      if (!stats.tenant_present || stats.tenant_count != oracle_.total(t)) {
        Fail("STATS count of " + name + " is " +
             std::to_string(stats.tenant_count) + ", sent " +
             std::to_string(oracle_.total(t)));
        v.ok = false;
      }
      v.sketch_bytes += static_cast<double>(stats.tenant_memory_elements) * 8;
    }
    return v;
  }

  /// Median PING round trip on the workload's own connection.
  double PingUs(int pings) {
    std::vector<double> rtt;
    for (int i = 0; i < pings; ++i) {
      const auto t0 = Clock::now();
      Check(main_.Ping(), "PING");
      rtt.push_back(Us(Clock::now() - t0));
    }
    return Median(rtt);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::size_t TenantOf(std::uint64_t g) const {
    return static_cast<std::size_t>(g % spec_.tenants.size());
  }
  std::size_t PoolOf(std::uint64_t g) const {
    return static_cast<std::size_t>(g % pool_.size());
  }

  /// The workload's request sequence: writes of frames_per_write frames,
  /// tenants taking frames in turn, and a QUERY after every query_every-th
  /// frame of a tenant.
  Op NextOp() {
    Op op;
    if (pending_query_ >= 0) {
      op.query = true;
      op.tenant = static_cast<std::size_t>(pending_query_);
      op.phi = spec_.query_phi;
      pending_query_ = -1;
      return op;
    }
    op.first = next_frame_;
    op.frames = spec_.frames_per_write;
    op.tenant = TenantOf(op.first);
    next_frame_ += op.frames;
    if (spec_.query_every > 0 &&
        ++writes_to_[op.tenant] % spec_.query_every == 0) {
      pending_query_ = static_cast<int>(op.tenant);
    }
    return op;
  }

  void Fail(const std::string& what) {
    if (failed_ == 0) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    ++failed_;
  }

  /// Whether a sample of `tenant` counts toward the headline metric whose
  /// tenant is `which` (-1: every tenant counts).
  static bool Headline(int which, std::size_t tenant) {
    return which < 0 || tenant == static_cast<std::size_t>(which);
  }

  bool Plausible(double answer) const {
    return std::isfinite(answer) && answer >= pool_min_ && answer <= pool_max_;
  }

  void DoWrite(const Op& op, Tracer* tracer, RouterProbe* probe,
               PassResult& r) {
    frames_.clear();
    for (std::uint64_t g = op.first; g < op.first + op.frames; ++g) {
      frames_.push_back({TenantOf(g), pool_[PoolOf(g)]});
    }
    std::uint32_t root = Span::kNoParent;
    if (tracer != nullptr) {
      root = tracer->Begin(kWriteRequest, Span::kNoParent, op.frames);
      mirror_->TraceWrite(*tracer, root, frames_);
    }
    attempted_ += op.frames;
    std::uint32_t socket = 0;
    Clock::time_point t0, t1;
    if (op.frames == 1) {
      const Frame& f = frames_[0];
      if (tracer != nullptr) socket = tracer->Begin(kSocket, root, 1);
      t0 = Clock::now();
      mrl::Result<std::uint64_t> count =
          main_.AddBatch(spec_.tenants[f.tenant], f.values);
      t1 = Clock::now();
      if (tracer != nullptr) tracer->End(socket);
      if (!main_.connected()) throw Fatal("connection lost in ADD_BATCH");
      Acknowledge(f, PoolOf(op.first), count);
    } else {
      for (const Frame& f : frames_) {
        main_.PipelineAddBatch(spec_.tenants[f.tenant], f.values);
      }
      if (tracer != nullptr) socket = tracer->Begin(kSocket, root, op.frames);
      t0 = Clock::now();
      const mrl::Status status = main_.PipelineFlush(&replies_);
      t1 = Clock::now();
      if (tracer != nullptr) tracer->End(socket);
      Check(status, "pipelined ADD_BATCH");
      for (std::size_t i = 0; i < frames_.size(); ++i) {
        const auto& reply = replies_[replies_.size() - frames_.size() + i];
        using Count = mrl::Result<std::uint64_t>;
        Acknowledge(frames_[i], PoolOf(op.first + i),
                    reply.status.ok() ? Count(reply.count)
                                      : Count(reply.status));
      }
      replies_.clear();
    }
    (Headline(spec_.rtt_tenant, op.tenant) ? r.write_rtt : r.write_rtt_other)
        .push_back(Us(t1 - t0));
    if (tracer != nullptr) {
      if (probe != nullptr) probe->Run(*tracer, root, frames_[0].values);
      tracer->End(root);
    }
  }

  /// Counts an acknowledged frame into the oracle when the reply carries
  /// exactly the tenant count the stream so far implies.
  void Acknowledge(const Frame& f, std::size_t pool_index,
                   const mrl::Result<std::uint64_t>& count) {
    const std::uint64_t expect = oracle_.total(f.tenant) + f.values.size();
    if (!count.ok() || count.value() != expect) {
      Fail("ADD_BATCH " + spec_.tenants[f.tenant] + ": " +
           (count.ok() ? "count " + std::to_string(count.value()) +
                             " != " + std::to_string(expect)
                       : count.status().ToString()));
      return;
    }
    oracle_.Add(f.tenant, pool_index);
    values_acked_ += f.values.size();
  }

  void DoQuery(const Op& op, Tracer* tracer, PassResult& r) {
    const std::string& name = spec_.tenants[op.tenant];
    std::uint32_t root = Span::kNoParent;
    std::uint32_t socket = 0;
    if (tracer != nullptr) {
      root = tracer->Begin(kQueryRequest, Span::kNoParent, 1);
      // The fan-out path runs for partitioned tenants; a workload without
      // one replays it for every tenant so the partial layer is priced
      // everywhere.
      const bool any_partitioned =
          std::find(spec_.partitioned.begin(), spec_.partitioned.end(),
                    true) != spec_.partitioned.end();
      mirror_->TraceQuery(*tracer, root, op.tenant, op.phi,
                          spec_.partitioned[op.tenant] || !any_partitioned);
      socket = tracer->Begin(kSocket, root, 1);
    }
    ++attempted_;
    const auto t0 = Clock::now();
    mrl::Result<double> answer = main_.Query(name, op.phi);
    const auto t1 = Clock::now();
    if (tracer != nullptr) {
      tracer->End(socket);
      tracer->End(root);
    }
    if (!main_.connected()) throw Fatal("connection lost in QUERY");
    if (!answer.ok() || !Plausible(answer.value())) {
      Fail("QUERY " + name + ": " +
           (answer.ok() ? "implausible answer" : answer.status().ToString()));
    }
    (Headline(spec_.query_tenant, op.tenant) ? r.query : r.query_other)
        .push_back(Us(t1 - t0));
  }

  /// QUERY at a fixed rate on the second connection. Each is timed from
  /// when it was due; how late it was sent is recorded separately.
  void OpenLoop(Clock::time_point start, Clock::time_point deadline,
                std::vector<double>* latency, std::vector<double>* lateness,
                std::vector<double>* send_delay) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / spec_.open_loop_qps));
    const auto spin = std::chrono::microseconds(150);
    Client& c = *query_client_;
    auto prev_done = start;
    for (std::uint64_t i = 0;; ++i) {
      const auto due = start + period * static_cast<long>(i);
      if (due >= deadline) break;
      // Sleep to just short of the due time, then spin: a plain sleep wakes
      // tens of microseconds late, which would be the generator's lateness,
      // not the system's.
      std::this_thread::sleep_until(due - spin);
      while (Clock::now() < due) {
      }
      const std::size_t t = i % spec_.tenants.size();
      const auto sent = Clock::now();
      mrl::Result<double> answer =
          c.Query(spec_.tenants[t], kMixedPhis[i % 3]);
      const auto done = Clock::now();
      attempted_.fetch_add(1);
      if (!c.connected()) throw Fatal("connection lost in open-loop QUERY");
      if (!answer.ok() || !Plausible(answer.value())) {
        failed_.fetch_add(1);
        std::fprintf(stderr, "perfbench: FAILED open-loop QUERY %s\n",
                     spec_.tenants[t].c_str());
      }
      lateness->push_back(Us(sent - std::max(due, prev_done)));
      send_delay->push_back(Us(sent - due));
      latency->push_back(Us(done - due));
      prev_done = done;
    }
  }

  const Spec& spec_;
  const Pool& pool_;
  PoolOracle& oracle_;
  const std::vector<TenantConfig>& configs_;
  Topology& topo_;
  Client main_;
  std::optional<Client> query_client_;
  std::unique_ptr<Mirror> mirror_;
  std::vector<std::uint64_t> writes_to_;
  std::uint64_t next_frame_ = 0;
  int pending_query_ = -1;
  std::uint64_t values_acked_ = 0;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  double pool_min_ = 0, pool_max_ = 0;
  std::vector<Frame> frames_;
  std::vector<Client::PipelineReply> replies_;
};

std::unique_ptr<Topology> Launch(const Spec& spec, const std::string& bin_dir,
                                 const std::string& base,
                                 const Placement& placement) {
  auto topo = std::make_unique<Topology>();
  topo->base = base;
  topo->bin_dir = bin_dir;
  topo->placement = placement;
  for (int i = 0; i < spec.daemons; ++i) topo->AddDaemon(spec.shards);
  for (const std::string& sock : topo->daemons) Connect(sock);
  topo->front = spec.routed
                    ? topo->AddRouter("router", topo->daemons,
                                      {"--replicate", "--partition=part"})
                    : topo->daemons[0];
  return topo;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// p50 under the sample rule, falling back to the plain median for very
/// short runs so the metric is always present.
double P50(const std::vector<double>& samples) {
  return Percentile(samples, 0.5).value_or(Median(samples));
}

/// Adds "<prefix>_p50_us" and, when the run holds 1,000 samples or more,
/// "<prefix>_p99_us", plus the sample count.
void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const std::vector<double>& samples) {
  if (samples.empty()) return;
  out->push_back({prefix + "_p50_us", P50(samples), "us"});
  if (auto p99 = Percentile(samples, 0.99)) {
    out->push_back({prefix + "_p99_us", *p99, "us"});
  }
  out->push_back({prefix + "_samples", static_cast<double>(samples.size()),
                  "count"});
}

/// p99 when there are enough samples for it, else the maximum (which
/// bounds it from above).
double P99OrMax(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return Percentile(samples, 0.99)
      .value_or(*std::max_element(samples.begin(), samples.end()));
}

/// How late the generator ran: the open loop's send time against its
/// schedule, or for a closed loop the gap between a reply and the next
/// request.
double LatenessP99(const PassResult& pass) {
  return P99OrMax(pass.open_lateness.empty() ? pass.lateness
                                             : pass.open_lateness);
}

/// False (with a message) when the open-loop generator itself ran more than
/// kLatenessLimitUs late at p99. Waiting for a slow reply is not the
/// generator's lateness: it shows in query latency, timed from the due
/// time.
bool KeptSchedule(const PassResult& pass) {
  if (pass.open_lateness.empty()) return true;
  const double p99 = LatenessP99(pass);
  if (p99 <= kLatenessLimitUs) return true;
  std::fprintf(stderr,
               "perfbench: FAILED open-loop lateness p99 %.0f us > limit "
               "%.0f us\n",
               p99, kLatenessLimitUs);
  return false;
}

/// Folds the traced pass's spans into the per-layer metrics.
std::vector<Metric> LayerMetrics(const Tracer& tracer, const Mirror& mirror,
                                 const PassResult& traced,
                                 const PassResult& untraced, double ping_us) {
  const std::vector<Span>& spans = tracer.spans();
  double self_ns[kNumLayers] = {};
  double units[kNumLayers] = {};
  std::vector<double> residual, lookup, routed, direct;
  std::vector<Span> children;
  for (std::size_t begin = 0; begin < spans.size();) {
    std::size_t end = begin;
    while (end < spans.size() && spans[end].request == spans[begin].request) {
      ++end;
    }
    double dur_us[kNumLayers] = {};
    for (std::size_t i = begin; i < end; ++i) {
      children.clear();
      for (std::size_t j = i + 1; j < end; ++j) {
        if (spans[j].parent == i) children.push_back(spans[j]);
      }
      const Span& s = spans[i];
      self_ns[s.name] += static_cast<double>(SelfTimeNs(s, children));
      units[s.name] += s.units;
      const double us = static_cast<double>(s.duration_ns()) / 1e3;
      dur_us[s.name] += us;
      if (s.name == kRouterRouted) routed.push_back(us);
      if (s.name == kRouterDirect) direct.push_back(us);
    }
    if (spans[begin].name == kWriteRequest) {
      // Inclusive times: the CRC is inside encode and frame decode, and the
      // twin sketch is not work the daemon does.
      const double in_process[] = {
          dur_us[kClientEncode],  dur_us[kFrameDecode],
          dur_us[kRequestDecode], dur_us[kDoubleDecode],
          dur_us[kRegistryAdd],   dur_us[kResponseEncode],
          dur_us[kResponseDecode]};
      residual.push_back(ResidualUs(dur_us[kSocket], in_process));
      lookup.push_back((dur_us[kRegistryAdd] - dur_us[kSketchAdd]) /
                       spans[begin].units);
    }
    begin = end;
  }
  const auto mean_us = [&](Layer l) {
    return units[l] == 0 ? 0.0 : self_ns[l] / units[l] / 1e3;
  };
  const Mirror::SketchState sketch = mirror.Sketches();
  const double routed_us = Median(routed);
  const double direct_us = Median(direct);
  return {
      {"client.encode_us", mean_us(kClientEncode), "us"},
      {"client.response_decode_us", mean_us(kResponseDecode), "us"},
      {"protocol.crc_us", mean_us(kCrc), "us"},
      {"protocol.frame_decode_us", mean_us(kFrameDecode), "us"},
      {"protocol.request_decode_us", mean_us(kRequestDecode), "us"},
      {"protocol.double_decode_us", mean_us(kDoubleDecode), "us"},
      {"protocol.response_encode_us", mean_us(kResponseEncode), "us"},
      {"protocol.wire_bytes_per_value", mirror.wire_bytes_per_value(),
       "bytes/value"},
      {"registry.add_batch_us", mean_us(kRegistryAdd), "us"},
      {"registry.query_us", mean_us(kRegistryQuery), "us"},
      {"registry.lookup_us", Median(lookup), "us"},
      {"sketch.add_batch_us", mean_us(kSketchAdd), "us"},
      {"sketch.query_us", mean_us(kSketchQuery), "us"},
      {"sketch.collapses", sketch.collapses_per_mvalue, "1/Mvalues"},
      {"sketch.sampling_rate", sketch.sampling_rate, "ratio"},
      {"sketch.kept_ratio", sketch.kept_ratio, "ratio"},
      {"transport.ping_rtt_us", ping_us, "us"},
      {"transport.residual_us", Median(residual), "us"},
      {"partial.fetch_us", mean_us(kPartialFetch), "us"},
      {"partial.deserialize_us", mean_us(kPartialDeserialize), "us"},
      {"partial.merge_us", mean_us(kPartialMerge), "us"},
      {"partial.blob_bytes", mirror.blob_bytes(), "bytes"},
      {"router.overhead_us", routed_us - direct_us, "us"},
      {"router.overhead_ratio", direct_us > 0 ? routed_us / direct_us : 0,
       "ratio"},
      {"generator.lateness_p99_us", LatenessP99(untraced), "us"},
      {"trace.overhead_ratio",
       (traced.seconds / static_cast<double>(traced.ops)) /
           (untraced.seconds / static_cast<double>(untraced.ops)),
       "ratio"},
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string run_dir;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--bin-dir") {
      o.bin_dir = value;
    } else if (flag == "--run-dir") {
      o.run_dir = value;
    } else {
      throw Fatal("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) throw Fatal("flags come in --name value pairs");
  if (o.workload.empty() || o.bin_dir.empty() || o.run_dir.empty() ||
      !(o.seconds > 0)) {
    throw Fatal(
        "usage: perfbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1 --bin-dir DIR --run-dir DIR");
  }
  return o;
}

int Run(const Options& o) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || PERFBENCH_SANITIZED) {
    throw Fatal("refusing to report from a " +
                std::string(PERFBENCH_BUILD_TYPE) +
                (PERFBENCH_SANITIZED ? " sanitizer" : "") +
                " build; build perfbench as Release");
  }
  const Spec spec = GetSpec(o.workload);
  const Pool pool = MakePool(spec, o.seed);
  PoolOracle oracle(pool, spec.tenants.size());
  std::vector<TenantConfig> configs(spec.tenants.size());
  for (std::size_t t = 0; t < configs.size(); ++t) {
    configs[t].eps = spec.eps;
    configs[t].seed = o.seed * 1000 + t + 1;
  }
  const std::string base =
      o.run_dir + "/" + std::to_string(static_cast<long>(::getpid()));
  // The open loop is a second generator thread; the traced run's probe
  // router shares the daemons' CPUs.
  const Placement placement =
      Placement::Plan(spec.open_loop_qps > 0 ? 2 : 1, spec.routed);
  PinTo(placement.generator);

  std::vector<Metric> metrics;  // the last line: the contract's metric set
  std::vector<Metric> detail;   // everything else worth keeping
  std::unique_ptr<Topology> topo;
  std::unique_ptr<Session> session;
  bool ok = true;

  if (!o.trace) {
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      session.reset();
      topo.reset();
      oracle.Clear();
      const auto t0 = Clock::now();
      topo = Launch(spec, o.bin_dir, base + ".s" + std::to_string(rep),
                    placement);
      session = std::make_unique<Session>(spec, pool, oracle, configs, *topo);
      session->Warmup();
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    const PassResult pass = session->RunPass(o.seconds, nullptr, nullptr);
    const Verdict verdict = session->Verify();
    const double rss_mb = topo->PeakRssMb();
    ok = verdict.ok;

    metrics = {
        {"ingest_values_per_s",
         pass.window_rates.empty()
             ? static_cast<double>(pass.values) / pass.seconds
             : Median(pass.window_rates),
         "values/s"},
        {"add_batch_rtt_p50_us", P50(pass.write_rtt), "us"},
        {"query_p50_us", P50(pass.query), "us"},
        {"setup_s", Median(setup_s), "s"},
        {"sketch_bytes", verdict.sketch_bytes, "bytes"},
        {"server_rss_mb", rss_mb, "MB"},
    };
    AddLatency(&detail, "add_batch_rtt", pass.write_rtt);
    AddLatency(&detail, "query", pass.query);
    // The halves of a two-kind mix that the headline metrics leave out,
    // named by tenant ("part.add_batch_rtt_p50_us", "rep.query_p50_us").
    if (spec.rtt_tenant >= 0) {
      AddLatency(&detail, spec.tenants[1 - spec.rtt_tenant] + ".add_batch_rtt",
                 pass.write_rtt_other);
    }
    if (spec.query_tenant >= 0) {
      AddLatency(&detail, spec.tenants[1 - spec.query_tenant] + ".query",
                 pass.query_other);
    }
    detail.push_back({"generator.lateness_p99_us", LatenessP99(pass), "us"});
    ok = ok && KeptSchedule(pass);
    if (!pass.open_send_delay.empty()) {
      detail.push_back({"open_loop.send_delay_p99_us",
                        P99OrMax(pass.open_send_delay), "us"});
    }
    detail.push_back({"max_rank_error", verdict.max_rank_error, "ratio"});
    detail.push_back({"eps", spec.eps, "ratio"});
    detail.push_back({"timed_seconds", pass.seconds, "s"});
    detail.push_back({"mean_ingest_values_per_s",
                      static_cast<double>(pass.values) / pass.seconds,
                      "values/s"});
  } else {
    topo = Launch(spec, o.bin_dir, base + ".t", placement);
    session = std::make_unique<Session>(spec, pool, oracle, configs, *topo);
    session->EnableMirror();
    session->Warmup();
    const std::string router =
        spec.routed ? topo->front
                    : topo->AddRouter("probe", {topo->daemons[0]}, {});
    RouterProbe probe(*topo, router, configs[0]);
    Tracer tracer;
    const PassResult traced = session->RunPass(o.seconds / 2, &tracer, &probe);
    const PassResult untraced =
        session->RunPass(o.seconds / 2, nullptr, nullptr);
    const double ping_us = session->PingUs(200);
    ok = session->Verify().ok && KeptSchedule(untraced);
    metrics = LayerMetrics(tracer, *session->mirror(), traced, untraced,
                           ping_us);
    const std::string csv = o.run_dir + "/trace-" + spec.name + "-" +
                            std::to_string(o.seed) + ".csv";
    tracer.WriteCsv(csv);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 tracer.spans().size(), csv.c_str());
  }

  const std::uint64_t attempted = session->attempted();
  const std::uint64_t failed = session->failed();
  ok = ok && failed == 0;
  detail.push_back({"failed_ops_ratio",
                    attempted == 0 ? 0.0
                                   : static_cast<double>(failed) /
                                         static_cast<double>(attempted),
                    "ratio"});
  session.reset();
  topo.reset();

  std::printf(
      "{\"perfbench_stamp\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"dispatch\": \"%s\", "
      "\"cpu_features\": \"%s\", \"nproc\": %ld, \"build_type\": \"%s\"}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, mrl::simd::ActivePathName(),
      mrl::simd::CpuFeatureString().c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
      PERFBENCH_BUILD_TYPE);
  std::printf("{\"perfbench_detail\": %s}\n", Json(detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), Json(metrics).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
