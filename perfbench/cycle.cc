// perfbench_cycle: one cycle of one tcells benchmark workload.
//
// A cycle provisions a fresh fleet, creates a fresh Engine, runs one warm-up
// query and then a fixed number of measured queries, and prints its raw
// samples as one JSON object on stdout. run.py starts one process per cycle,
// so every sample comes from the same position in an engine's life and the
// resident-set figures belong to this cycle alone.
//
//   perfbench_cycle --workload <name> --seed <n> --cycle <i>
//                   --mode untraced|traced [--scale full|tiny]
//
// Every layer is timed from outside the library, at its public calls:
// Engine::Create/Submit/QueryHandle, QuerySession::RunAll, the RunMetrics a
// run returns, the Engine's MetricsRegistry, and TimedSsi — a decorator over
// net::SsiApi that the traced mode puts between each QuerySession and
// Engine::ssi_client(). Every query is checked against the plaintext oracle
// outside the timed windows. Exit status: 0 with a JSON line on stdout when
// the cycle ran (wrong answers are reported in the JSON, not by the exit
// status); 2 on bad arguments or a thread budget above nproc; 1 when the
// cycle could not be set up.
#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "protocol/factory.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace tcells;

namespace {

using SteadyClock = std::chrono::steady_clock;

const char kSql[] =
    "SELECT grp, COUNT(*), SUM(cat), AVG(val) FROM T GROUP BY grp";

double MillisSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads (README.md has the table and the reasons).

struct Workload {
  std::string name;
  size_t num_tds = 0;
  size_t rows_per_tds = 1;
  size_t num_groups = 0;
  double skew = 0;
  size_t compute_pool = 0;
  size_t shards = 1;
  net::TransportKind transport = net::TransportKind::kLoopback;
  /// Engine::Config::transport_max_inflight: frames one shard client keeps
  /// on the wire at once (the Engine's default is 4).
  size_t transport_max_inflight = 4;
  size_t num_threads = 1;
  size_t slots = 1;
  size_t clients = 1;
  size_t queries_per_client = 0;
  KeyMode key_mode = KeyMode::kStatic;
  /// Client c's k-th query runs kMix[(c + k) % 4]; otherwise always S_Agg.
  bool rotate_protocols = false;
};

const protocol::ProtocolKind kMix[4] = {
    protocol::ProtocolKind::kSAgg, protocol::ProtocolKind::kRnfNoise,
    protocol::ProtocolKind::kCNoise, protocol::ProtocolKind::kEdHist};

std::optional<Workload> MakeWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "crowd_collect") {
    w.num_tds = tiny ? 2000 : 100000;
    w.num_groups = 8;
    w.skew = 0.8;
    w.compute_pool = 200;
    w.shards = 4;
    w.num_threads = 4;
    w.queries_per_client = 5;
  } else if (name == "wide_groups") {
    w.num_tds = tiny ? 300 : 5000;
    w.rows_per_tds = tiny ? 10 : 40;
    w.num_groups = tiny ? 500 : 16000;
    w.skew = 0.5;
    w.compute_pool = tiny ? 100 : 2000;
    w.shards = 1;
    w.num_threads = 4;
    w.key_mode = KeyMode::kDynamic;
    w.queries_per_client = 6;
  } else if (name == "concurrent_mix") {
    w.num_tds = tiny ? 1000 : 20000;
    w.num_groups = 16;
    w.skew = 0.8;
    w.compute_pool = tiny ? 100 : 200;
    w.shards = 4;
    w.transport = net::TransportKind::kTcp;
    // One frame on the wire per shard client. With several, a round-output
    // ack that TakeRoundOutput sends detached can reach the shard after the
    // next round has re-staged the same (query, token), and the ack erases
    // the new partition: FetchPartition then fails with "no staged
    // partition for token" (README.md, known defect (e)). One in-flight
    // frame keeps each shard's calls in submission order.
    w.transport_max_inflight = 1;
    w.num_threads = 1;
    w.slots = 4;
    w.clients = 4;
    w.rotate_protocols = true;
    w.queries_per_client = 8;
  } else {
    return std::nullopt;
  }
  return w;
}

/// splitmix64: derives the cycle's independent seeds from (seed, cycle).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Host readings.

size_t NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double RssMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

/// Memory the program holds through malloc, in MB (0 where unknown): bytes
/// handed out from the arenas plus mmapped chunks, i.e. allocated and not
/// yet freed.
double HeapInUseMb() {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1e6;
#else
  return 0;
#endif
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// (steal, total) jiffies of the aggregate cpu line of /proc/stat.
std::pair<uint64_t, uint64_t> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0;
  // Fields: user nice system idle iowait irq softirq steal.
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// ---------------------------------------------------------------------------
// TimedSsi: a timing decorator over net::SsiApi. It overrides every virtual
// (so the batched and epoch-block paths of the wrapped client stay batched)
// and records per-verb calls, items, errors and busy time. It also tracks,
// per verb class, the wall time during which at least one call of that class
// was in flight — a union, so round calls that run in parallel on several
// threads are not counted twice.

enum Verb {
  kPostGlobal,
  kPostPersonal,
  kFetchPosts,
  kFetchPostsBatch,
  kAcknowledge,
  kNumAcknowledged,
  kSizeReached,
  kUploadCollection,
  kUploadCollectionBatch,
  kTakeCollected,
  kStagePartition,
  kFetchPartition,
  kUploadRoundOutput,
  kTakeRoundOutput,
  kObserveAggregation,
  kObserveFiltering,
  kPostEpochBlock,
  kFetchEpochBlock,
  kDeliverResult,
  kFetchResult,
  kGetAdversaryView,
  kRetire,
  kNumVerbs,
};

const char* const kVerbNames[kNumVerbs] = {
    "post_global",         "post_personal",      "fetch_posts",
    "fetch_posts_batch",   "acknowledge",        "num_acknowledged",
    "size_reached",        "upload_collection",  "upload_collection_batch",
    "take_collected",      "stage_partition",    "fetch_partition",
    "upload_round_output", "take_round_output",  "observe_aggregation",
    "observe_filtering",   "post_epoch_block",   "fetch_epoch_block",
    "deliver_result",      "fetch_result",       "get_adversary_view",
    "retire"};

/// Verb classes whose in-flight union is tracked.
enum VerbClass { kCollectionClass, kRoundClass, kAnyClass, kNumClasses };

int ClassOf(Verb v) {
  switch (v) {
    case kFetchPosts:
    case kFetchPostsBatch:
    case kAcknowledge:
    case kNumAcknowledged:
    case kSizeReached:
    case kUploadCollection:
    case kUploadCollectionBatch:
      return kCollectionClass;
    case kStagePartition:
    case kFetchPartition:
    case kUploadRoundOutput:
    case kTakeRoundOutput:
      return kRoundClass;
    default:
      return -1;
  }
}

struct VerbStats {
  uint64_t calls = 0;
  uint64_t items = 0;
  uint64_t errors = 0;
  double ms = 0;
};

struct SsiSample {
  VerbStats verbs[kNumVerbs];
  double busy_ms[kNumClasses] = {0, 0, 0};
};

bool IsOk(const Status& s) { return s.ok(); }
template <typename T>
bool IsOk(const Result<T>& r) {
  return r.ok();
}

class TimedSsi : public net::SsiApi {
 public:
  explicit TimedSsi(net::SsiApi* inner) : inner_(inner) {}

  /// Returns the stats gathered since the last call and starts afresh.
  SsiSample TakeSample() {
    std::lock_guard<std::mutex> lock(mu_);
    SsiSample out = sample_;
    sample_ = SsiSample();
    return out;
  }

  Status PostGlobal(const ssi::QueryPost& post) override {
    return Timed(kPostGlobal, 1, [&] { return inner_->PostGlobal(post); });
  }
  Status PostPersonal(uint64_t tds_id, const ssi::QueryPost& post) override {
    return Timed(kPostPersonal, 1,
                 [&] { return inner_->PostPersonal(tds_id, post); });
  }
  Result<std::vector<ssi::QueryPost>> FetchPosts(uint64_t tds_id) override {
    return Timed(kFetchPosts, 1, [&] { return inner_->FetchPosts(tds_id); });
  }
  std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) override {
    return TimedBatch(kFetchPostsBatch, tds_ids.size(),
                      [&] { return inner_->FetchPostsBatch(tds_ids); });
  }
  Status Acknowledge(uint64_t tds_id, uint64_t query_id) override {
    return Timed(kAcknowledge, 1,
                 [&] { return inner_->Acknowledge(tds_id, query_id); });
  }
  Result<uint64_t> NumAcknowledged(uint64_t query_id) override {
    return Timed(kNumAcknowledged, 1,
                 [&] { return inner_->NumAcknowledged(query_id); });
  }
  Result<bool> SizeReached(uint64_t query_id) override {
    return Timed(kSizeReached, 1,
                 [&] { return inner_->SizeReached(query_id); });
  }
  Result<bool> UploadCollection(
      uint64_t query_id, uint64_t tds_id,
      const std::vector<ssi::EncryptedItem>& items) override {
    return Timed(kUploadCollection, 1, [&] {
      return inner_->UploadCollection(query_id, tds_id, items);
    });
  }
  std::vector<Result<bool>> UploadCollectionBatch(
      const std::vector<net::CollectionUpload>& uploads) override {
    return TimedBatch(kUploadCollectionBatch, uploads.size(),
                      [&] { return inner_->UploadCollectionBatch(uploads); });
  }
  Result<std::vector<ssi::EncryptedItem>> TakeCollected(
      uint64_t query_id) override {
    const SteadyClock::time_point t0 = Begin(kTakeCollected);
    Result<std::vector<ssi::EncryptedItem>> r =
        inner_->TakeCollected(query_id);
    End(kTakeCollected, t0, r.ok(), r.ok() ? r->size() : 0);
    return r;
  }
  Status StagePartition(uint64_t query_id, uint64_t token,
                        const ssi::Partition& partition) override {
    return Timed(kStagePartition, 1, [&] {
      return inner_->StagePartition(query_id, token, partition);
    });
  }
  Result<ssi::Partition> FetchPartition(uint64_t query_id,
                                        uint64_t token) override {
    const SteadyClock::time_point t0 = Begin(kFetchPartition);
    Result<ssi::Partition> r = inner_->FetchPartition(query_id, token);
    End(kFetchPartition, t0, r.ok(), r.ok() ? r->items.size() : 0);
    return r;
  }
  Status UploadRoundOutput(
      uint64_t query_id, uint64_t token,
      const std::vector<ssi::EncryptedItem>& items) override {
    return Timed(kUploadRoundOutput, 1, [&] {
      return inner_->UploadRoundOutput(query_id, token, items);
    });
  }
  Result<std::vector<ssi::EncryptedItem>> TakeRoundOutput(
      uint64_t query_id, uint64_t token) override {
    return Timed(kTakeRoundOutput, 1,
                 [&] { return inner_->TakeRoundOutput(query_id, token); });
  }
  Status ObserveAggregation(
      uint64_t query_id,
      const std::vector<ssi::EncryptedItem>& items) override {
    return Timed(kObserveAggregation, 1, [&] {
      return inner_->ObserveAggregation(query_id, items);
    });
  }
  Status ObserveFiltering(
      uint64_t query_id,
      const std::vector<ssi::EncryptedItem>& items) override {
    return Timed(kObserveFiltering, 1,
                 [&] { return inner_->ObserveFiltering(query_id, items); });
  }
  Status PostEpochBlock(const Bytes& block) override {
    return Timed(kPostEpochBlock, 1,
                 [&] { return inner_->PostEpochBlock(block); });
  }
  Result<Bytes> FetchEpochBlock(uint64_t tds_id) override {
    return Timed(kFetchEpochBlock, 1,
                 [&] { return inner_->FetchEpochBlock(tds_id); });
  }
  Status DeliverResult(
      uint64_t query_id,
      const std::vector<ssi::EncryptedItem>& items) override {
    return Timed(kDeliverResult, 1,
                 [&] { return inner_->DeliverResult(query_id, items); });
  }
  Result<std::vector<ssi::EncryptedItem>> FetchResult(
      uint64_t query_id) override {
    return Timed(kFetchResult, 1,
                 [&] { return inner_->FetchResult(query_id); });
  }
  Result<ssi::AdversaryView> GetAdversaryView(uint64_t query_id) override {
    return Timed(kGetAdversaryView, 1,
                 [&] { return inner_->GetAdversaryView(query_id); });
  }
  Status Retire(uint64_t query_id) override {
    return Timed(kRetire, 1, [&] { return inner_->Retire(query_id); });
  }

 private:
  struct InFlight {
    int calls = 0;
    SteadyClock::time_point since;
  };

  template <typename F>
  std::invoke_result_t<F> Timed(Verb v, uint64_t items, F&& call) {
    const SteadyClock::time_point t0 = Begin(v);
    auto r = call();
    End(v, t0, IsOk(r), items);
    return r;
  }

  template <typename F>
  std::invoke_result_t<F> TimedBatch(Verb v, uint64_t items, F&& call) {
    const SteadyClock::time_point t0 = Begin(v);
    auto results = call();
    bool all_ok = true;
    for (const auto& r : results) all_ok = all_ok && r.ok();
    End(v, t0, all_ok, items);
    return results;
  }

  SteadyClock::time_point Begin(Verb v) {
    std::lock_guard<std::mutex> lock(mu_);
    const SteadyClock::time_point now = SteadyClock::now();
    for (int c : {ClassOf(v), static_cast<int>(kAnyClass)}) {
      if (c < 0) continue;
      if (inflight_[c].calls++ == 0) inflight_[c].since = now;
    }
    return now;
  }

  void End(Verb v, SteadyClock::time_point t0, bool ok, uint64_t items) {
    std::lock_guard<std::mutex> lock(mu_);
    const SteadyClock::time_point now = SteadyClock::now();
    VerbStats& s = sample_.verbs[v];
    s.calls += 1;
    s.items += items;
    s.errors += ok ? 0 : 1;
    s.ms += std::chrono::duration<double, std::milli>(now - t0).count();
    for (int c : {ClassOf(v), static_cast<int>(kAnyClass)}) {
      if (c < 0) continue;
      if (--inflight_[c].calls == 0) {
        sample_.busy_ms[c] += std::chrono::duration<double, std::milli>(
                                  now - inflight_[c].since)
                                  .count();
      }
    }
  }

  net::SsiApi* inner_;
  std::mutex mu_;
  SsiSample sample_;
  InFlight inflight_[kNumClasses];
};

// ---------------------------------------------------------------------------
// Oracle check: both results sorted by group key and compared row by row,
// with the relative tolerance QueryResult::SameRows uses.

constexpr double kRelTol = 1e-9;

bool ValuesClose(const storage::Value& a, const storage::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.ToDouble().ValueOrDie();
    const double y = b.ToDouble().ValueOrDie();
    if (x == y) return true;
    return std::fabs(x - y) <= kRelTol * std::max(std::fabs(x), std::fabs(y));
  }
  return a.IsSameGroup(b);
}

std::vector<const storage::Tuple*> SortedByKey(const sql::QueryResult& r) {
  std::vector<const storage::Tuple*> rows;
  rows.reserve(r.rows.size());
  for (const storage::Tuple& t : r.rows) rows.push_back(&t);
  std::sort(rows.begin(), rows.end(),
            [](const storage::Tuple* a, const storage::Tuple* b) {
              return a->at(0) < b->at(0);
            });
  return rows;
}

bool MatchesOracle(const sql::QueryResult& got,
                   const std::vector<const storage::Tuple*>& oracle) {
  if (got.rows.size() != oracle.size()) return false;
  const std::vector<const storage::Tuple*> rows = SortedByKey(got);
  for (size_t i = 0; i < rows.size(); ++i) {
    const storage::Tuple& a = *rows[i];
    const storage::Tuple& b = *oracle[i];
    if (a.size() != b.size()) return false;
    for (size_t j = 0; j < a.size(); ++j) {
      if (!ValuesClose(a.at(j), b.at(j))) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// One cycle.

struct QuerySample {
  size_t client = 0;
  size_t k = 0;
  protocol::ProtocolKind kind = protocol::ProtocolKind::kSAgg;
  uint64_t query_id = 0;
  double latency_ms = 0;
  double submit_us = 0;
  double queue_wait_ms = 0;
  double start_s = 0;  ///< relative to the measured window's start
  double end_s = 0;
  bool ok = false;     ///< oracle-matched
  std::string error;
  protocol::RunMetrics metrics;
  SsiSample ssi;
  /// The outcome, held until the deferred oracle check (concurrent clients).
  std::optional<sql::QueryResult> result;
};

struct NetCounters {
  uint64_t frames_sent = 0;
  uint64_t calls_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;
  uint64_t partitions_lost = 0;
};

NetCounters ReadNet(obs::MetricsRegistry& m) {
  NetCounters n;
  n.frames_sent = m.counter("net.frames_sent").value();
  n.calls_sent = m.counter("net.calls_sent").value();
  n.bytes_sent = m.counter("net.bytes_sent").value();
  n.retries = m.counter("net.retries").value();
  n.deadline_hits = m.counter("net.deadline_hits").value();
  n.partitions_lost = m.counter("engine.partitions_lost").value();
  return n;
}

class Cycle {
 public:
  Cycle(Workload w, uint64_t seed, uint64_t cycle, bool traced)
      : w_(std::move(w)),
        cycle_seed_(Mix(seed * 1000003ULL + cycle)),
        traced_(traced) {}

  Status Run();
  std::string ToJson() const;

 private:
  workload::GenericOptions FleetOptions() const {
    workload::GenericOptions g;
    g.num_tds = w_.num_tds;
    g.num_groups = w_.num_groups;
    g.group_skew = w_.skew;
    g.rows_per_tds = w_.rows_per_tds;
    g.seed = Mix(cycle_seed_ ^ 1);
    return g;
  }
  Engine::Config EngineConfig(KeyMode key_mode) const {
    Engine::Config cfg;
    cfg.options.compute_availability =
        std::min(1.0, static_cast<double>(w_.compute_pool) /
                          static_cast<double>(w_.num_tds));
    cfg.options.expected_groups = w_.num_groups;
    cfg.options.num_threads = w_.num_threads;
    cfg.options.seed = Mix(cycle_seed_ ^ 2);
    cfg.num_shards = w_.shards;
    cfg.transport = w_.transport;
    cfg.transport_max_inflight = w_.transport_max_inflight;
    cfg.max_inflight_queries = w_.slots;
    cfg.tracing = traced_;
    cfg.key_mode = key_mode;
    return cfg;
  }
  Status BuildFleet(std::unique_ptr<protocol::Fleet>* fleet);
  /// One query through the scheduler (Engine::Submit + QueryHandle).
  void RunEngineQuery(protocol::Protocol& protocol, QuerySample* s);
  /// One query through a QuerySession over the client's timing decorator,
  /// mirroring the scheduler job in engine.cc.
  void RunSessionQuery(protocol::Protocol& protocol, TimedSsi* ssi,
                       QuerySample* s);
  void Check(QuerySample* s);
  void RunClient(size_t c, SteadyClock::time_point t0);

  Workload w_;
  uint64_t cycle_seed_;
  bool traced_;

  std::shared_ptr<const crypto::KeyStore> keys_;
  std::shared_ptr<tds::Authority> authority_;
  std::unique_ptr<protocol::Querier> querier_;
  std::unique_ptr<Engine> engine_;
  std::vector<const storage::Tuple*> oracle_rows_;
  sql::QueryResult oracle_;
  protocol::ProtocolInputs inputs_;
  std::vector<std::vector<std::unique_ptr<protocol::Protocol>>> protocols_;

  // Set-up readings.
  double provision_s_ = 0;
  double create_s_ = 0;
  double discover_s_ = 0;
  double first_query_ms_ = 0;
  bool warm_ok_ = false;
  std::string warm_error_;
  double rss_setup_mb_ = 0;
  double heap_setup_mb_ = 0;
  double rss_end_mb_ = 0;
  double heap_end_mb_ = 0;
  double static_create_s_ = -1;

  // Measured window.
  std::vector<std::vector<QuerySample>> samples_;  // per client
  double window_s_ = 0;
  double cpu_s_ = 0;
  double steal_share_ = 0;
  NetCounters net_after_warmup_;
  NetCounters net_end_;
};

Status Cycle::BuildFleet(std::unique_ptr<protocol::Fleet>* fleet) {
  TCELLS_ASSIGN_OR_RETURN(
      *fleet, workload::BuildGenericFleet(FleetOptions(), keys_, authority_,
                                          tds::AccessPolicy::AllowAll()));
  return Status::OK();
}

void Cycle::Check(QuerySample* s) {
  if (!s->result) return;
  s->ok = MatchesOracle(*s->result, oracle_rows_);
  if (!s->ok && s->error.empty()) s->error = "result differs from the oracle";
  s->result.reset();
}

void Cycle::RunEngineQuery(protocol::Protocol& protocol, QuerySample* s) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  Result<QueryHandle> handle =
      engine_->Submit(protocol, *querier_, s->query_id, kSql);
  s->submit_us = MillisSince(t0) * 1000.0;
  if (!handle.ok()) {
    s->latency_ms = MillisSince(t0);
    s->error = handle.status().ToString();
    return;
  }
  // Time spent queued for a scheduler slot, seen through the public handle.
  while (handle->Status() == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  s->queue_wait_ms = MillisSince(t0) - s->submit_us / 1000.0;
  Result<protocol::RunOutcome> outcome = handle->Wait();
  s->latency_ms = MillisSince(t0);
  if (!outcome.ok()) {
    s->error = outcome.status().ToString();
    return;
  }
  s->metrics = outcome->metrics;
  s->result = std::move(outcome->result);
}

void Cycle::RunSessionQuery(protocol::Protocol& protocol, TimedSsi* ssi,
                            QuerySample* s) {
  (void)ssi->TakeSample();
  const SteadyClock::time_point t0 = SteadyClock::now();
  protocol::QuerySession session(&engine_->fleet(), engine_->device(),
                                 engine_->options(), engine_->telemetry(),
                                 ssi);
  Status submitted = session.Submit(s->query_id, querier_.get(), &protocol,
                                    kSql);
  Result<std::map<uint64_t, protocol::RunOutcome>> outcomes =
      submitted.ok() ? session.RunAll()
                     : Result<std::map<uint64_t, protocol::RunOutcome>>(
                           submitted);
  s->latency_ms = MillisSince(t0);
  s->ssi = ssi->TakeSample();
  if (!outcomes.ok()) {
    (void)engine_->ssi_client()->Retire(s->query_id);
    s->error = outcomes.status().ToString();
    return;
  }
  auto it = outcomes->find(s->query_id);
  if (it == outcomes->end()) {
    s->error = "query produced no outcome";
    return;
  }
  s->metrics = it->second.metrics;
  s->result = std::move(it->second.result);
}

void Cycle::RunClient(size_t c, SteadyClock::time_point t0) {
  const std::vector<std::unique_ptr<protocol::Protocol>>& protocols =
      protocols_[c];
  TimedSsi ssi(engine_->ssi_client());
  const bool solo = w_.clients == 1;
  for (size_t k = 0; k < w_.queries_per_client; ++k) {
    QuerySample& s = samples_[c][k];
    s.client = c;
    s.k = k;
    const size_t p = w_.rotate_protocols ? (c + k) % 4 : 0;
    s.kind = kMix[p];
    s.query_id = 1000 * (c + 1) + k;
    s.start_s = SecondsBetween(t0, SteadyClock::now());
    if (traced_) {
      RunSessionQuery(*protocols[p], &ssi, &s);
    } else {
      RunEngineQuery(*protocols[p], &s);
    }
    s.end_s = SecondsBetween(t0, SteadyClock::now());
    if (solo) {
      // A solo client checks between queries, outside the latency; its
      // measured wall is the sum of latencies (run.py), so the check never
      // reaches qps. Concurrent clients defer the check to the cycle's end.
      Check(&s);
    }
  }
}

Status Cycle::Run() {
  keys_ = crypto::KeyStore::CreateForTest(Mix(cycle_seed_ ^ 3));
  authority_ = std::make_shared<tds::Authority>(Bytes(16, 0x5a));
  querier_ = std::make_unique<protocol::Querier>(
      "perfbench", authority_->Issue("perfbench"), keys_);

  // ---- Set-up: provisioning + Engine::Create (+ discovery) + warm-up ----
  SteadyClock::time_point t = SteadyClock::now();
  std::unique_ptr<protocol::Fleet> fleet;
  TCELLS_RETURN_IF_ERROR(BuildFleet(&fleet));
  provision_s_ = SecondsBetween(t, SteadyClock::now());

  // The oracle is computed outside the set-up window.
  TCELLS_ASSIGN_OR_RETURN(oracle_, protocol::ExecuteReference(*fleet, kSql));
  oracle_rows_ = SortedByKey(oracle_);

  t = SteadyClock::now();
  TCELLS_ASSIGN_OR_RETURN(
      engine_, Engine::Create(std::move(fleet), EngineConfig(w_.key_mode)));
  create_s_ = SecondsBetween(t, SteadyClock::now());

  if (w_.rotate_protocols) {
    t = SteadyClock::now();
    TCELLS_ASSIGN_OR_RETURN(inputs_,
                            engine_->DiscoverInputs(*querier_, 1, kSql));
    discover_s_ = SecondsBetween(t, SteadyClock::now());
  }

  {
    protocol::SAggProtocol s_agg;
    QuerySample warm;
    warm.query_id = 2;
    RunEngineQuery(s_agg, &warm);
    Check(&warm);
    first_query_ms_ = warm.latency_ms;
    warm_ok_ = warm.ok;
    warm_error_ = warm.error;
  }
  rss_setup_mb_ = RssMb();
  heap_setup_mb_ = HeapInUseMb();
  net_after_warmup_ = ReadNet(engine_->metrics());

  // ---- Measured queries ----
  // Each client owns the protocols it runs: kMix[0..3] when rotating,
  // S_Agg alone otherwise.
  protocols_.resize(w_.clients);
  for (auto& protocols : protocols_) {
    for (size_t p = 0; p < (w_.rotate_protocols ? 4 : 1); ++p) {
      TCELLS_ASSIGN_OR_RETURN(std::unique_ptr<protocol::Protocol> made,
                              protocol::MakeProtocol(kMix[p], inputs_));
      protocols.push_back(std::move(made));
    }
  }
  samples_.assign(w_.clients,
                  std::vector<QuerySample>(w_.queries_per_client));
  const std::pair<uint64_t, uint64_t> steal0 = StealJiffies();
  const double cpu0 = ProcessCpuSeconds();
  const SteadyClock::time_point t0 = SteadyClock::now();
  if (w_.clients == 1) {
    RunClient(0, t0);
  } else {
    std::vector<std::thread> clients;
    clients.reserve(w_.clients);
    for (size_t c = 0; c < w_.clients; ++c) {
      clients.emplace_back([this, c, t0] { RunClient(c, t0); });
    }
    for (std::thread& th : clients) th.join();
  }
  window_s_ = SecondsBetween(t0, SteadyClock::now());
  cpu_s_ = ProcessCpuSeconds() - cpu0;
  const std::pair<uint64_t, uint64_t> steal1 = StealJiffies();
  steal_share_ =
      steal1.second > steal0.second
          ? static_cast<double>(steal1.first - steal0.first) /
                static_cast<double>(steal1.second - steal0.second)
          : 0.0;
  net_end_ = ReadNet(engine_->metrics());
  for (auto& client : samples_) {
    for (QuerySample& s : client) Check(&s);
  }
  // No query is in flight and every result is freed: a quiescent reading.
  rss_end_mb_ = RssMb();
  heap_end_mb_ = HeapInUseMb();

  // keys.setup_s: the same fleet under static keys, after the measurements.
  if (traced_ && w_.key_mode == KeyMode::kDynamic) {
    engine_.reset();
    TCELLS_RETURN_IF_ERROR(BuildFleet(&fleet));
    t = SteadyClock::now();
    TCELLS_ASSIGN_OR_RETURN(
        std::unique_ptr<Engine> static_engine,
        Engine::Create(std::move(fleet), EngineConfig(KeyMode::kStatic)));
    static_create_s_ = SecondsBetween(t, SteadyClock::now());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// JSON output.

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') {
        quoted += '\\';
        quoted += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        quoted += ' ';
      } else {
        quoted += ch;
      }
    }
    quoted += '"';
    return Raw(key, quoted);
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string NetJson(const NetCounters& n) {
  JsonObject o;
  o.Int("frames_sent", n.frames_sent)
      .Int("calls_sent", n.calls_sent)
      .Int("bytes_sent", n.bytes_sent)
      .Int("retries", n.retries)
      .Int("deadline_hits", n.deadline_hits)
      .Int("partitions_lost", n.partitions_lost);
  return o.str();
}

std::string Cycle::ToJson() const {
  // Engine::Config keeps the default device model (§6.1).
  const sim::DeviceModel device;
  std::string queries = "[";
  for (const auto& client : samples_) {
    for (const QuerySample& s : client) {
      const protocol::RunMetrics& m = s.metrics;
      const sim::PhaseTally& agg =
          m.accountant.phase(sim::Phase::kAggregation);
      const sim::PhaseTally& filt = m.accountant.phase(sim::Phase::kFiltering);
      JsonObject q;
      q.Int("client", s.client)
          .Int("k", s.k)
          .Str("protocol", protocol::ProtocolKindToString(s.kind))
          .Num("latency_ms", s.latency_ms)
          .Num("submit_us", s.submit_us)
          .Num("queue_wait_ms", s.queue_wait_ms)
          .Num("start_s", s.start_s)
          .Num("end_s", s.end_s)
          .Bool("ok", s.ok)
          .Str("error", s.error)
          .Int("load_bytes", m.LoadBytes())
          .Num("tq_s", m.Tq())
          .Int("p_tds", m.Ptds())
          .Num("tlocal_s", m.Tlocal(device))
          .Num("collection_ms", m.collection_wall_micros / 1000.0)
          .Num("aggregation_ms", m.aggregation_wall_micros / 1000.0)
          .Num("filtering_ms", m.filtering_wall_micros / 1000.0)
          .Int("rounds", m.aggregation_rounds)
          .Int("partitions", agg.partitions + filt.partitions)
          .Int("tuples", m.QueryPathTuples())
          .Int("collection_ticks", m.collection_ticks)
          .Int("participants", m.collection_participants)
          .Int("contributions_rejected", m.contributions_rejected)
          .Int("partitions_lost", m.partitions_lost);
      if (traced_) {
        JsonObject verbs;
        for (int v = 0; v < kNumVerbs; ++v) {
          const VerbStats& st = s.ssi.verbs[v];
          JsonObject one;
          one.Int("calls", st.calls)
              .Int("items", st.items)
              .Int("errors", st.errors)
              .Num("ms", st.ms);
          verbs.Raw(kVerbNames[v], one.str());
        }
        q.Raw("ssi", verbs.str())
            .Num("ssi_collection_busy_ms", s.ssi.busy_ms[kCollectionClass])
            .Num("ssi_round_busy_ms", s.ssi.busy_ms[kRoundClass])
            .Num("ssi_busy_ms", s.ssi.busy_ms[kAnyClass]);
      }
      if (queries.size() > 1) queries += ",";
      queries += q.str();
    }
  }
  queries += "]";

  JsonObject o;
  o.Str("workload", w_.name)
      .Str("mode", traced_ ? "traced" : "untraced")
      .Int("cycle_seed", cycle_seed_)
      .Int("num_tds", w_.num_tds)
      .Int("clients", w_.clients)
      .Int("queries_per_client", w_.queries_per_client)
      .Int("slots", w_.slots)
      .Int("num_threads", w_.num_threads)
      .Bool("dynamic_keys", w_.key_mode == KeyMode::kDynamic)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Num("provision_s", provision_s_)
      .Num("create_s", create_s_)
      .Num("discover_s", discover_s_)
      .Num("first_query_ms", first_query_ms_)
      .Num("setup_s", provision_s_ + create_s_ + discover_s_ +
                          first_query_ms_ / 1000.0)
      .Bool("warm_ok", warm_ok_)
      .Str("warm_error", warm_error_)
      .Num("rss_setup_mb", rss_setup_mb_)
      .Num("heap_setup_mb", heap_setup_mb_)
      .Num("rss_end_mb", rss_end_mb_)
      .Num("heap_end_mb", heap_end_mb_)
      .Num("static_create_s", static_create_s_)
      .Num("window_s", window_s_)
      .Num("cpu_s", cpu_s_)
      .Num("steal_share", steal_share_)
      .Raw("net_after_warmup", NetJson(net_after_warmup_))
      .Raw("net_end", NetJson(net_end_))
      .Raw("queries", queries);
  return o.str();
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_cycle: %s\nusage: perfbench_cycle --workload "
               "crowd_collect|wide_groups|concurrent_mix --seed N --cycle I "
               "--mode untraced|traced [--scale full|tiny]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  for (const char* required : {"workload", "seed", "cycle", "mode"}) {
    if (!args.count(required)) return Usage("missing a required flag");
  }
  const std::string scale = args.count("scale") ? args["scale"] : "full";
  if (scale != "full" && scale != "tiny") return Usage("bad --scale");
  std::optional<Workload> w = MakeWorkload(args["workload"], scale == "tiny");
  if (!w) return Usage("unknown workload");
  const std::string mode = args["mode"];
  if (mode != "untraced" && mode != "traced") return Usage("bad --mode");
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return Usage("bad --seed");
  const uint64_t cycle = std::strtoull(args["cycle"].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return Usage("bad --cycle");

  // Engine threads summed over scheduler slots must fit the host.
  if (w->slots * w->num_threads > NumCpus()) {
    std::fprintf(stderr,
                 "perfbench_cycle: %s needs %zu slots x %zu threads but only "
                 "%zu CPUs are available\n",
                 w->name.c_str(), w->slots, w->num_threads, NumCpus());
    return 2;
  }

  Cycle run(*w, seed, cycle, mode == "traced");
  Status status = run.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_cycle: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", run.ToJson().c_str());
  return 0;
}
