#include "protocol/run_context.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

namespace tcells::protocol {

namespace {

Status BadOption(const char* what) {
  return Status::InvalidArgument(std::string("RunOptions: ") + what);
}

double WallMicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Transport-level failures degrade the round (the partition is lost);
/// anything else is a protocol error and aborts the run.
bool IsTransportError(const Status& s) {
  return s.IsUnavailable() || s.IsDeadlineExceeded();
}

/// Which commits write a sink entry: every aggregation/filtering round, every
/// collection tick, or only a collection tick that accepted an upload — so a
/// collection window that accepts nothing carries no zero-valued upload keys
/// and creates no collection counters.
enum : uint8_t { kRound = 1, kTick = 2, kUpload = 4 };

using Tally = sim::PhaseTally;

/// One copy of a PhaseTally field into a named sink entry.
struct TallySink {
  uint64_t Tally::*field;
  const char* name;
  uint8_t commits;
};

/// Span name per sim::Phase.
constexpr const char* kSpanNames[] = {obs::kSpanCollection,
                                      obs::kSpanAggregationRound,
                                      obs::kSpanFilteringRound};

/// PhaseTally field -> count key on the phase's span.
constexpr TallySink kSpanCounts[] = {
    {&Tally::iterations, "ticks", kTick},
    {&Tally::partitions, "participants", kTick},
    {&Tally::partitions, "partitions", kRound | kUpload},
    {&Tally::bytes_downloaded, "bytes_in", kRound},
    {&Tally::bytes_uploaded, "bytes_out", kRound | kUpload},
    {&Tally::tuples_processed, "tuples", kRound | kUpload},
    {&Tally::dropouts, "dropouts", kRound},
    {&Tally::partitions_lost, "partitions_lost", kRound},
    {&Tally::partitions_tampered, "partitions_tampered", kRound},
};

/// PhaseTally field -> engine.* registry counter.
constexpr TallySink kRegistryCounters[] = {
    {&Tally::iterations, "engine.rounds", kRound},
    {&Tally::partitions, "engine.partitions", kRound},
    {&Tally::partitions, "engine.collection_contributions", kUpload},
    {&Tally::bytes_downloaded, "engine.bytes_downloaded", kRound},
    {&Tally::bytes_uploaded, "engine.bytes_uploaded", kRound | kUpload},
    {&Tally::tuples_processed, "engine.tuples_processed", kRound | kUpload},
    {&Tally::dropouts, "engine.dropout_redispatches", kRound},
    {&Tally::partitions_lost, "engine.partitions_lost", kRound},
    {&Tally::partitions_tampered, "engine.partitions_tampered", kRound},
};

}  // namespace

net::RetryPolicy TransportRetryPolicy(const RunOptions& options) {
  net::RetryPolicy policy;
  policy.max_attempts = options.max_dropout_retries + 1;
  policy.deadline_seconds = options.transport_deadline_seconds;
  policy.backoff_seconds = options.transport_backoff_seconds;
  policy.backoff_cap_seconds = options.transport_backoff_cap_seconds;
  policy.clock = options.clock;
  return policy;
}

Status RunOptions::Validate() const {
  if (!(compute_availability > 0.0) || compute_availability > 1.0) {
    return BadOption("compute_availability must be in (0, 1]");
  }
  if (dropout_rate < 0.0 || dropout_rate > 1.0) {
    return BadOption("dropout_rate must be in [0, 1]");
  }
  if (dropout_rate > 0.0 && max_dropout_retries == 0) {
    return BadOption(
        "max_dropout_retries must be positive when dropout_rate > 0");
  }
  if (dropout_timeout_seconds < 0.0) {
    return BadOption("dropout_timeout_seconds must be >= 0");
  }
  if (!(alpha > 1.0)) {
    return BadOption("alpha must be > 1 (merge rounds must shrink the set)");
  }
  if (nf < 0) {
    return BadOption("nf must be >= 0");
  }
  if (!(connect_prob_per_tick > 0.0) || connect_prob_per_tick > 1.0) {
    return BadOption("connect_prob_per_tick must be in (0, 1]");
  }
  if (!(transport_deadline_seconds > 0.0)) {
    return BadOption("transport_deadline_seconds must be > 0");
  }
  if (transport_backoff_seconds < 0.0) {
    return BadOption("transport_backoff_seconds must be >= 0");
  }
  if (transport_backoff_cap_seconds < transport_backoff_seconds) {
    return BadOption(
        "transport_backoff_cap_seconds must be >= transport_backoff_seconds");
  }
  return Status::OK();
}

RunContext::RunContext(Fleet* fleet, net::SsiApi* client, uint64_t query_id,
                       const sim::DeviceModel& device, RunOptions options,
                       obs::MetricsRegistry* metrics_registry,
                       obs::Trace* trace)
    : fleet_(fleet),
      client_(client),
      query_id_(query_id),
      device_(device),
      options_(options),
      rng_(options.seed),
      executor_(options.num_threads),
      metrics_registry_(metrics_registry),
      trace_(trace) {}

const std::vector<tds::TrustedDataServer*>& RunContext::compute_pool() {
  if (!pool_sampled_) {
    pool_ = fleet_->SampleAvailable(options_.compute_availability, &rng_);
    // Dynamic key mode: revoked TDSs are dropped AFTER sampling, so the rng
    // draw sequence (and hence every non-revoked TDS's partition stream) is
    // unchanged by who happens to be revoked.
    if (options_.key_authority != nullptr) {
      pool_.erase(std::remove_if(pool_.begin(), pool_.end(),
                                 [&](tds::TrustedDataServer* server) {
                                   return options_.key_authority->IsRevoked(
                                       server->id());
                                 }),
                  pool_.end());
    }
    pool_sampled_ = true;
    metrics_.available_compute_tds = pool_.size();
  }
  return pool_;
}

Result<std::vector<ssi::EncryptedItem>> RunContext::RunRound(
    sim::Phase phase, const std::vector<ssi::Partition>& partitions,
    const PartitionFn& process) {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled before round");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto& pool = compute_pool();
  if (pool.empty() && !partitions.empty()) {
    // Only reachable when revocation emptied the sampled pool.
    return Status::FailedPrecondition(
        "no non-revoked compute TDS available for the round");
  }
  const size_t n = partitions.size();

  // Serial prelude: fork one private Rng stream per partition. This is the
  // only master-Rng consumption of the round, so it is independent of the
  // thread count — and everything a task draws comes from its own stream.
  std::vector<Rng> streams;
  streams.reserve(n);
  for (size_t i = 0; i < n; ++i) streams.push_back(rng_.Fork());

  // Per-partition results, filled by the fan-out into disjoint slots.
  struct PartitionRun {
    std::vector<ssi::EncryptedItem> items;
    /// The TDS that processed the partition; unset when it was lost before
    /// any TDS did, so no TDS is charged for it.
    std::optional<uint64_t> server_id;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t tuples = 0;
    uint64_t dropouts = 0;
    double seconds = 0;
    /// Transport retry budget exhausted: the round degrades without this
    /// partition instead of failing the query.
    bool lost = false;
    /// The partition fetched back from the SSI was not the one staged (a
    /// stale or swapped input), or the round output taken back did not match
    /// the bytes the TDS uploaded — detected inside the task.
    bool tampered = false;
  };
  std::vector<PartitionRun> runs(n);

  TCELLS_RETURN_IF_ERROR(executor_.ForEachIndex(n, [&](size_t i) -> Status {
    const ssi::Partition& partition = partitions[i];
    Rng& prng = streams[i];
    PartitionRun& run = runs[i];
    run.bytes_in = partition.WireSize();
    run.tuples = partition.items.size();

    // Stage the partition with the SSI so the assigned TDS can download it
    // (and re-download it after an injected dropout).
    Status staged = client_->StagePartition(query_id_, i, partition);
    if (IsTransportError(staged)) {
      run.lost = true;
      return Status::OK();
    }
    TCELLS_RETURN_IF_ERROR(staged);

    // Fault injection: a TDS may drop mid-partition; the SSI re-dispatches
    // after a timeout until a TDS completes it (§3.2 Correctness). The Rng
    // consumption here is exactly one NextBelow + NextBool per attempt —
    // transport calls draw nothing — so the dropout schedule is identical
    // on every backend.
    for (size_t attempt = 0; attempt <= options_.max_dropout_retries;
         ++attempt) {
      tds::TrustedDataServer* server = pool[prng.NextBelow(pool.size())];
      bool drops = prng.NextBool(options_.dropout_rate) &&
                   attempt < options_.max_dropout_retries;
      if (drops) {
        run.dropouts += 1;
        run.seconds += options_.dropout_timeout_seconds;
        continue;
      }
      // The TDS downloads its partition from the SSI, processes it locally,
      // and uploads the round output.
      Result<ssi::Partition> fetched =
          client_->FetchPartition(query_id_, i);
      if (IsTransportError(fetched.status())) {
        run.lost = true;
        return Status::OK();
      }
      TCELLS_RETURN_IF_ERROR(fetched.status());
      // Input integrity: this round staged the partition itself, so the
      // bytes fetched back must match exactly. A mismatch means the SSI
      // served a stale or swapped partition (e.g. a replayed stage-ack hid
      // that the fresh partition never arrived); processing it would fold
      // wrong inputs into the result with nothing visibly lost. The staged
      // copy is still in hand, so a direct item comparison gives the same
      // detection power as the digest comparison it replaces, without
      // re-encoding and hashing both sides.
      if (fetched->items != partition.items) {
        run.lost = true;
        run.tampered = true;
        return Status::OK();
      }
      TCELLS_ASSIGN_OR_RETURN(run.items, process(server, *fetched, &prng));
      run.server_id = server->id();
      for (const auto& item : run.items) run.bytes_out += item.WireSize();
      run.seconds += device_.TransferSeconds(run.bytes_in + run.bytes_out) +
                     device_.CryptoSeconds(run.bytes_in + run.bytes_out) +
                     device_.CpuSeconds(run.tuples);
      Status uploaded = client_->UploadRoundOutput(query_id_, i, run.items);
      if (IsTransportError(uploaded)) {
        run.lost = true;
        return Status::OK();
      }
      TCELLS_RETURN_IF_ERROR(uploaded);
      // Download the round output back inside the task — per-partition SSI
      // state is keyed by (query_id, token), so takes from concurrent tasks
      // never interleave on shared state, and the transport draws no rng.
      // The codec round trip is lossless; the bytes served must be exactly
      // the bytes this TDS uploaded. A mismatch means a byzantine SSI
      // replayed a stale output or swapped partitions — the partition is
      // dropped (counted as both tampered and lost) rather than folded into
      // the result.
      Result<std::vector<ssi::EncryptedItem>> downloaded =
          client_->TakeRoundOutput(query_id_, i);
      if (IsTransportError(downloaded.status())) {
        run.lost = true;
        return Status::OK();
      }
      TCELLS_RETURN_IF_ERROR(downloaded.status());
      if (*downloaded != run.items) {
        run.lost = true;
        run.tampered = true;
        return Status::OK();
      }
      run.items = *std::move(downloaded);
      return Status::OK();
    }
    return Status::ResourceExhausted(
        "partition could not be placed after max dropout retries");
  }));

  // Serial epilogue: fold outputs and the round's tally in partition order,
  // so the tally, the span tree and the item concatenation are identical
  // whatever the completion order of the tasks above was.
  std::vector<ssi::EncryptedItem> outputs;
  size_t total_items = 0;
  for (const PartitionRun& run : runs) total_items += run.items.size();
  outputs.reserve(total_items);
  sim::PhaseTally tally{.partitions = n, .iterations = 1};
  double slowest_partition_seconds = 0;
  for (PartitionRun& run : runs) {
    if (run.server_id) {
      metrics_.accountant.RecordTds(*run.server_id, run.bytes_in,
                                    run.bytes_out, run.tuples);
    }
    tally.bytes_downloaded += run.bytes_in;
    tally.bytes_uploaded += run.bytes_out;
    tally.tuples_processed += run.tuples;
    tally.dropouts += run.dropouts;
    slowest_partition_seconds =
        std::max(slowest_partition_seconds, run.seconds);
    if (metrics_registry_ != nullptr) {
      metrics_registry_->histogram("engine.partition_bytes_out",
                                   obs::Histogram::DefaultSizeBounds())
          .Record(static_cast<double>(run.bytes_out));
    }
    tally.partitions_lost += run.lost;
    tally.partitions_tampered += run.tampered;  // tampered implies lost
    if (run.lost) continue;
    // The items were taken back and integrity-checked inside the task;
    // folding them here in partition order keeps the concatenation
    // byte-identical for any thread count or completion order.
    for (auto& item : run.items) outputs.push_back(std::move(item));
  }

  // Critical path: partitions run in parallel across the pool; more
  // partitions than TDSs serialize into waves.
  double waves = std::ceil(static_cast<double>(n) /
                           static_cast<double>(std::max<size_t>(1, pool.size())));
  double round_seconds = slowest_partition_seconds * waves;
  const double round_wall_micros = WallMicrosSince(t0);
  const double sim_begin_seconds = sim_now_seconds_;
  if (obs::Span* span =
          Commit(phase, tally, round_seconds, round_wall_micros)) {
    span->sim_begin_seconds = sim_begin_seconds;
    span->sim_end_seconds = sim_begin_seconds + round_seconds;
    span->wall_micros = round_wall_micros;
    span->counts["compute_pool"] = pool.size();
    span->values["sim_seconds"] = round_seconds;
    span->values["waves"] = waves;
  }
  if (metrics_registry_ != nullptr) {
    metrics_registry_
        ->histogram("engine.round_sim_seconds",
                    obs::Histogram::DefaultLatencyBounds())
        .Record(round_seconds);
    metrics_registry_
        ->histogram("engine.round_wall_micros",
                    obs::Histogram::ExponentialBounds(1.0, 8, 10))
        .Record(round_wall_micros);
  }
  return outputs;
}

obs::Span* RunContext::Commit(sim::Phase phase, const sim::PhaseTally& delta,
                              double sim_seconds, double wall_micros) {
  metrics_.accountant.Add(phase, delta);
  metrics_.partitions_lost += delta.partitions_lost;
  metrics_.partitions_tampered += delta.partitions_tampered;
  switch (phase) {
    case sim::Phase::kCollection:
      metrics_.collection_ticks += delta.iterations;
      metrics_.collection_participants += delta.partitions;
      metrics_.collection_wall_micros += wall_micros;
      break;
    case sim::Phase::kAggregation:
      metrics_.aggregation_rounds += delta.iterations;
      metrics_.times.aggregation_seconds += sim_seconds;
      metrics_.aggregation_wall_micros += wall_micros;
      break;
    case sim::Phase::kFiltering:
      metrics_.times.filtering_seconds += sim_seconds;
      metrics_.filtering_wall_micros += wall_micros;
      break;
  }
  sim_now_seconds_ += sim_seconds;

  const int commit = phase != sim::Phase::kCollection ? kRound
                     : delta.partitions > 0          ? kTick | kUpload
                                                     : kTick;
  // A new span per round; the one collection span for every tick.
  obs::Span* span =
      phase == sim::Phase::kCollection ? collection_span_ : nullptr;
  if (trace_ != nullptr && span == nullptr) {
    span = trace_->StartSpan(nullptr, kSpanNames[static_cast<int>(phase)]);
    span->labels["phase"] = sim::PhaseToString(phase);
    if (phase == sim::Phase::kCollection) collection_span_ = span;
  }
  if (span != nullptr) {
    for (const TallySink& sink : kSpanCounts) {
      if (sink.commits & commit) span->AddCount(sink.name, delta.*sink.field);
    }
  }
  if (metrics_registry_ != nullptr) {
    for (const TallySink& sink : kRegistryCounters) {
      if (sink.commits & commit) {
        metrics_registry_->counter(sink.name).Add(delta.*sink.field);
      }
    }
  }
  return span;
}

}  // namespace tcells::protocol
