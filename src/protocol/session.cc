#include "protocol/session.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace tcells::protocol {

using ssi::EncryptedItem;

namespace {

double WallMicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Transport failures degrade gracefully (the TDS/querier just misses this
/// exchange); anything else aborts the run.
bool IsTransportError(const Status& s) {
  return s.IsUnavailable() || s.IsDeadlineExceeded();
}

}  // namespace

QuerySession::QuerySession(Fleet* fleet, const sim::DeviceModel& device,
                           RunOptions options, obs::Telemetry telemetry,
                           net::SsiApi* client)
    : fleet_(fleet),
      device_(device),
      options_(options),
      telemetry_(telemetry),
      client_(client) {
  if (client_ == nullptr) {
    // Private SSI behind the in-process loopback transport: same frame
    // codecs and RPC surface as TCP, no sockets.
    owned_node_ = std::make_unique<net::SsiNode>();
    owned_transport_ =
        std::make_unique<net::LoopbackTransport>(owned_node_->handler());
    owned_client_ = std::make_unique<net::SsiClient>(
        owned_transport_.get(), TransportRetryPolicy(options_),
        telemetry_.metrics);
    client_ = owned_client_.get();
  }
}

Status QuerySession::Submit(uint64_t query_id, const Querier* querier,
                            Protocol* protocol, const std::string& sql) {
  return SubmitInternal(query_id, std::nullopt, querier, protocol, sql);
}

Status QuerySession::SubmitPersonal(uint64_t query_id, uint64_t tds_id,
                                    const Querier* querier,
                                    Protocol* protocol,
                                    const std::string& sql) {
  return SubmitInternal(query_id, tds_id, querier, protocol, sql);
}

size_t QuerySession::EligibleServers(const PendingQuery& query) const {
  return query.personal_tds ? 1 : fleet_->size();
}

Status QuerySession::SubmitInternal(uint64_t query_id,
                                    std::optional<uint64_t> tds_id,
                                    const Querier* querier,
                                    Protocol* protocol,
                                    const std::string& sql) {
  if (fleet_->size() == 0) return Status::InvalidArgument("empty fleet");
  if (queries_.count(query_id)) {
    return Status::InvalidArgument("duplicate query id");
  }
  TCELLS_RETURN_IF_ERROR(options_.Validate());

  PendingQuery pending;
  pending.querier = querier;
  pending.protocol = protocol;
  pending.sql = sql;
  pending.personal_tds = tds_id;
  TCELLS_ASSIGN_OR_RETURN(
      pending.analyzed,
      querier->AnalyzeAgainst(sql, fleet_->at(0)->db().catalog()));

  // Each query gets its own context (metrics, rng stream) and its own
  // storage area inside the hub.
  RunOptions opts = options_;
  opts.seed = options_.seed + query_id * 0x9e37;
  Rng post_rng(opts.seed ^ 0xabcdef);
  if (options_.key_authority != nullptr) {
    // Dynamic key mode: mint this query's public key posting (current epoch
    // + fresh nonce), derive the per-query session keys on the querier side
    // and post under them. TDSs re-derive the same keys from the posting
    // through their broadcast-sealed epoch secrets; nothing but the static
    // flow changes when the authority is absent. The nonce draws from its
    // own stream so MakePost consumes identical rng draws in both key modes
    // (the static/dynamic differential compares adversary-view statistics).
    Rng posting_rng(opts.seed ^ 0x6b657973);
    pending.key_posting =
        options_.key_authority->NewPosting(query_id, &posting_rng);
    TCELLS_ASSIGN_OR_RETURN(
        std::shared_ptr<const crypto::KeyStore> session_keys,
        options_.key_authority->QuerierKeysFor(*pending.key_posting));
    pending.session_querier = querier->WithKeys(std::move(session_keys));
  }
  TCELLS_ASSIGN_OR_RETURN(ssi::QueryPost post,
                          pending.reader().MakePost(query_id, sql, &post_rng));
  post.key_posting = pending.key_posting;
  pending.duration_ticks = post.size_max_duration_ticks;
  if (tds_id) {
    TCELLS_RETURN_IF_ERROR(client_->PostPersonal(*tds_id, post));
  } else {
    TCELLS_RETURN_IF_ERROR(client_->PostGlobal(post));
  }

  if (telemetry_.tracer != nullptr) {
    pending.trace = telemetry_.tracer->StartTrace(query_id);
    obs::Span* root = pending.trace->root();
    root->labels["protocol"] = protocol->name();
    root->labels["scope"] = tds_id ? "personal" : "global";
    // Note: the worker-thread count is deliberately NOT recorded — a trace
    // must be byte-identical for any --threads value (obs/trace.h).
    root->counts["seed"] = opts.seed;
    root->counts["fleet_size"] = fleet_->size();
  }
  pending.ctx = std::make_unique<RunContext>(
      fleet_, client_, query_id, device_, opts, telemetry_.metrics,
      pending.trace ? pending.trace.get() : nullptr);
  Result<tds::CollectionConfig> config_result =
      pending.protocol->MakeCollectionConfig(*pending.ctx, pending.analyzed);
  if (!config_result.ok()) {
    // Roll the post back so a rejected query leaves no active storage.
    (void)client_->Retire(query_id);
    return config_result.status();
  }
  pending.config = std::move(config_result).ValueOrDie();
  pending.config.key_posting = pending.key_posting;

  // Tag the root span with the protocol's noise/histogram configuration —
  // notably the expected fake-tuple ratio of Rnf_Noise (nf fakes per true
  // tuple, §4.3).
  if (pending.trace != nullptr) {
    obs::Span* root = pending.trace->root();
    const auto& noise = pending.config.noise;
    if (pending.protocol->kind() == ProtocolKind::kRnfNoise) {
      root->counts["nf"] = static_cast<uint64_t>(std::max(0, noise.nf));
      root->values["expected_fake_ratio"] =
          static_cast<double>(noise.nf) / static_cast<double>(noise.nf + 1);
    }
    if (noise.group_domain) {
      root->counts["group_domain_size"] = noise.group_domain->size();
    }
    if (pending.config.histogram) {
      root->counts["histogram_buckets"] =
          pending.config.histogram->num_buckets();
    }
  }
  queries_.emplace(query_id, std::move(pending));
  return Status::OK();
}

Result<std::map<uint64_t, RunOutcome>> QuerySession::RunAll(
    uint64_t max_ticks) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  Rng session_rng(options_.seed ^ 0x5e5510f);

  // Collection window per query, in connection ticks. `max_ticks == 0`
  // derives it from each query's own DURATION bound (see the header);
  // an explicit max_ticks forces one shared window.
  constexpr uint64_t kUnbounded = std::numeric_limits<uint64_t>::max();
  bool tick_mode = false;
  std::map<uint64_t, uint64_t> window;
  if (max_ticks == 0) {
    for (const auto& [id, q] : queries_) {
      if (q.duration_ticks.has_value()) tick_mode = true;
    }
    for (const auto& [id, q] : queries_) {
      window[id] =
          q.duration_ticks ? *q.duration_ticks : (tick_mode ? kUnbounded : 1);
    }
  } else {
    tick_mode = max_ticks > 1;
    for (const auto& [id, q] : queries_) window[id] = max_ticks;
  }

  // ---- Interleaved collection over the querybox hub ----
  //
  // Per tick: connectors and their pending downloads are decided serially
  // (hub state is single-threaded), each (connector, query) pair gets a
  // private Rng stream forked from its query's context in a fixed order,
  // local evaluation fans out across the worker threads — parallel across
  // connectors, serial within one connector, since a TDS serves its queries
  // one after another — and the contributions are folded into the per-query
  // storage areas serially. Bit-identical for any thread count.
  ParallelExecutor session_executor(options_.num_threads);
  for (uint64_t tick = 0;; ++tick) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query batch cancelled during collection");
    }
    // Safety valve for adversarial runs: an SSI that forever under-reports
    // NumAcknowledged would keep every window open and hang this loop.
    if (options_.max_collection_ticks > 0 &&
        tick >= options_.max_collection_ticks) {
      return Status::DeadlineExceeded(
          "collection exceeded RunOptions::max_collection_ticks");
    }
    // Campaign hook: a deterministic point to revoke TDSs / roll the key
    // epoch while queries are in flight.
    if (options_.tick_hook) options_.tick_hook(tick);
    const auto tick_t0 = std::chrono::steady_clock::now();
    // A query stays open while its window has ticks left, its SIZE bound is
    // not met and some eligible TDS has yet to serve it. Each open query
    // folds this tick's facts into one tally, committed at the tick's end.
    std::map<uint64_t, sim::PhaseTally> open;
    for (auto& [id, q] : queries_) {
      if (tick >= window.at(id)) continue;
      TCELLS_ASSIGN_OR_RETURN(bool size_reached, client_->SizeReached(id));
      if (size_reached) continue;
      TCELLS_ASSIGN_OR_RETURN(uint64_t acked, client_->NumAcknowledged(id));
      if (acked >= EligibleServers(q)) continue;
      open[id].iterations = 1;
    }
    if (open.empty()) break;

    std::vector<size_t> order(fleet_->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    session_rng.Shuffle(&order);

    // One serve = one query downloaded by one connecting TDS.
    struct Serve {
      ssi::QueryPost post;
      PendingQuery* query;
      Rng rng{0};
      std::vector<EncryptedItem> items;
      /// Wire bytes and tuple count of `items`, taken before the items move
      /// into the upload batch.
      uint64_t bytes = 0;
      uint64_t tuples = 0;
      /// Dynamic key mode: keys::ContributionDigest of `items` and the TDS's
      /// tag over it, both made in the fan-out.
      Bytes digest;
      std::optional<Result<keys::ContributionTag>> tag;
      /// Dynamic key mode: the TDS could not derive the posting's session
      /// keys (revoked before the query / no key state) — it is acknowledged
      /// as served but contributes nothing.
      bool skipped = false;
    };
    struct Connector {
      tds::TrustedDataServer* server;
      std::vector<Serve> serves;
    };
    // The tick's connectors are decided first (consuming the session rng in
    // shuffle order exactly as a serial loop would), then every connector's
    // querybox download goes out as one batched fetch — the transport
    // coalesces them into multi-call frames when batching is on, or replays
    // the serial call sequence when it is off. Neither FetchPosts nor the
    // batch variant touches any rng, so the draw order is unchanged.
    std::vector<tds::TrustedDataServer*> connecting;
    for (size_t idx : order) {
      if (tick_mode &&
          !session_rng.NextBool(options_.connect_prob_per_tick)) {
        continue;
      }
      connecting.push_back(fleet_->at(idx));
    }
    std::vector<uint64_t> connecting_ids;
    connecting_ids.reserve(connecting.size());
    for (tds::TrustedDataServer* server : connecting) {
      connecting_ids.push_back(server->id());
    }
    std::vector<Result<std::vector<ssi::QueryPost>>> fetched =
        client_->FetchPostsBatch(connecting_ids);

    std::vector<Connector> connectors;
    for (size_t c = 0; c < connecting.size() && c < fetched.size(); ++c) {
      tds::TrustedDataServer* server = connecting[c];
      Connector connector;
      connector.server = server;
      // Step 2: the connecting TDS downloads its pending open queries. A
      // transport failure just means this TDS missed the tick; it can
      // connect again on a later one.
      Result<std::vector<ssi::QueryPost>>& posts = fetched[c];
      if (!posts.ok()) {
        if (IsTransportError(posts.status())) continue;
        return posts.status();
      }
      for (ssi::QueryPost& post : *posts) {
        if (!open.count(post.query_id)) continue;
        auto it = queries_.find(post.query_id);
        if (it == queries_.end()) continue;
        Serve serve;
        serve.post = std::move(post);
        serve.query = &it->second;
        serve.rng = it->second.ctx->rng().Fork();
        connector.serves.push_back(std::move(serve));
      }
      if (!connector.serves.empty()) {
        connectors.push_back(std::move(connector));
      }
    }

    TCELLS_RETURN_IF_ERROR(session_executor.ForEachIndex(
        connectors.size(), [&](size_t i) -> Status {
          Connector& connector = connectors[i];
          for (Serve& serve : connector.serves) {
            Result<std::vector<EncryptedItem>> items =
                connector.server->ProcessCollection(
                    serve.post, serve.query->config, &serve.rng);
            if (!items.ok() && serve.query->key_posting &&
                (items.status().IsNotFound() ||
                 items.status().IsFailedPrecondition())) {
              // The posting's epoch is unreachable for this TDS. It cannot
              // answer; mark the serve so it is acknowledged without an
              // upload (otherwise the collection window never closes).
              serve.skipped = true;
              continue;
            }
            TCELLS_ASSIGN_OR_RETURN(serve.items, std::move(items));
            serve.tuples = serve.items.size();
            for (const auto& item : serve.items) serve.bytes += item.WireSize();
          }
          // Dynamic key mode: the TDS tags its uploads only after serving
          // all its queries, so its epoch-block fetches (which fault plans
          // count per TDS) come in a fixed order. Admission stays serial.
          for (Serve& serve : connector.serves) {
            if (serve.skipped || !serve.query->key_posting) continue;
            serve.digest = keys::ContributionDigest(serve.items);
            serve.tag = connector.server->TagContribution(serve.post.query_id,
                                                          serve.digest);
          }
          return Status::OK();
        }));

    // One atomic exchange per serve: the SSI either accepts the contribution
    // and acknowledges, or — when the SIZE bound closed the storage area
    // mid-tick — discards it but still acknowledges the serve. The uploads
    // ship as one batch in serve order (the accept bits land exactly where
    // the serial loop would put them); a transport failure loses that TDS's
    // contribution only.
    std::vector<net::CollectionUpload> batch;
    std::vector<Serve*> batch_serves;
    for (Connector& connector : connectors) {
      for (Serve& serve : connector.serves) {
        if (serve.skipped) {
          // Nothing to upload, but the serve must still count as served or
          // the "all eligible TDSs answered" close condition never fires.
          Status acked = client_->Acknowledge(connector.server->id(),
                                              serve.post.query_id);
          if (!acked.ok() && !IsTransportError(acked)) return acked;
          continue;
        }
        if (serve.query->key_posting) {
          // Dynamic key mode: admission-check the upload before it counts.
          // The TDS authenticated (query_id, items digest) under its newest
          // reachable epoch's contribution key; the authority rejects stale
          // epochs (a TDS revoked mid-query is pinned to its pre-revocation
          // epoch), revoked ids and bad MACs. A rejected upload is
          // acknowledged and dropped — visible in contributions_rejected,
          // never folded into the result.
          TCELLS_ASSIGN_OR_RETURN(keys::ContributionTag tag,
                                  std::move(*serve.tag));
          Status admitted = options_.key_authority->VerifyContribution(
              tag, serve.post.query_id, serve.digest);
          if (admitted.IsPermissionDenied()) {
            serve.query->ctx->metrics().contributions_rejected += 1;
            Status acked = client_->Acknowledge(connector.server->id(),
                                                serve.post.query_id);
            if (!acked.ok() && !IsTransportError(acked)) return acked;
            continue;
          }
          TCELLS_RETURN_IF_ERROR(admitted);
        }
        net::CollectionUpload upload;
        upload.query_id = serve.post.query_id;
        upload.tds_id = connector.server->id();
        upload.items = std::move(serve.items);
        batch.push_back(std::move(upload));
        batch_serves.push_back(&serve);
      }
    }
    std::vector<Result<bool>> accepts = client_->UploadCollectionBatch(batch);
    Status upload_error = Status::OK();
    for (size_t i = 0; i < batch_serves.size() && i < accepts.size(); ++i) {
      Result<bool>& accepted = accepts[i];
      if (!accepted.ok()) {
        if (IsTransportError(accepted.status())) continue;
        upload_error = accepted.status();
        break;
      }
      if (!*accepted) continue;
      const Serve& serve = *batch_serves[i];
      serve.query->ctx->metrics().accountant.RecordTds(
          batch[i].tds_id, /*bytes_in=*/0, serve.bytes, serve.tuples);
      sim::PhaseTally& tally = open.at(batch[i].query_id);
      tally.partitions += 1;
      tally.bytes_uploaded += serve.bytes;
      tally.tuples_processed += serve.tuples;
    }
    // Attribute this tick's wall-clock to every query whose window was open
    // (shared tick work is charged to each, which slightly over-counts for
    // multi-query batches but keeps single-query wall accounting exact).
    const double tick_wall = WallMicrosSince(tick_t0);
    for (const auto& [id, tally] : open) {
      queries_.at(id).ctx->Commit(sim::Phase::kCollection, tally,
                                  /*sim_seconds=*/0, tick_wall);
    }
    TCELLS_RETURN_IF_ERROR(upload_error);
  }

  // ---- Per-query aggregation + filtering + decryption ----
  std::map<uint64_t, RunOutcome> outcomes;
  for (auto& [id, q] : queries_) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query batch cancelled before completion");
    }
    // Close the collection phase with an empty tally: every trace then
    // carries a collection span, even for a query no tick ever opened.
    q.ctx->Commit(sim::Phase::kCollection, {}, 0, 0);
    TCELLS_ASSIGN_OR_RETURN(std::vector<EncryptedItem> covering,
                            client_->TakeCollected(id));
    TCELLS_ASSIGN_OR_RETURN(
        covering, q.protocol->RunAggregation(*q.ctx, q.analyzed, q.config,
                                             std::move(covering)));
    TCELLS_RETURN_IF_ERROR(client_->ObserveAggregation(id, covering));
    TCELLS_ASSIGN_OR_RETURN(
        std::vector<EncryptedItem> result_items,
        RunFilteringPhase(*q.ctx, q.analyzed, q.config, std::move(covering)));
    TCELLS_RETURN_IF_ERROR(client_->ObserveFiltering(id, result_items));

    // Step 13: the TDSs hand the result to the SSI; the querier downloads
    // and decrypts it.
    TCELLS_RETURN_IF_ERROR(client_->DeliverResult(id, result_items));
    TCELLS_ASSIGN_OR_RETURN(result_items, client_->FetchResult(id));
    RunOutcome outcome;
    const auto decrypt_t0 = std::chrono::steady_clock::now();
    TCELLS_ASSIGN_OR_RETURN(
        outcome.result, q.reader().DecryptResult(q.analyzed, result_items));
    if (q.trace != nullptr) {
      obs::Span* decrypt = q.trace->StartSpan(nullptr, obs::kSpanDecrypt);
      decrypt->sim_begin_seconds = q.ctx->sim_now_seconds();
      decrypt->sim_end_seconds = q.ctx->sim_now_seconds();
      decrypt->wall_micros = WallMicrosSince(decrypt_t0);
      decrypt->counts["result_rows"] = outcome.result.rows.size();
      uint64_t result_bytes = 0;
      for (const auto& item : result_items) result_bytes += item.WireSize();
      decrypt->counts["bytes_in"] = result_bytes;

      obs::Span* root = q.trace->root();
      root->sim_end_seconds = q.ctx->sim_now_seconds();
      root->wall_micros = WallMicrosSince(wall_t0);
      outcome.trace = q.trace;
    }
    if (telemetry_.metrics != nullptr) {
      telemetry_.metrics->counter("engine.queries_completed").Increment();
    }
    outcome.metrics = std::move(q.ctx->metrics());
    TCELLS_ASSIGN_OR_RETURN(outcome.adversary, client_->GetAdversaryView(id));
    outcomes.emplace(id, std::move(outcome));
  }
  for (const auto& [id, outcome] : outcomes) {
    TCELLS_RETURN_IF_ERROR(client_->Retire(id));
  }
  queries_.clear();
  return outcomes;
}

}  // namespace tcells::protocol
