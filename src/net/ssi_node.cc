#include "net/ssi_node.h"

#include <utility>

#include "net/ssi_wire.h"

namespace tcells::net {

using ssi::EncryptedItem;
using ssi::Partition;
using ssi::QueryPost;

namespace {

Bytes EncodeItems(const std::vector<EncryptedItem>& items) {
  Partition p;
  p.items = items;
  return p.Encode();
}

Result<std::vector<EncryptedItem>> DecodeItems(ByteReader* reader) {
  TCELLS_ASSIGN_OR_RETURN(Bytes raw, reader->GetRaw(reader->remaining()));
  TCELLS_ASSIGN_OR_RETURN(Partition p, Partition::Decode(raw));
  return std::move(p.items);
}

Bytes EmptyBody() { return Bytes(); }

}  // namespace

size_t SsiNode::num_active_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hub_.num_active();
}

Result<Bytes> SsiNode::Handle(const Bytes& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (IsBatchFrame(request)) {
    // Many logical calls share this physical frame. Each one dispatches
    // exactly as a single-call frame would, in frame order under the one
    // mutex hold, and its reply envelope travels back tagged with the
    // call's correlation ID.
    TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> calls,
                            DecodeBatchFrame(request));
    std::vector<BatchCall> replies;
    replies.reserve(calls.size());
    for (const BatchCall& call : calls) {
      TCELLS_ASSIGN_OR_RETURN(Bytes envelope, HandleOne(call.payload));
      replies.push_back(BatchCall{call.correlation_id, std::move(envelope)});
    }
    return EncodeBatchFrame(replies);
  }
  return HandleOne(request);
}

Result<Bytes> SsiNode::HandleOne(const Bytes& request) {
  Result<Bytes> reply = Dispatch(request);
  if (reply.ok()) return reply;
  Status status = reply.status();
  if (status.IsCorruption()) {
    // Undecodable request frame: surface to the transport, which drops the
    // connection (the stream cannot be trusted further).
    return status;
  }
  return EncodeReplyError(status);
}

Result<Bytes> SsiNode::Dispatch(const Bytes& request) {
  ByteReader reader(request);
  TCELLS_ASSIGN_OR_RETURN(uint8_t type_byte, reader.GetU8());
  switch (static_cast<MsgType>(type_byte)) {
    case MsgType::kPostGlobal: {
      TCELLS_ASSIGN_OR_RETURN(Bytes raw, reader.GetRaw(reader.remaining()));
      TCELLS_ASSIGN_OR_RETURN(QueryPost post, QueryPost::Decode(raw));
      TCELLS_RETURN_IF_ERROR(hub_.PostGlobal(std::move(post)));
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kPostPersonal: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(Bytes raw, reader.GetRaw(reader.remaining()));
      TCELLS_ASSIGN_OR_RETURN(QueryPost post, QueryPost::Decode(raw));
      TCELLS_RETURN_IF_ERROR(hub_.PostPersonal(tds_id, std::move(post)));
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kFetchPosts: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      std::vector<const Bytes*> posts = hub_.Fetch(tds_id);
      Bytes body;
      ByteWriter w(&body);
      w.PutU32(static_cast<uint32_t>(posts.size()));
      for (const Bytes* post : posts) w.PutBytes(*post);
      return EncodeReplyOk(body);
    }
    case MsgType::kAcknowledge: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_RETURN_IF_ERROR(hub_.Acknowledge(tds_id, query_id));
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kNumAcknowledged: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      Bytes body;
      ByteWriter w(&body);
      w.PutU64(hub_.NumAcknowledged(query_id));
      return EncodeReplyOk(body);
    }
    case MsgType::kSizeReached: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(ssi::Ssi * storage, hub_.StorageFor(query_id));
      Bytes body;
      ByteWriter w(&body);
      w.PutU8(storage->SizeReached() ? 1 : 0);
      return EncodeReplyOk(body);
    }
    case MsgType::kUploadCollection: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(std::vector<EncryptedItem> items,
                              DecodeItems(&reader));
      TCELLS_ASSIGN_OR_RETURN(
          bool accepted,
          hub_.UploadCollection(tds_id, query_id, std::move(items)));
      Bytes body;
      ByteWriter w(&body);
      w.PutU8(accepted ? 1 : 0);
      return EncodeReplyOk(body);
    }
    case MsgType::kTakeCollected: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      // Idempotent despite the destructive storage drain: a duplicate
      // delivery (transport retry after a lost reply, or a duplicated
      // frame) replays the first take's bytes instead of the now-empty
      // collection.
      auto taken = collected_taken_.find(query_id);
      if (taken != collected_taken_.end()) {
        return EncodeReplyOk(taken->second);
      }
      TCELLS_ASSIGN_OR_RETURN(ssi::Ssi * storage, hub_.StorageFor(query_id));
      Partition p;
      p.items = storage->TakeCollected();
      Bytes body = p.Encode();
      collected_taken_[query_id] = body;
      return EncodeReplyOk(body);
    }
    case MsgType::kStagePartition: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(std::vector<EncryptedItem> items,
                              DecodeItems(&reader));
      staged_[query_id][token].items = std::move(items);
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kFetchPartition: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      auto qit = staged_.find(query_id);
      if (qit == staged_.end() || !qit->second.count(token)) {
        return Status::NotFound("no staged partition for token");
      }
      // Left staged: a dropout re-dispatch downloads the same bytes again.
      return EncodeReplyOk(qit->second.at(token).Encode());
    }
    case MsgType::kUploadRoundOutput: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(std::vector<EncryptedItem> items,
                              DecodeItems(&reader));
      outputs_[query_id][token].items = std::move(items);
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kTakeRoundOutput: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      auto qit = outputs_.find(query_id);
      if (qit == outputs_.end() || !qit->second.count(token)) {
        return Status::NotFound("no round output for token");
      }
      // Left in place: the take is two-phase. A retry after a lost reply
      // re-downloads the same bytes; only the explicit kAckRoundOutput
      // (sent once the items are safely in the client's hands) erases.
      return EncodeReplyOk(qit->second.at(token).Encode());
    }
    case MsgType::kAckRoundOutput: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      // Consume both ends of the exchange so the next round can reuse the
      // token without mixing stale bytes in. Idempotent: an ack retried
      // after a lost reply finds nothing and still succeeds.
      auto qit = outputs_.find(query_id);
      if (qit != outputs_.end()) qit->second.erase(token);
      auto sit = staged_.find(query_id);
      if (sit != staged_.end()) sit->second.erase(token);
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kObserveAggregation:
    case MsgType::kObserveFiltering: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(std::vector<EncryptedItem> items,
                              DecodeItems(&reader));
      TCELLS_ASSIGN_OR_RETURN(ssi::Ssi * storage, hub_.StorageFor(query_id));
      if (static_cast<MsgType>(type_byte) == MsgType::kObserveAggregation) {
        storage->ObserveAggregationItems(items);
      } else {
        storage->ObserveFilteringItems(items);
      }
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kDeliverResult: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(std::vector<EncryptedItem> items,
                              DecodeItems(&reader));
      results_[query_id] = std::move(items);
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kFetchResult: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      auto it = results_.find(query_id);
      if (it == results_.end()) {
        return Status::NotFound("no delivered result for query");
      }
      return EncodeReplyOk(EncodeItems(it->second));
    }
    case MsgType::kAdversaryView: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(ssi::Ssi * storage, hub_.StorageFor(query_id));
      Bytes body;
      storage->adversary_view().EncodeTo(&body);
      return EncodeReplyOk(body);
    }
    case MsgType::kPostEpochBlock: {
      // Opaque to the SSI: the block is broadcast-encrypted key material the
      // node merely stores and serves. Later posts overwrite earlier ones —
      // the authority always publishes the full current window.
      TCELLS_ASSIGN_OR_RETURN(epoch_block_,
                              reader.GetRaw(reader.remaining()));
      return EncodeReplyOk(EmptyBody());
    }
    case MsgType::kFetchEpochBlock: {
      // The tds_id exists only to shard-route and fault-key the fetch; the
      // reply is the same latest block for every caller.
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      (void)tds_id;
      if (epoch_block_.empty()) {
        return Status::NotFound("no epoch block published");
      }
      return EncodeReplyOk(epoch_block_);
    }
    case MsgType::kRetire: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      // Drop every transfer remnant of the query, so lost partitions do not
      // outlive it inside the SSI.
      collected_taken_.erase(query_id);
      staged_.erase(query_id);
      outputs_.erase(query_id);
      results_.erase(query_id);
      TCELLS_RETURN_IF_ERROR(hub_.Retire(query_id));
      return EncodeReplyOk(EmptyBody());
    }
  }
  return Status::Corruption("unknown SSI message type");
}

}  // namespace tcells::net
