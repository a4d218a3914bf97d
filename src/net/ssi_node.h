// SsiNode: the server side of the SSI RPC surface. It owns the querybox hub
// (and through it every active query's storage + adversary view) plus the
// transient transfer state the framed protocol needs — staged partitions
// TDSs download, round outputs they upload, and delivered results the
// querier fetches. Handle() is the single entry point: one decoded request
// frame in, one reply frame out, dispatched under a mutex so the node can
// serve the TCP loop thread and in-process callers alike.
#ifndef TCELLS_NET_SSI_NODE_H_
#define TCELLS_NET_SSI_NODE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "net/channel.h"
#include "ssi/querybox.h"

namespace tcells::net {

class SsiNode {
 public:
  /// Processes one request frame — a single call or a multi-call batch
  /// envelope (ssi_wire.h); batched calls dispatch in frame order under one
  /// mutex hold and reply as one batch frame. A non-OK return means the
  /// request frame itself could not be decoded (transports drop the
  /// connection); application-level failures are encoded inside the OK
  /// reply envelope.
  Result<Bytes> Handle(const Bytes& request);

  /// Adapts Handle into the transport-facing handler type.
  Handler handler() {
    return [this](const Bytes& request) { return Handle(request); };
  }

  /// Active queries in the hub (for tests / diagnostics).
  size_t num_active_queries() const;

 private:
  /// One single-call frame under mu_: dispatch + error-envelope wrapping.
  Result<Bytes> HandleOne(const Bytes& request);
  Result<Bytes> Dispatch(const Bytes& request);

  mutable std::mutex mu_;
  ssi::QueryboxHub hub_;
  /// query_id → encoded body of the first kTakeCollected reply. The take
  /// drains the storage, so a duplicate delivery (transport retry after a
  /// lost reply) must replay the same bytes instead of an empty partition.
  std::map<uint64_t, Bytes> collected_taken_;
  /// query_id → token → partition staged for TDS download.
  std::map<uint64_t, std::map<uint64_t, ssi::Partition>> staged_;
  /// query_id → token → round output uploaded by the processing TDS.
  std::map<uint64_t, std::map<uint64_t, ssi::Partition>> outputs_;
  /// query_id → final result items awaiting querier download.
  std::map<uint64_t, std::vector<ssi::EncryptedItem>> results_;
  /// Latest published key-epoch block (encoded keys::EpochBlock, opaque
  /// here). Deliberately NOT per-query and NOT touched by kRetire: the key
  /// schedule outlives every query.
  Bytes epoch_block_;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_NODE_H_
