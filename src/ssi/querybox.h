// Queryboxes (§3.1): "SSI can maintain personal queryboxes where each TDS
// receives queries directed to it, and a global querybox for queries directed
// to the crowd." The hub tracks several concurrent active queries, each with
// its own temporary storage (Ssi instance), and one hashed record of which
// TDS has already served which query and with what upload verdict.
#ifndef TCELLS_SSI_QUERYBOX_H_
#define TCELLS_SSI_QUERYBOX_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ssi/messages.h"
#include "ssi/ssi.h"

namespace tcells::ssi {

class QueryboxHub {
 public:
  /// Posts a query addressed to the whole crowd. Fails on duplicate id.
  Status PostGlobal(QueryPost post);

  /// Posts a query addressed to one TDS only (e.g. "get the monthly
  /// consumption of consumer C").
  Status PostPersonal(uint64_t tds_id, QueryPost post);

  /// The posts a connecting TDS should download, wire-encoded once at post
  /// time: all global ones plus its personal ones, minus those it has
  /// already served.
  std::vector<const Bytes*> Fetch(uint64_t tds_id) const;

  /// Marks a query as served by this TDS (it will not be fetched again).
  /// NotFound when the query is not active.
  Status Acknowledge(uint64_t tds_id, uint64_t query_id);

  /// One TDS's collection upload, which also marks the query served by it.
  /// The first upload is stored unless the SIZE bound was reached while it
  /// was in flight (then it is discarded); a duplicate delivery (a transport
  /// retry after a lost reply) replays that first verdict and stores
  /// nothing. Returns whether the contribution was accepted; NotFound when
  /// the query is not active.
  Result<bool> UploadCollection(uint64_t tds_id, uint64_t query_id,
                                std::vector<EncryptedItem> items);

  /// Number of distinct TDSs that have acknowledged the query (0 when the
  /// query is unknown). A global query is fully served once this reaches the
  /// fleet size; a personal one once it reaches 1.
  size_t NumAcknowledged(uint64_t query_id) const;

  /// Per-query temporary storage area / protocol state.
  Result<Ssi*> StorageFor(uint64_t query_id);

  /// Closes a finished query and frees its storage. NotFound when the query
  /// is not active.
  Status Retire(uint64_t query_id);

  size_t num_active() const { return queries_.size(); }

 private:
  /// How a TDS served a query: acknowledged without an upload yet, or the
  /// verdict of its first upload.
  enum class Served : uint8_t { kAcknowledged, kAccepted, kDiscarded };

  struct ActiveQuery {
    Bytes encoded_post;
    std::optional<uint64_t> personal_tds;  // nullopt = global
    std::unique_ptr<Ssi> storage;
    std::unordered_map<uint64_t, Served> served;
  };

  Status Post(QueryPost post, std::optional<uint64_t> personal_tds);
  /// The active query, or NotFound.
  Result<ActiveQuery*> Find(uint64_t query_id);

  std::map<uint64_t, ActiveQuery> queries_;
};

}  // namespace tcells::ssi

#endif  // TCELLS_SSI_QUERYBOX_H_
