#include "ssi/querybox.h"

namespace tcells::ssi {

Status QueryboxHub::Post(QueryPost post, std::optional<uint64_t> personal_tds) {
  uint64_t id = post.query_id;
  if (queries_.count(id)) {
    return Status::InvalidArgument("duplicate query id: " + std::to_string(id));
  }
  ActiveQuery active;
  active.encoded_post = post.Encode();
  active.personal_tds = personal_tds;
  active.storage = std::make_unique<Ssi>();
  active.storage->PostQuery(std::move(post));
  queries_.emplace(id, std::move(active));
  return Status::OK();
}

Status QueryboxHub::PostGlobal(QueryPost post) {
  return Post(std::move(post), std::nullopt);
}

Status QueryboxHub::PostPersonal(uint64_t tds_id, QueryPost post) {
  return Post(std::move(post), tds_id);
}

std::vector<const Bytes*> QueryboxHub::Fetch(uint64_t tds_id) const {
  std::vector<const Bytes*> out;
  for (const auto& [id, active] : queries_) {
    if (active.personal_tds && *active.personal_tds != tds_id) continue;
    if (active.served.count(tds_id)) continue;
    out.push_back(&active.encoded_post);
  }
  return out;
}

Result<QueryboxHub::ActiveQuery*> QueryboxHub::Find(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("no active query " + std::to_string(query_id));
  }
  return &it->second;
}

Status QueryboxHub::Acknowledge(uint64_t tds_id, uint64_t query_id) {
  TCELLS_ASSIGN_OR_RETURN(ActiveQuery * active, Find(query_id));
  active->served.try_emplace(tds_id, Served::kAcknowledged);
  return Status::OK();
}

Result<bool> QueryboxHub::UploadCollection(uint64_t tds_id, uint64_t query_id,
                                           std::vector<EncryptedItem> items) {
  TCELLS_ASSIGN_OR_RETURN(ActiveQuery * active, Find(query_id));
  Served& served =
      active->served.try_emplace(tds_id, Served::kAcknowledged).first->second;
  if (served == Served::kAcknowledged) {
    // Atomic check-then-receive: a TDS whose upload raced the SIZE bound
    // still counts as having served the query.
    const bool accepted = !active->storage->SizeReached();
    if (accepted) active->storage->ReceiveCollectionItems(std::move(items));
    served = accepted ? Served::kAccepted : Served::kDiscarded;
  }
  return served == Served::kAccepted;
}

size_t QueryboxHub::NumAcknowledged(uint64_t query_id) const {
  auto it = queries_.find(query_id);
  return it == queries_.end() ? 0 : it->second.served.size();
}

Result<Ssi*> QueryboxHub::StorageFor(uint64_t query_id) {
  TCELLS_ASSIGN_OR_RETURN(ActiveQuery * active, Find(query_id));
  return active->storage.get();
}

Status QueryboxHub::Retire(uint64_t query_id) {
  if (queries_.erase(query_id) == 0) {
    return Status::NotFound("no active query " + std::to_string(query_id));
  }
  return Status::OK();
}

}  // namespace tcells::ssi
