#include "ssi/messages.h"

#include <algorithm>

namespace tcells::ssi {

void EncryptedItem::EncodeTo(Bytes* out) const {
  ByteWriter w(out);
  w.PutU8(routing_tag ? 1 : 0);
  if (routing_tag) w.PutBytes(*routing_tag);
  w.PutBytes(blob);
}

Result<EncryptedItem> EncryptedItem::DecodeFrom(ByteReader* reader) {
  EncryptedItem item;
  TCELLS_ASSIGN_OR_RETURN(uint8_t has_tag, reader->GetU8());
  if (has_tag > 1) return Status::Corruption("bad item tag flag");
  if (has_tag) {
    TCELLS_ASSIGN_OR_RETURN(Bytes tag, reader->GetBytes());
    item.routing_tag = std::move(tag);
  }
  TCELLS_ASSIGN_OR_RETURN(item.blob, reader->GetBytes());
  return item;
}

void QueryKeyPosting::EncodeTo(Bytes* out) const {
  ByteWriter w(out);
  w.PutU32(epoch);
  w.PutU64(query_id);
  w.PutBytes(nonce);
}

Result<QueryKeyPosting> QueryKeyPosting::DecodeFrom(ByteReader* reader) {
  QueryKeyPosting posting;
  TCELLS_ASSIGN_OR_RETURN(posting.epoch, reader->GetU32());
  TCELLS_ASSIGN_OR_RETURN(posting.query_id, reader->GetU64());
  TCELLS_ASSIGN_OR_RETURN(posting.nonce, reader->GetBytes());
  if (posting.nonce.size() != kNonceSize) {
    return Status::Corruption("key posting nonce must be 16 bytes");
  }
  return posting;
}

Bytes QueryPost::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.PutU64(query_id);
  w.PutBytes(encrypted_query);
  w.PutString(querier_id);
  w.PutBytes(credential_mac);
  w.PutU8(static_cast<uint8_t>((size_max_tuples ? 1 : 0) |
                               (size_max_duration_ticks ? 2 : 0) |
                               (key_posting ? 4 : 0)));
  if (size_max_tuples) w.PutU64(*size_max_tuples);
  if (size_max_duration_ticks) w.PutU64(*size_max_duration_ticks);
  if (key_posting) key_posting->EncodeTo(&out);
  return out;
}

Result<QueryPost> QueryPost::Decode(const Bytes& data) {
  ByteReader reader(data);
  QueryPost post;
  TCELLS_ASSIGN_OR_RETURN(post.query_id, reader.GetU64());
  TCELLS_ASSIGN_OR_RETURN(post.encrypted_query, reader.GetBytes());
  TCELLS_ASSIGN_OR_RETURN(post.querier_id, reader.GetString());
  TCELLS_ASSIGN_OR_RETURN(post.credential_mac, reader.GetBytes());
  TCELLS_ASSIGN_OR_RETURN(uint8_t flags, reader.GetU8());
  if (flags > 7) return Status::Corruption("bad query post flags");
  if (flags & 1) {
    TCELLS_ASSIGN_OR_RETURN(uint64_t v, reader.GetU64());
    post.size_max_tuples = v;
  }
  if (flags & 2) {
    TCELLS_ASSIGN_OR_RETURN(uint64_t v, reader.GetU64());
    post.size_max_duration_ticks = v;
  }
  if (flags & 4) {
    TCELLS_ASSIGN_OR_RETURN(QueryKeyPosting posting,
                            QueryKeyPosting::DecodeFrom(&reader));
    if (posting.query_id != post.query_id) {
      return Status::Corruption("key posting query id mismatch");
    }
    post.key_posting = std::move(posting);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after query post");
  }
  return post;
}

Bytes Partition::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.PutU32(static_cast<uint32_t>(items.size()));
  for (const auto& item : items) item.EncodeTo(&out);
  return out;
}

Result<Partition> Partition::Decode(const Bytes& data) {
  ByteReader reader(data);
  Partition partition;
  // Smallest possible item is 5 bytes (tag flag + empty blob length), so a
  // count larger than remaining/5 cannot be satisfied by the buffer.
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader.GetCountU32(5));
  partition.items.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TCELLS_ASSIGN_OR_RETURN(EncryptedItem item,
                            EncryptedItem::DecodeFrom(&reader));
    partition.items.push_back(std::move(item));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after partition");
  }
  return partition;
}

void EncodePayload(PayloadKind kind, std::span<const uint8_t> body,
                   size_t pad_to, Bytes* out) {
  out->clear();
  out->reserve(std::max(pad_to, 5 + body.size()));
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU32(static_cast<uint32_t>(body.size()));
  w.PutRaw(body.data(), body.size());
  if (out->size() < pad_to) out->resize(pad_to, 0);
}

Result<PayloadView> DecodePayload(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  TCELLS_ASSIGN_OR_RETURN(uint8_t kind, reader.GetU8());
  if (kind > static_cast<uint8_t>(PayloadKind::kResultRow)) {
    return Status::Corruption("unknown payload kind");
  }
  TCELLS_ASSIGN_OR_RETURN(uint32_t body_size, reader.GetU32());
  if (body_size > reader.remaining()) {
    return Status::Corruption("payload body overruns buffer");
  }
  PayloadView view;
  view.kind = static_cast<PayloadKind>(kind);
  view.body = payload.subspan(payload.size() - reader.remaining(), body_size);
  return view;
}

Status OpenAll(const crypto::NDetEnc& enc,
               std::span<const EncryptedItem> items, Arena* arena,
               std::vector<std::span<const uint8_t>>* plains) {
  plains->clear();
  plains->reserve(items.size());
  for (const auto& item : items) {
    if (item.blob.size() < crypto::NDetEnc::kOverhead) {
      return Status::Corruption("nDet ciphertext too short");
    }
    const size_t plain_size = item.blob.size() - crypto::NDetEnc::kOverhead;
    uint8_t* out = arena->Allocate(plain_size, 1);
    TCELLS_RETURN_IF_ERROR(enc.Decrypt(item.blob, out));
    plains->emplace_back(out, plain_size);
  }
  return Status::OK();
}

}  // namespace tcells::ssi
