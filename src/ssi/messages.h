// Wire messages exchanged through the SSI. Everything the SSI can see is in
// these structs; everything sensitive is inside `blob` ciphertexts.
#ifndef TCELLS_SSI_MESSAGES_H_
#define TCELLS_SSI_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/result.h"
#include "crypto/encryption.h"
#include "storage/tuple.h"

namespace tcells::ssi {

/// An encrypted unit flowing through the SSI: a collection tuple, a partial
/// aggregation, or a final result row. `routing_tag`, when present, is the
/// only cleartext channel a protocol deliberately exposes to the SSI for
/// partitioning: Det_Enc(A_G) bytes (Noise protocols), h(bucketId) (ED_Hist
/// phase 1) or Det_Enc(group) (ED_Hist phase 2). S_Agg and the basic
/// protocol expose no tag at all.
struct EncryptedItem {
  Bytes blob;
  std::optional<Bytes> routing_tag;

  size_t WireSize() const {
    return blob.size() + (routing_tag ? routing_tag->size() : 0);
  }

  /// Wire codec (for transports between real processes; the in-process
  /// simulation passes the structs directly).
  void EncodeTo(Bytes* out) const;
  static Result<EncryptedItem> DecodeFrom(::tcells::ByteReader* reader);

  /// Field equality is wire equality (the codec is lossless), so integrity
  /// checks can compare items directly instead of re-encoding and hashing.
  friend bool operator==(const EncryptedItem& a, const EncryptedItem& b) {
    return a.blob == b.blob && a.routing_tag == b.routing_tag;
  }
};

/// Kinds of plaintext payloads found inside an EncryptedItem blob once a TDS
/// decrypts it. The SSI can never read this byte.
enum class PayloadKind : uint8_t {
  kTrueTuple = 0,   ///< a real collection tuple
  kDummyTuple = 1,  ///< §3.2: empty result or access denied
  kFakeTuple = 2,   ///< Noise protocols' noise
  kPartialAgg = 3,  ///< serialized GroupedAggregation
  kResultRow = 4,   ///< final result row under k1
};

/// Serializes a payload into `out` (overwritten; capacity reused): kind
/// byte, u32 body length, body, then zero padding up to `pad_to` total bytes
/// (0 = no padding). Padding makes dummy/fake payloads the same plaintext
/// length as true ones, so that ciphertext lengths leak nothing.
void EncodePayload(PayloadKind kind, std::span<const uint8_t> body,
                   size_t pad_to, Bytes* out);

/// A decoded payload. `body` is a view into the buffer handed to
/// DecodePayload and is valid only while that buffer is unchanged, so the
/// TDS open paths never copy a body out of their decryption scratch.
struct PayloadView {
  PayloadKind kind;
  std::span<const uint8_t> body;
};
Result<PayloadView> DecodePayload(std::span<const uint8_t> payload);

/// Batch-opens every item blob under `enc`: each plaintext lives in `arena`
/// and `plains` is filled with views into it, so a warmed arena makes the
/// whole open allocation-free. The views are valid until the arena's next
/// Reset(); the caller owns that lifetime (the TDS resets once per
/// partition). Returns the first decryption failure.
Status OpenAll(const crypto::NDetEnc& enc,
               std::span<const EncryptedItem> items, Arena* arena,
               std::vector<std::span<const uint8_t>>* plains);

/// Public key-establishment material of one dynamically-keyed query (see
/// docs/KEYS.md): the key epoch the querier derived from plus a fresh nonce.
/// Everything here is cleartext by design — the per-query keys k1q/k2q are
/// derived from the *secret* epoch master secret, which the SSI never holds,
/// so publishing (epoch, query_id, nonce) reveals nothing.
struct QueryKeyPosting {
  uint32_t epoch = 0;
  uint64_t query_id = 0;
  Bytes nonce;  ///< 16 fresh bytes drawn by the querier per query

  static constexpr size_t kNonceSize = 16;

  void EncodeTo(Bytes* out) const;
  static Result<QueryKeyPosting> DecodeFrom(::tcells::ByteReader* reader);

  friend bool operator==(const QueryKeyPosting& a, const QueryKeyPosting& b) {
    return a.epoch == b.epoch && a.query_id == b.query_id &&
           a.nonce == b.nonce;
  }
};

/// What the querier posts on the SSI (§3.2 step 1): the encrypted query, the
/// querier's credential (signed by an authority), and the SIZE clause in
/// cleartext so the SSI can evaluate it. A dynamically-keyed query also
/// carries its public QueryKeyPosting; statically-keyed posts encode
/// byte-identically to the pre-key-management wire format.
struct QueryPost {
  uint64_t query_id = 0;
  Bytes encrypted_query;         ///< nDet_Enc_k1(SQL text)
  std::string querier_id;        ///< cleartext querier identity
  Bytes credential_mac;          ///< authority MAC over querier_id
  std::optional<uint64_t> size_max_tuples;
  std::optional<uint64_t> size_max_duration_ticks;
  std::optional<QueryKeyPosting> key_posting;  ///< dynamic key mode only

  Bytes Encode() const;
  static Result<QueryPost> Decode(const Bytes& data);
};

/// A chunk of the covering result handed to one TDS.
struct Partition {
  std::vector<EncryptedItem> items;

  uint64_t WireSize() const {
    uint64_t n = 0;
    for (const auto& item : items) n += item.WireSize();
    return n;
  }

  Bytes Encode() const;
  static Result<Partition> Decode(const Bytes& data);
};

}  // namespace tcells::ssi

#endif  // TCELLS_SSI_MESSAGES_H_
