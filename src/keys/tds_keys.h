// TdsKeyState: the per-TDS view of the dynamic key schedule.
//
// A TDS is burned with its broadcast device keys at enrollment and learns
// epoch secrets exclusively by fetching the latest EpochBlock from the SSI
// (through an EpochBlockSource) and opening it. The state never trusts a
// block blindly: a block that fails to decode, fails broadcast decryption
// (the TDS is revoked), fails body authentication (a forged rollover), or
// whose sealed inner epoch disagrees with its public epoch is ignored, and
// the TDS keeps operating on the last good window — so the worst a hostile
// block source can do is pin the TDS to a stale epoch, which the authority's
// admission check then surfaces as rejected contributions rather than wrong
// answers.
//
// Thread-safety: all methods may be called concurrently (collection serving
// runs on a thread pool).
#ifndef TCELLS_KEYS_TDS_KEYS_H_
#define TCELLS_KEYS_TDS_KEYS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/broadcast.h"
#include "crypto/keystore.h"
#include "keys/epoch.h"
#include "ssi/messages.h"

namespace tcells::keys {

/// Where a TDS fetches the latest published EpochBlock from. The engine
/// adapts its SSI client behind this so src/keys stays transport-agnostic.
class EpochBlockSource {
 public:
  virtual ~EpochBlockSource() = default;
  virtual Result<Bytes> FetchLatestBlock(uint64_t tds_id) = 0;
};

class TdsKeyState {
 public:
  /// Session KeyStores kept per TDS, at most: one per query the default
  /// scheduler runs at once. Further postings evict the least recently used
  /// entry, which costs that query a re-derivation, never a contribution.
  static constexpr size_t kSessionCacheCapacity = 4;

  /// `source` is borrowed and must outlive the state.
  TdsKeyState(uint64_t tds_id, crypto::BroadcastDeviceKeys device_keys,
              EpochBlockSource* source);

  uint64_t tds_id() const { return tds_id_; }

  /// Fetches the latest block and adopts its window when it is valid and
  /// newer than what the TDS already holds. Failures leave the state
  /// untouched: NotFound means the TDS is excluded from the cover (revoked),
  /// Corruption means the block was malformed or forged.
  Status Refresh();

  /// The session KeyStore of a query posting, refreshing once on a window
  /// miss. NotFound when the posting's epoch is unreachable for this TDS
  /// (revoked before the epoch, or the window rolled past it).
  Result<std::shared_ptr<const crypto::KeyStore>> KeysFor(
      const ssi::QueryKeyPosting& posting);

  /// Tags one collection upload. Refreshes first (best-effort) so an honest
  /// TDS always authenticates under the newest epoch it can reach; a revoked
  /// TDS is stuck with its pre-revocation epoch and the authority rejects
  /// the stale tag.
  Result<ContributionTag> Tag(uint64_t query_id, const Bytes& digest);

  /// The newest epoch this TDS has adopted; NotFound before the first
  /// successful Refresh.
  Result<uint32_t> known_epoch() const;

  /// Session KeyStores currently cached (at most kSessionCacheCapacity).
  size_t session_cache_size() const;

 private:
  struct CachedKeys {
    uint32_t epoch = 0;
    uint64_t last_use = 0;
    std::shared_ptr<const crypto::KeyStore> keys;
  };

  Status RefreshLocked();

  const uint64_t tds_id_;
  const crypto::BroadcastDeviceKeys device_keys_;
  EpochBlockSource* const source_;

  mutable std::mutex mu_;
  bool has_window_ = false;
  EpochSecrets window_;  ///< last good window; back() is the newest secret
  /// Session-key cache keyed by the encoded posting, so every partition of
  /// one query derives once. Entries whose epoch leaves the window go when
  /// the newer window is adopted; beyond kSessionCacheCapacity the least
  /// recently used goes.
  std::map<Bytes, CachedKeys> session_cache_;
  uint64_t use_clock_ = 0;
};

}  // namespace tcells::keys

#endif  // TCELLS_KEYS_TDS_KEYS_H_
