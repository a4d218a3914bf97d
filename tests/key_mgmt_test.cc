// Dynamic key-management suite (`ctest -L keys`, docs/KEYS.md):
//
//   * complete-subtree cover-set properties at fleet scale (up to 64k ids):
//     random revocation sets partition exactly, the r*log2(N/r) header bound
//     holds, revoked devices learn nothing;
//   * hostile epoch-block decoding: truncation, restamping, forged bodies
//     and stale replays are all refused without corrupting the TDS state;
//   * contribution admission: round trip, forged digests, stale epochs and
//     revoked devices;
//   * the static/dynamic differential: KeyMode::kDynamic produces the
//     byte-identical result table and adversary-view statistics of the
//     static engine, for every protocol and several worlds;
//   * the churn/rollover scenario suite: revocation mid-query (pinned
//     rejection count), epoch rollover under an in-flight multi-round
//     S_Agg, revocation under dropout churn — all oracle-anchored;
//   * the keys determinism grid: dynamic-mode runs are bit-identical across
//     worker-thread counts, shard counts and transport backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/broadcast.h"
#include "crypto/keystore.h"
#include "keys/epoch.h"
#include "keys/key_authority.h"
#include "keys/tds_keys.h"
#include "net/channel.h"
#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "sim/campaign.h"
#include "ssi/messages.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "tds/tds.h"
#include "workload/generic.h"

namespace tcells {
namespace {

using crypto::BroadcastChannel;
using protocol::ProtocolKind;
using protocol::ProtocolKindToString;
using protocol::RunOutcome;

// ---------------------------------------------------------------------------
// Complete-subtree cover-set properties at fleet scale (satellite a).

/// The device-index range [lo, hi] of the leaves under heap node `node` in a
/// tree with `capacity` leaves (leaves are nodes capacity..2*capacity-1).
std::pair<size_t, size_t> LeafRange(uint32_t node, size_t capacity) {
  uint64_t lo = node;
  uint64_t hi = node;
  while (lo < capacity) {
    lo = lo * 2;
    hi = hi * 2 + 1;
  }
  return {static_cast<size_t>(lo - capacity),
          static_cast<size_t>(hi - capacity)};
}

std::set<size_t> RandomRevoked(size_t count, size_t num_devices, Rng* rng) {
  std::set<size_t> revoked;
  while (revoked.size() < count) {
    revoked.insert(static_cast<size_t>(rng->NextBelow(num_devices)));
  }
  return revoked;
}

// The cover of any random revocation set is an exact partition of the
// non-revoked devices — no revoked leaf, no padding leaf, no overlap, no
// gap — for fleets up to 64k ids, padded and power-of-two alike.
TEST(CompleteSubtreeProperty, RandomRevocationSetsPartitionExactly) {
  Rng rng(0x6b657973);
  for (size_t num_devices : {size_t{96}, size_t{1000}, size_t{65536}}) {
    auto channel =
        BroadcastChannel::Create(rng.NextBytes(16), num_devices).ValueOrDie();
    const size_t capacity = channel.capacity();
    for (size_t r : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                     num_devices / 16}) {
      SCOPED_TRACE("devices=" + std::to_string(num_devices) +
                   " revoked=" + std::to_string(r));
      std::set<size_t> revoked = RandomRevoked(r, num_devices, &rng);
      std::vector<uint32_t> cover = channel.Cover(revoked);
      std::vector<bool> covered(num_devices, false);
      for (uint32_t node : cover) {
        auto [lo, hi] = LeafRange(node, capacity);
        for (size_t i = lo; i <= hi; ++i) {
          ASSERT_LT(i, num_devices) << "cover includes a padding leaf";
          ASSERT_EQ(revoked.count(i), 0u) << "cover includes revoked " << i;
          ASSERT_FALSE(covered[i]) << "cover subtrees overlap at " << i;
          covered[i] = true;
        }
      }
      for (size_t i = 0; i < num_devices; ++i) {
        ASSERT_EQ(covered[i], revoked.count(i) == 0) << "gap at device " << i;
      }
    }
  }
}

// The NNL header bound at 64k devices: |cover| <= r * log2(N/r), and the
// empty revocation set needs exactly the root.
TEST(CompleteSubtreeProperty, CoverSizeWithinNnlBoundAt64k) {
  constexpr size_t kDevices = 65536;
  Rng rng(0x626f756e64);
  auto channel =
      BroadcastChannel::Create(rng.NextBytes(16), kDevices).ValueOrDie();

  EXPECT_EQ(channel.Cover({}), std::vector<uint32_t>{1});

  for (size_t r : {size_t{1}, size_t{16}, size_t{256}, size_t{1024},
                   size_t{4096}}) {
    SCOPED_TRACE("revoked=" + std::to_string(r));
    std::set<size_t> revoked = RandomRevoked(r, kDevices, &rng);
    double bound =
        static_cast<double>(r) *
        std::log2(static_cast<double>(kDevices) / static_cast<double>(r));
    EXPECT_LE(channel.Cover(revoked).size(),
              static_cast<size_t>(bound) + 1);
  }
}

// Mass revocation with one broadcast at scale: every revoked device fails to
// unwrap, every surviving device recovers the payload.
TEST(CompleteSubtreeProperty, RevokedDevicesLearnNothingAtScale) {
  constexpr size_t kDevices = 65536;
  Rng rng(0x7265766f);
  auto channel =
      BroadcastChannel::Create(rng.NextBytes(16), kDevices).ValueOrDie();
  std::set<size_t> revoked = RandomRevoked(1000, kDevices, &rng);
  Bytes payload = rng.NextBytes(48);
  auto message = channel.Encrypt(payload, revoked, &rng).ValueOrDie();

  size_t checked_revoked = 0;
  for (size_t device : revoked) {
    if (++checked_revoked > 16) break;
    auto keys = channel.DeviceKeys(device).ValueOrDie();
    EXPECT_TRUE(BroadcastChannel::Decrypt(message, keys).status().IsNotFound())
        << "revoked device " << device << " unwrapped the broadcast";
  }
  size_t checked_ok = 0;
  for (size_t device = 0; device < kDevices && checked_ok < 16;
       device += 4099) {
    if (revoked.count(device)) continue;
    ++checked_ok;
    auto keys = channel.DeviceKeys(device).ValueOrDie();
    EXPECT_EQ(BroadcastChannel::Decrypt(message, keys).ValueOrDie(), payload);
  }
}

// ---------------------------------------------------------------------------
// Hostile epoch-block and epoch-secrets decoding (satellite d).

TEST(EpochCodec, EveryTruncationOfARealBlockIsRejected) {
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x21), 16, 7).ValueOrDie();
  Bytes good = authority->CurrentBlock();
  ASSERT_TRUE(keys::EpochBlock::Decode(good).ok());
  for (size_t len = 0; len < good.size(); ++len) {
    Bytes prefix(good.begin(), good.begin() + len);
    EXPECT_FALSE(keys::EpochBlock::Decode(prefix).ok())
        << "truncation to " << len << " bytes decoded";
  }
}

TEST(EpochCodec, ZeroCoverAndNodeZeroAndTrailingBytesAreCorruption) {
  Bytes zero_cover;
  {
    ByteWriter w(&zero_cover);
    w.PutU32(5);  // epoch
    w.PutU32(0);  // header entries
  }
  EXPECT_TRUE(keys::EpochBlock::Decode(zero_cover).status().IsCorruption());

  Bytes node_zero;
  {
    ByteWriter w(&node_zero);
    w.PutU32(5);
    w.PutU32(1);
    w.PutU32(0);  // node id 0 is outside the heap numbering
    w.PutBytes(Bytes(4, 0x11));
    w.PutBytes(Bytes(8, 0x22));
  }
  EXPECT_TRUE(keys::EpochBlock::Decode(node_zero).status().IsCorruption());

  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x22), 8, 9).ValueOrDie();
  Bytes trailing = authority->CurrentBlock();
  trailing.push_back(0x00);
  EXPECT_TRUE(keys::EpochBlock::Decode(trailing).status().IsCorruption());
}

TEST(EpochCodec, EpochSecretsRoundTripAndHostileWindows) {
  std::vector<Bytes> secrets;
  for (uint8_t i = 0; i < 4; ++i) secrets.push_back(Bytes(16, i));
  Bytes good = keys::EncodeEpochSecrets(9, secrets);
  auto window = keys::DecodeEpochSecrets(good).ValueOrDie();
  EXPECT_EQ(window.inner_epoch, 9u);
  ASSERT_EQ(window.secrets.size(), 4u);
  // back() is epoch 9, front() epoch 6; epochs outside are unreachable.
  EXPECT_EQ(*window.SecretFor(9), Bytes(16, 3));
  EXPECT_EQ(*window.SecretFor(6), Bytes(16, 0));
  EXPECT_EQ(window.SecretFor(5), nullptr);
  EXPECT_EQ(window.SecretFor(10), nullptr);

  // Truncation anywhere is an error, never a short read.
  for (size_t len = 0; len < good.size(); ++len) {
    Bytes prefix(good.begin(), good.begin() + len);
    EXPECT_FALSE(keys::DecodeEpochSecrets(prefix).ok());
  }

  Bytes trailing = good;
  trailing.push_back(0xff);
  EXPECT_TRUE(keys::DecodeEpochSecrets(trailing).status().IsCorruption());

  // An empty window, an oversized window and a window that would predate
  // epoch 0 are all corrupt.
  EXPECT_TRUE(keys::DecodeEpochSecrets(keys::EncodeEpochSecrets(3, {}))
                  .status()
                  .IsCorruption());
  std::vector<Bytes> oversized(keys::kEpochWindow + 1, Bytes(16, 0xaa));
  EXPECT_TRUE(
      keys::DecodeEpochSecrets(keys::EncodeEpochSecrets(20, oversized))
          .status()
          .IsCorruption());
  std::vector<Bytes> predating(3, Bytes(16, 0xbb));
  EXPECT_TRUE(keys::DecodeEpochSecrets(keys::EncodeEpochSecrets(1, predating))
                  .status()
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// TdsKeyState under a hostile block source.

class CannedSource : public keys::EpochBlockSource {
 public:
  Result<Bytes> FetchLatestBlock(uint64_t) override {
    if (fail_) return Status::Unavailable("block source offline");
    return block_;
  }
  void Serve(Bytes block) {
    block_ = std::move(block);
    fail_ = false;
  }
  void Fail() { fail_ = true; }

 private:
  Bytes block_;
  bool fail_ = true;
};

Bytes Restamp(const Bytes& encoded, uint32_t fake_epoch) {
  auto block = keys::EpochBlock::Decode(encoded).ValueOrDie();
  block.epoch = fake_epoch;
  return block.Encode();
}

struct KeyWorld {
  std::unique_ptr<keys::KeyAuthority> authority;
  CannedSource source;
  std::unique_ptr<keys::TdsKeyState> state;

  explicit KeyWorld(uint64_t tds_id, size_t num_devices = 8) {
    authority =
        keys::KeyAuthority::Create(Bytes(16, 0x42), num_devices, 3)
            .ValueOrDie();
    state = std::make_unique<keys::TdsKeyState>(
        tds_id, authority->EnrollDevice(tds_id).ValueOrDie(), &source);
    source.Serve(authority->CurrentBlock());
  }
};

// A rollover block whose public epoch was re-stamped is refused (the sealed
// body disagrees) and the TDS keeps its last good window.
TEST(TdsKeyStateHostile, RestampedRolloverIsRefused) {
  KeyWorld w(/*tds_id=*/3);
  ASSERT_TRUE(w.state->Refresh().ok());
  ASSERT_EQ(w.state->known_epoch().ValueOrDie(), 0u);

  ASSERT_TRUE(w.authority->Rollover().ok());
  w.source.Serve(Restamp(w.authority->CurrentBlock(), 2));
  EXPECT_TRUE(w.state->Refresh().IsCorruption());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 0u);

  // The genuine epoch-1 block is still adoptable afterwards.
  w.source.Serve(w.authority->CurrentBlock());
  EXPECT_TRUE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 1u);
}

// A forged body (bit-flip inside the sealed payload) fails authentication
// and leaves the window untouched; pure garbage fails decoding.
TEST(TdsKeyStateHostile, ForgedBodyAndGarbageAreIgnored) {
  KeyWorld w(/*tds_id=*/5);
  ASSERT_TRUE(w.state->Refresh().ok());

  ASSERT_TRUE(w.authority->Rollover().ok());
  auto block = keys::EpochBlock::Decode(w.authority->CurrentBlock())
                   .ValueOrDie();
  ASSERT_FALSE(block.message.body.empty());
  block.message.body.front() ^= 0xff;
  w.source.Serve(block.Encode());
  EXPECT_FALSE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 0u);

  w.source.Serve(Bytes(64, 0x5a));
  EXPECT_FALSE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 0u);
}

// Replaying the stale epoch-0 block after a rollover is a silent no-op: a
// TDS can never be rolled backwards.
TEST(TdsKeyStateHostile, StaleReplayCannotDowngrade) {
  KeyWorld w(/*tds_id=*/1);
  Bytes epoch0 = w.authority->CurrentBlock();
  ASSERT_TRUE(w.state->Refresh().ok());

  ASSERT_TRUE(w.authority->Rollover().ok());
  w.source.Serve(w.authority->CurrentBlock());
  ASSERT_TRUE(w.state->Refresh().ok());
  ASSERT_EQ(w.state->known_epoch().ValueOrDie(), 1u);

  w.source.Serve(epoch0);
  EXPECT_TRUE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 1u);
}

// An offline source means no window at all: KeysFor and Tag both fail
// loudly instead of inventing keys.
TEST(TdsKeyStateHostile, NoWindowFailsClosed) {
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x42), 8, 3).ValueOrDie();
  CannedSource source;  // never served
  keys::TdsKeyState state(2, authority->EnrollDevice(2).ValueOrDie(),
                          &source);
  Rng rng(5);
  ssi::QueryKeyPosting posting = authority->NewPosting(77, &rng);
  EXPECT_TRUE(state.KeysFor(posting).status().IsNotFound());
  EXPECT_TRUE(
      state.Tag(77, Bytes(32, 0x01)).status().IsFailedPrecondition());
}

// A TDS revoked before a query's epoch cannot even open the query: its
// collection step fails instead of answering, while a current TDS serves the
// same post under the per-query keys the querier holds.
TEST(TdsKeyStateHostile, RevokedTdsCannotServeNewEpochQuery) {
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x42), 8, 3).ValueOrDie();
  CannedSource source;
  source.Serve(authority->CurrentBlock());
  auto credentials = std::make_shared<tds::Authority>(Bytes(16, 0x62));
  auto static_keys = crypto::KeyStore::CreateForTest(5);
  std::vector<std::unique_ptr<keys::TdsKeyState>> states;
  std::vector<std::unique_ptr<tds::TrustedDataServer>> servers;
  for (uint64_t id : {1u, 6u}) {
    states.push_back(std::make_unique<keys::TdsKeyState>(
        id, authority->EnrollDevice(id).ValueOrDie(), &source));
    ASSERT_TRUE(states.back()->Refresh().ok());
    servers.push_back(std::make_unique<tds::TrustedDataServer>(
        id, static_keys, credentials, tds::AccessPolicy::AllowAll()));
    servers.back()->InstallKeyState(states.back().get());
    Rng data_rng(id);
    ASSERT_TRUE(workload::PopulateGenericDb(&servers.back()->db(), id, {},
                                            &data_rng)
                    .ok());
  }
  tds::TrustedDataServer& current = *servers[0];
  tds::TrustedDataServer& revoked = *servers[1];

  ASSERT_TRUE(authority->Revoke({6}).ok());
  source.Serve(authority->CurrentBlock());
  Rng rng(34);
  ssi::QueryKeyPosting posting = authority->NewPosting(1, &rng);
  auto query_keys = authority->QuerierKeysFor(posting).ValueOrDie();
  protocol::Querier querier("op", credentials->Issue("op"), query_keys);
  ssi::QueryPost post =
      querier.MakePost(1, "SELECT grp FROM T", &rng).ValueOrDie();
  post.key_posting = posting;
  tds::CollectionConfig config;
  config.key_posting = posting;

  auto served = current.ProcessCollection(post, config, &rng);
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_FALSE(served->empty());
  EXPECT_TRUE(query_keys->k2_ndet().Decrypt(served->front().blob).ok());
  EXPECT_TRUE(
      revoked.ProcessCollection(post, config, &rng).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Epoch rollover: new keys, old epochs still derivable inside the window.

TEST(KeyAuthorityEpochs, RolloverChangesKeysAndKeepsWindowDerivable) {
  KeyWorld w(/*tds_id=*/2);
  ASSERT_TRUE(w.state->Refresh().ok());
  Rng rng(22);
  Bytes probe = rng.NextBytes(24);
  ssi::QueryKeyPosting old_posting = w.authority->NewPosting(30, &rng);
  Bytes old_tag =
      w.authority->QuerierKeysFor(old_posting).ValueOrDie()->k2_det().Encrypt(
          probe);

  ASSERT_TRUE(w.authority->Rollover().ok());
  w.source.Serve(w.authority->CurrentBlock());
  // Same query id and nonce, next epoch: unrelated keys.
  ssi::QueryKeyPosting new_posting = old_posting;
  new_posting.epoch = w.authority->current_epoch();
  ASSERT_EQ(new_posting.epoch, old_posting.epoch + 1);
  auto old_keys = w.authority->QuerierKeysFor(old_posting).ValueOrDie();
  auto new_keys = w.authority->QuerierKeysFor(new_posting).ValueOrDie();
  EXPECT_NE(new_keys->k2_det().Encrypt(probe), old_tag);
  Bytes old_ct = old_keys->k1_ndet().Encrypt(probe, &rng);
  EXPECT_FALSE(new_keys->k1_ndet().Decrypt(old_ct).ok());

  // The old epoch re-derives identically on both sides after the rollover.
  EXPECT_EQ(old_keys->k2_det().Encrypt(probe), old_tag);
  auto tds_old = w.state->KeysFor(old_posting).ValueOrDie();
  EXPECT_EQ(tds_old->k1_ndet().Decrypt(old_ct).ValueOrDie(), probe);
  // And the TDS adopts the new epoch on demand.
  auto tds_new = w.state->KeysFor(new_posting).ValueOrDie();
  EXPECT_EQ(tds_new->k2_det().Encrypt(probe),
            new_keys->k2_det().Encrypt(probe));
}

TEST(KeyAuthorityEpochs, BadMasterRejected) {
  EXPECT_TRUE(keys::KeyAuthority::Create(Bytes(8), 8, 3)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(keys::KeyAuthority::Create(Bytes(17), 8, 3)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Contribution admission: round trip, forgery, revocation, stale epochs.

TEST(ContributionAdmission, RoundTripAndForgeryAndRevocation) {
  KeyWorld honest(/*tds_id=*/4);
  ASSERT_TRUE(honest.state->Refresh().ok());
  Bytes digest(32, 0x77);
  auto tag = honest.state->Tag(11, digest).ValueOrDie();
  EXPECT_TRUE(honest.authority->VerifyContribution(tag, 11, digest).ok());

  // Wrong query id, wrong digest, flipped mac: all denied.
  EXPECT_TRUE(honest.authority->VerifyContribution(tag, 12, digest)
                  .IsPermissionDenied());
  EXPECT_TRUE(honest.authority->VerifyContribution(tag, 11, Bytes(32, 0x78))
                  .IsPermissionDenied());
  keys::ContributionTag flipped = tag;
  flipped.mac.front() ^= 0x01;
  EXPECT_TRUE(honest.authority->VerifyContribution(flipped, 11, digest)
                  .IsPermissionDenied());

  // Revocation pins the TDS to epoch 0; its next tag carries the stale
  // epoch and is rejected, while the posting-epoch session keys it already
  // derived stop extending to the new epoch.
  ASSERT_TRUE(honest.authority->Revoke({4}).ok());
  honest.source.Serve(honest.authority->CurrentBlock());
  EXPECT_TRUE(honest.state->Refresh().IsNotFound());
  auto stale = honest.state->Tag(11, digest).ValueOrDie();
  EXPECT_EQ(stale.epoch, 0u);
  EXPECT_TRUE(honest.authority->VerifyContribution(stale, 11, digest)
                  .IsPermissionDenied());

  Rng rng(9);
  ssi::QueryKeyPosting fresh_posting = honest.authority->NewPosting(12, &rng);
  EXPECT_EQ(fresh_posting.epoch, 1u);
  EXPECT_TRUE(honest.state->KeysFor(fresh_posting).status().IsNotFound());
}

// Both sides of the per-query exchange derive the same session keys from
// the public posting, and different postings give unrelated keys.
TEST(ContributionAdmission, PostingDerivesMatchingSessionKeys) {
  KeyWorld w(/*tds_id=*/6);
  ASSERT_TRUE(w.state->Refresh().ok());
  Rng rng(13);
  ssi::QueryKeyPosting posting = w.authority->NewPosting(21, &rng);
  auto querier_keys = w.authority->QuerierKeysFor(posting).ValueOrDie();
  auto tds_keys = w.state->KeysFor(posting).ValueOrDie();
  // KeyStore never exposes raw keys; compare through the derived schemes —
  // the deterministic k2 encryption must agree byte-for-byte, and a k1
  // ciphertext sealed by one side must open on the other.
  Bytes probe = rng.NextBytes(24);
  EXPECT_EQ(querier_keys->k2_det().Encrypt(probe),
            tds_keys->k2_det().Encrypt(probe));
  EXPECT_EQ(querier_keys->k2_hash(), tds_keys->k2_hash());
  Bytes sealed = querier_keys->k1_ndet().Encrypt(probe, &rng);
  EXPECT_EQ(tds_keys->k1_ndet().Decrypt(sealed).ValueOrDie(), probe);

  ssi::QueryKeyPosting other = w.authority->NewPosting(22, &rng);
  auto other_keys = w.authority->QuerierKeysFor(other).ValueOrDie();
  EXPECT_NE(other_keys->k2_det().Encrypt(probe),
            querier_keys->k2_det().Encrypt(probe));
}

// ---------------------------------------------------------------------------
// Static/dynamic engine differential (satellite b): same world, same query,
// both key modes — byte-identical result table and adversary statistics.

constexpr size_t kDiffTds = 24;
constexpr size_t kDiffGroups = 4;

const char* QueryFor(ProtocolKind kind) {
  return kind == ProtocolKind::kBasicSfw
             ? "SELECT grp, val, cat FROM T WHERE cat < 6"
             : "SELECT grp, COUNT(*), SUM(cat), AVG(val), MIN(val), "
               "MAX(val) FROM T GROUP BY grp";
}

struct World {
  std::unique_ptr<protocol::Fleet> fleet;
  std::unique_ptr<protocol::Querier> querier;
  std::shared_ptr<std::vector<storage::Tuple>> domain;
  std::map<storage::Tuple, uint64_t> freq;
};

World MakeWorld(uint64_t seed) {
  workload::GenericOptions gopts;
  gopts.num_tds = kDiffTds;
  gopts.num_groups = kDiffGroups;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 2;
  gopts.seed = 8000 + seed;

  auto keys = crypto::KeyStore::CreateForTest(2028);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x66));
  World w;
  w.fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                        tds::AccessPolicy::AllowAll())
                .ValueOrDie();
  w.querier = std::make_unique<protocol::Querier>(
      "keydiff", authority->Issue("keydiff"), keys);

  w.domain = std::make_shared<std::vector<storage::Tuple>>();
  for (size_t g = 0; g < kDiffGroups; ++g) {
    w.domain->push_back(
        storage::Tuple({storage::Value::String(workload::GroupName(g))}));
  }
  const auto& catalog = w.fleet->at(0)->db().catalog();
  auto count_q =
      sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp", catalog)
          .ValueOrDie();
  for (size_t i = 0; i < w.fleet->size(); ++i) {
    auto rows =
        sql::CollectionTuples(w.fleet->at(i)->db(), count_q).ValueOrDie();
    for (const auto& r : rows) w.freq[storage::Tuple({r.at(0)})] += 1;
  }
  return w;
}

std::unique_ptr<protocol::Protocol> MakeProtocol(ProtocolKind kind,
                                                 const World& w) {
  switch (kind) {
    case ProtocolKind::kBasicSfw:
      return std::make_unique<protocol::BasicSfwProtocol>();
    case ProtocolKind::kSAgg:
      return std::make_unique<protocol::SAggProtocol>();
    case ProtocolKind::kRnfNoise:
      return std::make_unique<protocol::NoiseProtocol>(false, w.domain);
    case ProtocolKind::kCNoise:
      return std::make_unique<protocol::NoiseProtocol>(true, w.domain);
    case ProtocolKind::kEdHist:
      return protocol::EdHistProtocol::FromDistribution(w.freq, 2);
  }
  return nullptr;
}

struct EngineRunConfig {
  KeyMode key_mode = KeyMode::kStatic;
  size_t num_threads = 1;
  size_t num_shards = 1;
  net::TransportKind transport = net::TransportKind::kLoopback;
  /// > 0: the query carries SIZE DURATION this many collection ticks.
  uint64_t duration_ticks = 0;
  /// TDSs revoked at the start of collection tick 1 (dynamic keys only).
  std::vector<uint64_t> revoke_at_tick_1;
};

RunOutcome RunEngine(ProtocolKind kind, uint64_t world_seed,
                     const EngineRunConfig& rc) {
  World w = MakeWorld(world_seed);
  auto protocol = MakeProtocol(kind, w);
  Engine::Config cfg;
  cfg.options.compute_availability = 0.25;
  cfg.options.expected_groups = kDiffGroups;
  cfg.options.seed = 17;
  cfg.options.num_threads = rc.num_threads;
  cfg.num_shards = rc.num_shards;
  cfg.transport = rc.transport;
  cfg.tracing = false;
  cfg.key_mode = rc.key_mode;
  // The engine does not exist until Create returns; the hook reads it
  // through this cell.
  auto engine_cell = std::make_shared<Engine*>(nullptr);
  if (!rc.revoke_at_tick_1.empty()) {
    cfg.options.tick_hook = [engine_cell,
                             ids = rc.revoke_at_tick_1](uint64_t tick) {
      if (tick == 1) {
        EXPECT_TRUE((*engine_cell)->RevokeTds(ids).ok());
      }
    };
  }
  std::string sql = QueryFor(kind);
  if (rc.duration_ticks > 0) {
    sql += " SIZE DURATION " + std::to_string(rc.duration_ticks);
  }
  auto engine = Engine::Create(std::move(w.fleet), cfg).ValueOrDie();
  *engine_cell = engine.get();
  return engine->Run(*protocol, *w.querier, 1, sql).ValueOrDie();
}

/// Row-order-insensitive view of a result table. Some protocols order their
/// output by Det_Enc(group) tags, and those bytes legitimately differ across
/// key modes — the rows themselves must not.
std::vector<std::string> SortedRows(const std::string& table) {
  std::vector<std::string> rows;
  size_t start = 0;
  while (start < table.size()) {
    size_t end = table.find('\n', start);
    if (end == std::string::npos) end = table.size();
    rows.push_back(table.substr(start, end - start));
    start = end + 1;
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Tag values differ across key modes (different HMAC keys), but the
/// multiplicity structure the SSI observes must not.
std::vector<uint64_t> TagCounts(const std::map<Bytes, uint64_t>& histogram) {
  std::vector<uint64_t> counts;
  counts.reserve(histogram.size());
  for (const auto& [tag, count] : histogram) counts.push_back(count);
  std::sort(counts.begin(), counts.end());
  return counts;
}

class KeyModeDifferentialTest
    : public ::testing::TestWithParam<ProtocolKind> {};

// key_mode=dynamic is invisible: byte-identical result table, identical
// adversary-view statistics (blob sizes, item counts, tag multiplicities),
// zero rejections — for every protocol over three worlds.
TEST_P(KeyModeDifferentialTest, DynamicModeIsInvisibleToHonestRuns) {
  ProtocolKind kind = GetParam();
  for (uint64_t seed : {0u, 1u, 2u}) {
    SCOPED_TRACE(std::string(ProtocolKindToString(kind)) + " world=" +
                 std::to_string(seed));
    EngineRunConfig static_rc;
    EngineRunConfig dynamic_rc;
    dynamic_rc.key_mode = KeyMode::kDynamic;
    RunOutcome s = RunEngine(kind, seed, static_rc);
    RunOutcome d = RunEngine(kind, seed, dynamic_rc);

    EXPECT_EQ(SortedRows(s.result.ToString()), SortedRows(d.result.ToString()));
    EXPECT_TRUE(s.result.SameRows(d.result));
    EXPECT_EQ(d.metrics.contributions_rejected, 0u);
    EXPECT_EQ(s.metrics.collection_participants,
              d.metrics.collection_participants);

    EXPECT_EQ(s.adversary.collection_blob_sizes,
              d.adversary.collection_blob_sizes);
    EXPECT_EQ(s.adversary.collection_items, d.adversary.collection_items);
    EXPECT_EQ(s.adversary.aggregation_items, d.adversary.aggregation_items);
    EXPECT_EQ(s.adversary.filtering_items, d.adversary.filtering_items);
    EXPECT_EQ(TagCounts(s.adversary.collection_tag_histogram),
              TagCounts(d.adversary.collection_tag_histogram));
    EXPECT_EQ(TagCounts(s.adversary.aggregation_tag_histogram),
              TagCounts(d.adversary.aggregation_tag_histogram));
  }
}

// Dynamic-mode results stay correct against the plaintext oracle.
TEST_P(KeyModeDifferentialTest, DynamicModeMatchesOracle) {
  ProtocolKind kind = GetParam();
  EngineRunConfig rc;
  rc.key_mode = KeyMode::kDynamic;
  RunOutcome outcome = RunEngine(kind, 0, rc);
  World oracle_world = MakeWorld(0);
  auto oracle =
      protocol::ExecuteReference(*oracle_world.fleet, QueryFor(kind))
          .ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(oracle))
      << "got:\n" << outcome.result.ToString()
      << "want:\n" << oracle.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, KeyModeDifferentialTest,
    ::testing::Values(ProtocolKind::kBasicSfw, ProtocolKind::kSAgg,
                      ProtocolKind::kRnfNoise, ProtocolKind::kCNoise,
                      ProtocolKind::kEdHist),
    [](const auto& info) {
      return std::string(ProtocolKindToString(info.param));
    });

// ---------------------------------------------------------------------------
// Churn/rollover scenario suite (the headline): oracle-anchored campaign
// scenarios driven through sim::RunScenario.

sim::ScenarioOutcome MustRunScenario(const sim::ScenarioSpec& spec,
                                     net::TransportKind backend) {
  auto outcome = sim::RunScenario(spec, backend);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return outcome.ok() ? *outcome : sim::ScenarioOutcome{};
}

sim::ScenarioSpec DynamicSAggSpec(const std::string& name) {
  sim::ScenarioSpec spec;
  spec.name = name;
  spec.protocol = ProtocolKind::kSAgg;
  spec.dynamic_keys = true;
  spec.num_threads = 2;
  return spec;
}

// A TDS revoked mid-query keeps serving under its stale epoch; every one of
// its subsequent uploads is rejected by the admission check — a pinned,
// deterministic count — and the run still completes with the revocation
// visible in the metrics.
TEST(KeyScenarioSuite, RevokedMidQueryContributionsRejectedPinned) {
  sim::ScenarioSpec spec = DynamicSAggSpec("revoke-mid-query");
  spec.duration_ticks = 8;
  spec.revoke_at = {2, 5, 9, 12};
  spec.revoke_at_tick = 1;
  sim::ScenarioOutcome outcome =
      MustRunScenario(spec, net::TransportKind::kLoopback);

  EXPECT_TRUE(outcome.violations.empty())
      << outcome.name << ": " << outcome.violations.front();
  EXPECT_TRUE(outcome.completed);
  // Pinned: with this spec's seed, exactly this many uploads from the four
  // revoked TDSs land after the tick-1 revocation broadcast.
  EXPECT_EQ(outcome.contributions_rejected, 3u);
  EXPECT_FALSE(outcome.clean);  // the rejections are visible, not silent

  // The rejection count is part of the determinism contract: identical
  // across worker-thread counts and transport backends.
  sim::ScenarioSpec serial = spec;
  serial.num_threads = 1;
  EXPECT_EQ(MustRunScenario(serial, net::TransportKind::kLoopback).Canonical(),
            outcome.Canonical());
  EXPECT_EQ(MustRunScenario(spec, net::TransportKind::kTcp).Canonical(),
            outcome.Canonical());
}

// An epoch rollover during an in-flight multi-round S_Agg run: every honest
// TDS re-keys on its next upload, nothing is rejected, and the result still
// matches the plaintext oracle.
TEST(KeyScenarioSuite, RolloverDuringInFlightSAggCompletesCleanly) {
  // The duration is generous enough that, at this seed, every TDS connects
  // before the window closes — so a clean oracle match is required, not just
  // hoped for.
  sim::ScenarioSpec spec = DynamicSAggSpec("rollover-in-flight");
  spec.duration_ticks = 40;
  spec.rollover_at_tick = 2;
  spec.expect_complete = true;
  spec.expect_contributions_rejected = 0;
  sim::ScenarioOutcome outcome =
      MustRunScenario(spec, net::TransportKind::kLoopback);
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.name << ": " << outcome.violations.front();
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.oracle_match);
  EXPECT_TRUE(outcome.clean);
  EXPECT_EQ(outcome.contributions_rejected, 0u);
}

// Revocation under dropout churn: devices drop out while others are being
// revoked mid-collection. The run must end in a visible state — either the
// oracle answer or metrics that account for every missing contribution.
TEST(KeyScenarioSuite, RevocationUnderChurnStaysVisible) {
  sim::ScenarioSpec spec = DynamicSAggSpec("revoke-under-churn");
  spec.duration_ticks = 8;
  spec.dropout_rate = 0.2;
  spec.revoke_at = {3, 7, 11};
  spec.revoke_at_tick = 2;
  sim::ScenarioOutcome outcome =
      MustRunScenario(spec, net::TransportKind::kLoopback);
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.name << ": " << outcome.violations.front();
  EXPECT_TRUE(outcome.completed);
  // Determinism holds under churn too.
  EXPECT_EQ(MustRunScenario(spec, net::TransportKind::kTcp).Canonical(),
            outcome.Canonical());
}

// ---------------------------------------------------------------------------
// Keys determinism grid: dynamic mode over worker threads {1,4} x shards
// {1,2} x {loopback,tcp} — bit-identical outcomes everywhere.

TEST(KeysDeterminismGrid, DynamicRunsAreBitIdenticalEverywhere) {
  EngineRunConfig base;
  base.key_mode = KeyMode::kDynamic;
  RunOutcome reference = RunEngine(ProtocolKind::kSAgg, 0, base);
  EXPECT_EQ(reference.metrics.contributions_rejected, 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t shards : {size_t{1}, size_t{2}}) {
      for (net::TransportKind transport :
           {net::TransportKind::kLoopback, net::TransportKind::kTcp}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards) + " transport=" +
                     (transport == net::TransportKind::kTcp ? "tcp"
                                                            : "loopback"));
        EngineRunConfig rc = base;
        rc.num_threads = threads;
        rc.num_shards = shards;
        rc.transport = transport;
        RunOutcome outcome = RunEngine(ProtocolKind::kSAgg, 0, rc);

        EXPECT_EQ(outcome.result.ToString(), reference.result.ToString());
        EXPECT_EQ(outcome.metrics.contributions_rejected, 0u);
        EXPECT_EQ(outcome.metrics.collection_participants,
                  reference.metrics.collection_participants);
        EXPECT_EQ(outcome.adversary.collection_items,
                  reference.adversary.collection_items);
        EXPECT_EQ(outcome.adversary.aggregation_items,
                  reference.adversary.aggregation_items);
        // Session keys depend only on (epoch, query id, nonce), never on
        // the backend: the raw tag histograms must match exactly.
        EXPECT_EQ(outcome.adversary.collection_tag_histogram,
                  reference.adversary.collection_tag_histogram);
        // Blob sizes are concatenated in shard order by the router; the
        // multiset is the shard-count invariant.
        auto sa = outcome.adversary.collection_blob_sizes;
        auto sb = reference.adversary.collection_blob_sizes;
        std::sort(sa.begin(), sa.end());
        std::sort(sb.begin(), sb.end());
        EXPECT_EQ(sa, sb);
      }
    }
  }
}

// Mid-query revocation: eight TDSs are revoked at tick 1 of a DURATION-bounded
// collection, so those that connect later upload under a stale epoch and are
// rejected. Tags are made in the parallel collection fan-out and admitted
// serially in serve order, so the rejections, the result and the per-TDS
// accounting are identical at any thread count.
TEST(KeysDeterminismGrid, MidQueryRevocationIsBitIdenticalAcrossThreads) {
  EngineRunConfig base;
  base.key_mode = KeyMode::kDynamic;
  base.duration_ticks = 8;
  base.revoke_at_tick_1 = {1, 4, 7, 10, 13, 16, 19, 22};
  RunOutcome reference = RunEngine(ProtocolKind::kSAgg, 0, base);
  EXPECT_GT(reference.metrics.contributions_rejected, 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t shards : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EngineRunConfig rc = base;
      rc.num_threads = threads;
      rc.num_shards = shards;
      RunOutcome outcome = RunEngine(ProtocolKind::kSAgg, 0, rc);
      EXPECT_EQ(outcome.result.ToString(), reference.result.ToString());
      EXPECT_EQ(outcome.metrics.contributions_rejected,
                reference.metrics.contributions_rejected);
      EXPECT_EQ(outcome.metrics.collection_participants,
                reference.metrics.collection_participants);
      EXPECT_EQ(outcome.metrics.collection_ticks,
                reference.metrics.collection_ticks);
      EXPECT_EQ(outcome.metrics.accountant.TotalBytes(),
                reference.metrics.accountant.TotalBytes());
      const auto per_a = outcome.metrics.accountant.per_tds();
      const auto per_b = reference.metrics.accountant.per_tds();
      ASSERT_EQ(per_a.size(), per_b.size());
      for (auto a = per_a.begin(), b = per_b.begin(); a != per_a.end();
           ++a, ++b) {
        EXPECT_EQ(a->first, b->first);
        EXPECT_EQ(a->second.bytes_in, b->second.bytes_in);
        EXPECT_EQ(a->second.bytes_out, b->second.bytes_out);
        EXPECT_EQ(a->second.participations, b->second.participations);
      }
      EXPECT_EQ(outcome.adversary.collection_items,
                reference.adversary.collection_items);
      EXPECT_EQ(outcome.adversary.collection_tag_histogram,
                reference.adversary.collection_tag_histogram);
    }
  }
}

// ---------------------------------------------------------------------------
// Session-key cache bound: each TDS keeps at most kSessionCacheCapacity
// derived KeyStores, so the per-TDS key state stops growing with the number
// of queries served.

// Unit level: the bound holds, an evicted posting re-derives the very same
// keys, and a window that rolls past a posting's epoch drops its entry.
TEST(TdsKeyStateCache, BoundedAndEvictionOnlyCostsARederivation) {
  constexpr size_t kCap = keys::TdsKeyState::kSessionCacheCapacity;
  KeyWorld w(/*tds_id=*/5);
  Rng rng(31);
  const Bytes probe = rng.NextBytes(16);
  std::vector<ssi::QueryKeyPosting> postings;
  std::vector<Bytes> first;
  for (uint64_t q = 0; q < 5 * kCap; ++q) {
    postings.push_back(w.authority->NewPosting(100 + q, &rng));
    auto keys = w.state->KeysFor(postings.back()).ValueOrDie();
    first.push_back(keys->k2_det().Encrypt(probe));
    EXPECT_LE(w.state->session_cache_size(), kCap);
  }
  EXPECT_EQ(w.state->session_cache_size(), kCap);
  for (size_t q = 0; q < postings.size(); ++q) {
    auto keys = w.state->KeysFor(postings[q]);
    ASSERT_TRUE(keys.ok()) << keys.status().ToString();
    EXPECT_EQ((*keys)->k2_det().Encrypt(probe), first[q]) << q;
  }

  for (uint32_t i = 0; i < keys::kEpochWindow; ++i) {
    ASSERT_TRUE(w.authority->Rollover().ok());
  }
  w.source.Serve(w.authority->CurrentBlock());
  ASSERT_TRUE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->session_cache_size(), 0u);
  EXPECT_TRUE(w.state->KeysFor(postings[0]).status().IsNotFound());
}

// Engine level: many queries on one dynamic-key engine keep every TDS's
// cache within the bound, and every answer equals the one a fresh engine
// (whose cache never fills) gives for the same query.
TEST(TdsKeyStateCache, ManyQueriesStayBoundedAndMatchAFreshEngine) {
  constexpr size_t kCap = keys::TdsKeyState::kSessionCacheCapacity;
  constexpr uint64_t kQueries = 3 * kCap;
  Engine::Config cfg;
  cfg.options.compute_availability = 0.25;
  cfg.options.expected_groups = kDiffGroups;
  cfg.options.seed = 17;
  cfg.tracing = false;
  cfg.key_mode = KeyMode::kDynamic;
  World w = MakeWorld(0);
  auto protocol = MakeProtocol(ProtocolKind::kSAgg, w);
  auto engine = Engine::Create(std::move(w.fleet), cfg).ValueOrDie();
  for (uint64_t q = 1; q <= kQueries; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    RunOutcome got =
        engine->Run(*protocol, *w.querier, q, QueryFor(ProtocolKind::kSAgg))
            .ValueOrDie();
    World fresh = MakeWorld(0);
    auto fresh_protocol = MakeProtocol(ProtocolKind::kSAgg, fresh);
    auto fresh_engine =
        Engine::Create(std::move(fresh.fleet), cfg).ValueOrDie();
    RunOutcome want = fresh_engine
                          ->Run(*fresh_protocol, *fresh.querier, q,
                                QueryFor(ProtocolKind::kSAgg))
                          .ValueOrDie();
    EXPECT_EQ(SortedRows(got.result.ToString()),
              SortedRows(want.result.ToString()));
    EXPECT_EQ(got.metrics.collection_participants,
              want.metrics.collection_participants);
    EXPECT_EQ(got.metrics.contributions_rejected, 0u);
    size_t full = 0;
    for (size_t i = 0; i < engine->fleet().size(); ++i) {
      const size_t cached =
          engine->fleet().at(i)->key_state()->session_cache_size();
      EXPECT_LE(cached, kCap);
      if (cached == kCap) ++full;
    }
    if (q >= kCap) {
      EXPECT_GT(full, 0u);
    }
  }
}

}  // namespace
}  // namespace tcells
