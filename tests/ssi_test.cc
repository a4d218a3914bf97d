// Tests for the SSI: payload framing, partitioners, SIZE evaluation, and the
// adversary-view instrumentation.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "ssi/messages.h"
#include "ssi/ssi.h"

namespace tcells::ssi {
namespace {

EncryptedItem Item(uint8_t fill, size_t n = 8,
                   std::optional<Bytes> tag = std::nullopt) {
  EncryptedItem item;
  item.blob = Bytes(n, fill);
  item.routing_tag = std::move(tag);
  return item;
}

// ---------------------------------------------------------------------------
// Payload framing

Bytes Encoded(PayloadKind kind, const Bytes& body, size_t pad_to = 0) {
  Bytes out;
  EncodePayload(kind, body, pad_to, &out);
  return out;
}

Bytes BodyOf(const Bytes& encoded) {
  auto body = DecodePayload(encoded).ValueOrDie().body;
  return Bytes(body.begin(), body.end());
}

TEST(PayloadTest, RoundTrip) {
  Bytes body = {1, 2, 3};
  Bytes encoded = Encoded(PayloadKind::kTrueTuple, body);
  auto decoded = DecodePayload(encoded).ValueOrDie();
  EXPECT_EQ(decoded.kind, PayloadKind::kTrueTuple);
  EXPECT_EQ(BodyOf(encoded), body);
}

TEST(PayloadTest, PaddingHidesKindByLength) {
  Bytes small = {1};
  Bytes large = Bytes(40, 7);
  Bytes a = Encoded(PayloadKind::kDummyTuple, small, 64);
  Bytes b = Encoded(PayloadKind::kTrueTuple, large, 64);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(BodyOf(a), small);
  EXPECT_EQ(BodyOf(b), large);
}

TEST(PayloadTest, PaddingNeverTruncates) {
  Bytes body = Bytes(100, 1);
  Bytes encoded = Encoded(PayloadKind::kTrueTuple, body, 16);
  EXPECT_GT(encoded.size(), body.size());
  EXPECT_EQ(BodyOf(encoded), body);
}

TEST(PayloadTest, RejectsGarbage) {
  EXPECT_FALSE(DecodePayload(Bytes{}).ok());
  EXPECT_FALSE(DecodePayload(Bytes{200}).ok());  // unknown kind
  // Claims a 9-byte body but has none.
  EXPECT_FALSE(DecodePayload(Bytes{0, 9, 0, 0, 0}).ok());
}

TEST(PayloadTest, ViewPointsIntoSourceBuffer) {
  Bytes body = {9, 8, 7, 6};
  Bytes encoded = Encoded(PayloadKind::kPartialAgg, body, 32);
  auto view = DecodePayload(encoded).ValueOrDie();
  EXPECT_EQ(view.kind, PayloadKind::kPartialAgg);
  EXPECT_EQ(view.body.size(), body.size());
  // Zero-copy: the body aims at the framing header's tail, inside the
  // encoded buffer itself.
  EXPECT_EQ(view.body.data(), encoded.data() + 5);
}

TEST(PayloadTest, EncodeOverwritesAndReusesTheBuffer) {
  Rng rng(41);
  Bytes out = rng.NextBytes(200);
  for (size_t n : {30u, 1u, 0u}) {
    Bytes body = rng.NextBytes(n);
    EncodePayload(PayloadKind::kResultRow, body, 0, &out);
    EXPECT_EQ(out.size(), 5 + n);
    EXPECT_EQ(BodyOf(out), body);
  }
}

// ---------------------------------------------------------------------------
// Batch open

TEST(OpenAllTest, DecryptsEveryItemIntoTheArena) {
  Rng rng(42);
  auto enc = crypto::NDetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  std::vector<Bytes> plaintexts;
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 8; ++i) {
    plaintexts.push_back(rng.NextBytes(10 + 7 * i));
    EncryptedItem item;
    item.blob = enc.Encrypt(plaintexts.back(), &rng);
    items.push_back(std::move(item));
  }
  Arena arena;
  std::vector<std::span<const uint8_t>> plains;
  ASSERT_TRUE(OpenAll(enc, items, &arena, &plains).ok());
  ASSERT_EQ(plains.size(), items.size());
  for (size_t i = 0; i < plains.size(); ++i) {
    EXPECT_EQ(Bytes(plains[i].begin(), plains[i].end()), plaintexts[i]) << i;
  }
  // A second partition after a reset replaces the views.
  arena.Reset();
  ASSERT_TRUE(
      OpenAll(enc, std::span(items).subspan(0, 3), &arena, &plains).ok());
  ASSERT_EQ(plains.size(), 3u);
  EXPECT_EQ(Bytes(plains[2].begin(), plains[2].end()), plaintexts[2]);
}

TEST(OpenAllTest, ReportsFirstFailure) {
  Rng rng(43);
  auto enc = crypto::NDetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 3; ++i) {
    EncryptedItem item;
    item.blob = enc.Encrypt(rng.NextBytes(16), &rng);
    items.push_back(std::move(item));
  }
  items[1].blob[4] ^= 0x20;
  Arena arena;
  std::vector<std::span<const uint8_t>> plains;
  EXPECT_FALSE(OpenAll(enc, items, &arena, &plains).ok());
  // A blob shorter than the nDet overhead fails before any allocation.
  items[1].blob.resize(crypto::NDetEnc::kOverhead - 1);
  EXPECT_TRUE(OpenAll(enc, items, &arena, &plains).IsCorruption());
}

// ---------------------------------------------------------------------------
// Partitioning

TEST(SsiTest, PartitionRandomlySplitsAndPreservesItems) {
  Rng rng(1);
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 10; ++i) items.push_back(Item(static_cast<uint8_t>(i)));
  auto partitions = Ssi::PartitionRandomly(std::move(items), 3, &rng);
  ASSERT_EQ(partitions.size(), 4u);  // 3+3+3+1
  std::multiset<uint8_t> seen;
  for (const auto& p : partitions) {
    EXPECT_LE(p.items.size(), 3u);
    for (const auto& item : p.items) seen.insert(item.blob[0]);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(SsiTest, PartitionRandomlyShuffles) {
  Rng rng(2);
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 32; ++i) items.push_back(Item(static_cast<uint8_t>(i)));
  auto partitions = Ssi::PartitionRandomly(std::move(items), 32, &rng);
  ASSERT_EQ(partitions.size(), 1u);
  bool any_moved = false;
  for (size_t i = 0; i < partitions[0].items.size(); ++i) {
    if (partitions[0].items[i].blob[0] != i) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(SsiTest, PartitionByTagGroups) {
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 9; ++i) {
    items.push_back(Item(static_cast<uint8_t>(i), 8,
                         Bytes{static_cast<uint8_t>(i % 3)}));
  }
  auto partitions = Ssi::PartitionByTag(std::move(items)).ValueOrDie();
  ASSERT_EQ(partitions.size(), 3u);
  for (const auto& p : partitions) {
    ASSERT_EQ(p.items.size(), 3u);
    for (const auto& item : p.items) {
      EXPECT_EQ(*item.routing_tag, *p.items[0].routing_tag);
    }
  }
}

TEST(SsiTest, PartitionByTagRejectsUntagged) {
  std::vector<EncryptedItem> items = {Item(1)};
  EXPECT_FALSE(Ssi::PartitionByTag(std::move(items)).ok());
}

TEST(SsiTest, SplitPartitionBalances) {
  Partition p;
  for (int i = 0; i < 10; ++i) p.items.push_back(Item(1));
  auto subs = Ssi::SplitPartition(std::move(p), 3);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].items.size(), 4u);
  EXPECT_EQ(subs[1].items.size(), 3u);
  EXPECT_EQ(subs[2].items.size(), 3u);
}

TEST(SsiTest, SplitPartitionMoreWaysThanItems) {
  Partition p;
  p.items.push_back(Item(1));
  auto subs = Ssi::SplitPartition(std::move(p), 5);
  EXPECT_EQ(subs.size(), 1u);
}

// ---------------------------------------------------------------------------
// SIZE + storage

TEST(SsiTest, SizeClauseEvaluation) {
  Ssi ssi;
  QueryPost post;
  post.size_max_tuples = 3;
  ssi.PostQuery(post);
  EXPECT_FALSE(ssi.SizeReached());
  ssi.ReceiveCollectionItems({Item(1), Item(2)});
  EXPECT_FALSE(ssi.SizeReached());
  ssi.ReceiveCollectionItems({Item(3)});
  EXPECT_TRUE(ssi.SizeReached());
  EXPECT_EQ(ssi.NumCollected(), 3u);
}

TEST(SsiTest, NoSizeClauseNeverReached) {
  Ssi ssi;
  ssi.PostQuery({});
  ssi.ReceiveCollectionItems({Item(1)});
  EXPECT_FALSE(ssi.SizeReached());
}

TEST(SsiTest, TakeCollectedDrains) {
  Ssi ssi;
  ssi.ReceiveCollectionItems({Item(1), Item(2)});
  auto items = ssi.TakeCollected();
  EXPECT_EQ(items.size(), 2u);
  EXPECT_EQ(ssi.NumCollected(), 0u);
}


// ---------------------------------------------------------------------------
// Wire codecs

TEST(WireTest, EncryptedItemRoundTrip) {
  for (bool tagged : {false, true}) {
    EncryptedItem item;
    item.blob = Bytes{1, 2, 3, 4};
    if (tagged) {
      item.routing_tag = Bytes{9, 9};
    }
    Bytes buf;
    item.EncodeTo(&buf);
    ByteReader reader(buf);
    auto back = EncryptedItem::DecodeFrom(&reader).ValueOrDie();
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(back.blob, item.blob);
    EXPECT_EQ(back.routing_tag.has_value(), tagged);
    if (tagged) {
      EXPECT_EQ(*back.routing_tag, *item.routing_tag);
    }
  }
}

TEST(WireTest, QueryPostRoundTrip) {
  QueryPost post;
  post.query_id = 77;
  post.encrypted_query = Bytes{5, 6, 7};
  post.querier_id = "energy-co";
  post.credential_mac = Bytes(32, 0xaa);
  post.size_max_tuples = 1000;
  Bytes buf = post.Encode();
  auto back = QueryPost::Decode(buf).ValueOrDie();
  EXPECT_EQ(back.query_id, 77u);
  EXPECT_EQ(back.querier_id, "energy-co");
  EXPECT_EQ(back.size_max_tuples.value(), 1000u);
  EXPECT_FALSE(back.size_max_duration_ticks.has_value());
  // Tampered flags rejected.
  buf.pop_back();
  EXPECT_FALSE(QueryPost::Decode(buf).ok());
}

TEST(WireTest, PartitionRoundTrip) {
  Partition p;
  for (int i = 0; i < 5; ++i) {
    EncryptedItem item;
    item.blob = Bytes(8, static_cast<uint8_t>(i));
    if (i % 2) item.routing_tag = Bytes{static_cast<uint8_t>(i)};
    p.items.push_back(std::move(item));
  }
  auto back = Partition::Decode(p.Encode()).ValueOrDie();
  ASSERT_EQ(back.items.size(), 5u);
  EXPECT_EQ(back.WireSize(), p.WireSize());
  EXPECT_FALSE(Partition::Decode(Bytes{1, 2}).ok());
}

// ---------------------------------------------------------------------------
// Hostile-input hardening regressions (pinned by the fuzz harnesses; see
// fuzz/fuzz_ssi.cc and docs/TESTING.md)

TEST(WireTest, PartitionDeclaringMoreItemsThanBytesRejected) {
  // Count field claims 4B items but the buffer holds none: the decoder must
  // reject on the count itself instead of looping/allocating towards it.
  Bytes hostile = {0xff, 0xff, 0xff, 0xff};
  auto result = Partition::Decode(hostile);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());

  // A single valid item cannot satisfy a count of 10 either.
  Partition p;
  p.items.push_back(Item(1));
  Bytes encoded = p.Encode();
  encoded[0] = 10;
  EXPECT_FALSE(Partition::Decode(encoded).ok());
}

TEST(WireTest, EncryptedItemTruncatedTagLengthRejected) {
  // has_tag=1 followed by a tag length field claiming 100 bytes of tag with
  // only 2 present.
  Bytes hostile = {1, 100, 0, 0, 0, 0xaa, 0xbb};
  ByteReader reader(hostile);
  EXPECT_FALSE(EncryptedItem::DecodeFrom(&reader).ok());

  // The length field itself cut short.
  Bytes truncated = {1, 100, 0};
  ByteReader reader2(truncated);
  EXPECT_FALSE(EncryptedItem::DecodeFrom(&reader2).ok());
}

TEST(WireTest, EncryptedItemBadTagFlagRejected) {
  Bytes hostile = {2, 0, 0, 0, 0};
  ByteReader reader(hostile);
  auto result = EncryptedItem::DecodeFrom(&reader);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(WireTest, QueryPostHostileFlagsAndTrailersRejected) {
  QueryPost post;
  post.query_id = 9;
  post.encrypted_query = Bytes{1};
  post.querier_id = "q";
  post.credential_mac = Bytes(8, 0xcc);
  Bytes buf = post.Encode();

  // Unknown flag bits.
  Bytes bad_flags = buf;
  bad_flags.back() = 4;
  EXPECT_FALSE(QueryPost::Decode(bad_flags).ok());

  // Trailing bytes after a well-formed post.
  Bytes trailing = buf;
  trailing.push_back(0);
  EXPECT_FALSE(QueryPost::Decode(trailing).ok());
}

// ---------------------------------------------------------------------------
// Adversary view

TEST(SsiTest, AdversaryViewRecordsTagHistogram) {
  Ssi ssi;
  ssi.ReceiveCollectionItems({
      Item(1, 8, Bytes{9}), Item(2, 8, Bytes{9}), Item(3, 8, Bytes{7}),
      Item(4, 16),  // untagged
  });
  const auto& view = ssi.adversary_view();
  EXPECT_EQ(view.collection_items, 4u);
  ASSERT_EQ(view.collection_tag_histogram.size(), 2u);
  EXPECT_EQ(view.collection_tag_histogram.at(Bytes{9}), 2u);
  EXPECT_EQ(view.collection_tag_histogram.at(Bytes{7}), 1u);
  ASSERT_EQ(view.collection_blob_sizes.size(), 4u);
  EXPECT_EQ(view.collection_blob_sizes[3], 16u);
}

}  // namespace
}  // namespace tcells::ssi
