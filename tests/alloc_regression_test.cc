// Allocation-count regression tests for the per-tuple hot path (`ctest -L
// perf`). The TDS partition paths are arena/scratch-backed: once a thread's
// workspace has warmed on the first partition, opening + folding a
// steady-state partition must not allocate per input item. A global
// operator new hook counts allocations; the bounds below are far under one
// allocation per item (256-item partitions), so a reintroduced per-tuple
// `new` fails loudly while legitimate per-*output* allocations (each sealed
// item owns its blob) stay comfortably inside the budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "crypto/keystore.h"
#include "sim/cost_accountant.h"
#include "ssi/messages.h"
#include "storage/tuple.h"
#include "tds/access_control.h"
#include "tds/tds.h"
#include "workload/generic.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Counting allocator hook: every global allocation bumps the counter. Kept
// trivial (malloc pass-through) so behaviour under sanitizers is unchanged
// apart from the count. GCC's mismatched-new-delete analysis assumes the
// default allocator and flags the malloc/free pairing; with every form
// replaced below the pairing is matched by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tcells::tds {
namespace {

using ssi::EncryptedItem;
using ssi::PayloadKind;
using storage::Tuple;
using storage::Value;

uint64_t CountAllocs(const std::function<void()>& fn) {
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

class AllocRegressionTest : public ::testing::Test {
 protected:
  AllocRegressionTest()
      : keys_(crypto::KeyStore::CreateForTest(21)),
        authority_(std::make_shared<Authority>(Bytes(16, 1))),
        rng_(555) {
    server_ = std::make_unique<TrustedDataServer>(
        /*id=*/0, keys_, authority_, AccessPolicy::AllowAll());
    workload::GenericOptions opts;
    opts.num_groups = 4;
    Rng data_rng(9);
    EXPECT_TRUE(
        workload::PopulateGenericDb(&server_->db(), 0, opts, &data_rng).ok());
  }

  ssi::QueryPost Post(const std::string& sql) {
    ssi::QueryPost post;
    post.query_id = 1;
    Bytes sql_bytes(sql.begin(), sql.end());
    post.encrypted_query = keys_->k1_ndet().Encrypt(sql_bytes, &rng_);
    post.querier_id = "q";
    post.credential_mac = authority_->Issue("q");
    return post;
  }

  /// A partition of `n` sealed true-tuple items spread over 4 groups —
  /// the shape one aggregation round feeds a TDS.
  ssi::Partition TruePartition(size_t n) {
    ssi::Partition partition;
    partition.items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Tuple t({Value::String(workload::GroupName(i % 4)),
               Value::Double(static_cast<double>(i))});
      Bytes payload;
      ssi::EncodePayload(PayloadKind::kTrueTuple, t.Encode(), 0, &payload);
      EncryptedItem item;
      item.blob = keys_->k2_ndet().Encrypt(payload, &rng_);
      partition.items.push_back(std::move(item));
    }
    return partition;
  }

  std::shared_ptr<const crypto::KeyStore> keys_;
  std::shared_ptr<Authority> authority_;
  Rng rng_;
  std::unique_ptr<TrustedDataServer> server_;
};

TEST_F(AllocRegressionTest, SteadyStateAggregationPartitionIsArenaBacked) {
  const size_t kItems = 256;
  auto post = Post("SELECT grp, AVG(val) FROM T GROUP BY grp");
  std::shared_ptr<const sql::AnalyzedQuery> query =
      server_->OpenQuery(post).ValueOrDie();
  ssi::Partition partition = TruePartition(kItems);

  // Warm-up: grows the thread workspace (arena chunk, plains vector, encode
  // scratch) and the analysis caches.
  CollectionConfig config;
  ASSERT_TRUE(server_
                  ->ProcessAggregationPartition(*query, partition,
                                                OutputTagPolicy::kNone,
                                                config, &rng_)
                  .ok());

  // Steady state: decrypt + decode + accumulate 256 items, emit one sealed
  // partial. The budget covers the output item, the per-call
  // GroupedAggregation (4 groups x map nodes/states) and small-vector noise
  // — but at well under one allocation per input item, a per-tuple copy or
  // per-item buffer sneaking back into the path trips this immediately.
  const uint64_t allocs = CountAllocs([&] {
    auto out = server_->ProcessAggregationPartition(
        *query, partition, OutputTagPolicy::kNone, config, &rng_);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.ValueOrDie().size(), 1u);
  });
  EXPECT_LE(allocs, kItems / 2) << "per-item allocations are back in the "
                                   "aggregation hot path";
}

TEST_F(AllocRegressionTest, SteadyStateFilteringIsArenaBacked) {
  const size_t kItems = 256;
  auto post = Post("SELECT grp, val FROM T WHERE val >= 0.0");
  std::shared_ptr<const sql::AnalyzedQuery> query =
      server_->OpenQuery(post).ValueOrDie();
  ssi::Partition partition = TruePartition(kItems);

  CollectionConfig config;
  ASSERT_TRUE(server_->ProcessFiltering(*query, partition, &rng_, config).ok());

  // Filtering re-encrypts every true tuple under k1, so the per-output blob
  // allocations are inherent: budget ~2 per item, not ~6 as before the
  // scratch-buffer rework.
  const uint64_t allocs = CountAllocs([&] {
    auto out = server_->ProcessFiltering(*query, partition, &rng_, config);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.ValueOrDie().size(), kItems);
  });
  EXPECT_LE(allocs, 2 * kItems + 64)
      << "filtering output path regressed beyond ~2 allocations per item";
}

TEST_F(AllocRegressionTest, SteadyStateCollectionTickIsBounded) {
  auto post = Post("SELECT grp, AVG(val) FROM T GROUP BY grp");
  CollectionConfig config;  // kNDet
  // Warm-up fills the fleet-wide analysis memo.
  ASSERT_TRUE(server_->ProcessCollection(post, config, &rng_).ok());

  // A steady-state collection tick on this TDS: decrypt the query text, hit
  // the memo for its analysis, execute the 1-row local query, seal one item.
  // No re-lex, no re-analyze (the analyzer allocates hundreds of AST nodes;
  // this budget is far below one parse).
  const uint64_t allocs = CountAllocs([&] {
    auto out = server_->ProcessCollection(post, config, &rng_);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.ValueOrDie().size(), 1u);
  });
  EXPECT_LE(allocs, 64u) << "collection tick re-analyzes or re-allocates "
                            "per-query state on the memo-hit path";
}

// The per-TDS accountant is a flat log: a crowd query's 100k collection
// uploads cost the log's geometric growth, not one tree node per TDS.
TEST(AllocRegressionAccountant, HundredThousandRecordTdsCallsAreAmortised) {
  constexpr uint64_t kTds = 100000;
  sim::CostAccountant accountant;
  const uint64_t allocs = CountAllocs([&] {
    for (uint64_t i = 0; i < kTds; ++i) {
      accountant.RecordTds((i * 7919) % kTds, 0, 64, 1);
    }
  });
  EXPECT_LE(allocs, 64u);
  EXPECT_EQ(accountant.DistinctTds(), kTds);
}

}  // namespace
}  // namespace tcells::tds
