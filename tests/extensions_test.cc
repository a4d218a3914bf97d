// Tests for the library extensions beyond the paper's minimal protocol set:
// ORDER BY / LIMIT, VARIANCE / STDDEV, DURATION-bounded collection, the
// querybox hub, and the compromised-TDS leak instrumentation.
#include <gtest/gtest.h>

#include <cmath>

#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "ssi/querybox.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells {
namespace {

using sql::AnalyzeSql;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

// ---------------------------------------------------------------------------
// ORDER BY / LIMIT

class OrderByTest : public ::testing::Test {
 protected:
  OrderByTest() {
    EXPECT_TRUE(db_.CreateTable("t", storage::Schema({
                                         {"name", ValueType::kString},
                                         {"score", ValueType::kInt64},
                                     }))
                    .ok());
    auto* t = db_.GetTable("t").ValueOrDie();
    for (auto [name, score] : std::initializer_list<std::pair<const char*, int>>{
             {"carol", 30}, {"alice", 10}, {"bob", 20}, {"dave", 20}}) {
      EXPECT_TRUE(
          t->Insert(Tuple({Value::String(name), Value::Int64(score)})).ok());
    }
  }

  sql::QueryResult Run(const std::string& sql) {
    auto q = AnalyzeSql(sql, db_.catalog()).ValueOrDie();
    return ExecuteLocal(db_, q).ValueOrDie();
  }

  storage::Database db_;
};

TEST_F(OrderByTest, AscendingByName) {
  auto r = Run("SELECT name FROM t ORDER BY name");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0].at(0).AsString(), "alice");
  EXPECT_EQ(r.rows[3].at(0).AsString(), "dave");
}

TEST_F(OrderByTest, DescendingAndStability) {
  auto r = Run("SELECT name, score FROM t ORDER BY score DESC");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0].at(1).AsInt64(), 30);
  // bob before dave: equal keys keep input order (stable sort).
  EXPECT_EQ(r.rows[1].at(0).AsString(), "bob");
  EXPECT_EQ(r.rows[2].at(0).AsString(), "dave");
}

TEST_F(OrderByTest, MultiKeyAndPosition) {
  auto r = Run("SELECT score, name FROM t ORDER BY 1 DESC, 2 ASC");
  EXPECT_EQ(r.rows[0].at(1).AsString(), "carol");
  EXPECT_EQ(r.rows[1].at(1).AsString(), "bob");
}

TEST_F(OrderByTest, Limit) {
  auto r = Run("SELECT name, score FROM t ORDER BY score LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].at(0).AsString(), "alice");
  auto all = Run("SELECT name FROM t LIMIT 100");
  EXPECT_EQ(all.rows.size(), 4u);
  auto none = Run("SELECT name FROM t LIMIT 0");
  EXPECT_TRUE(none.rows.empty());
}

TEST_F(OrderByTest, OrderByAggregateAlias) {
  auto r = Run(
      "SELECT score, COUNT(*) AS n FROM t GROUP BY score ORDER BY n DESC, "
      "score ASC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].at(0).AsInt64(), 20);  // count 2 first
}

TEST_F(OrderByTest, Errors) {
  auto cat = db_.catalog();
  EXPECT_FALSE(AnalyzeSql("SELECT name FROM t ORDER BY 5", cat).ok());
  EXPECT_FALSE(AnalyzeSql("SELECT name FROM t ORDER BY 0", cat).ok());
  EXPECT_FALSE(AnalyzeSql("SELECT name FROM t ORDER BY nosuch", cat).ok());
  // ORDER BY is restricted to result columns (sorting happens querier-side
  // on decrypted result rows; non-projected columns never reach it).
  EXPECT_FALSE(AnalyzeSql("SELECT name FROM t ORDER BY score", cat).ok());
  EXPECT_FALSE(sql::Parse("SELECT name FROM t LIMIT -3").ok());
  EXPECT_FALSE(sql::Parse("SELECT name FROM t LIMIT x").ok());
}

TEST_F(OrderByTest, ParsedToStringRoundTrip) {
  auto stmt =
      sql::Parse("SELECT a FROM t ORDER BY a DESC, b LIMIT 7 SIZE 10")
          .ValueOrDie();
  auto stmt2 = sql::Parse(stmt.ToString()).ValueOrDie();
  EXPECT_EQ(stmt.ToString(), stmt2.ToString());
  ASSERT_EQ(stmt.order_by.size(), 2u);
  EXPECT_TRUE(stmt.order_by[0].descending);
  EXPECT_FALSE(stmt.order_by[1].descending);
  EXPECT_EQ(stmt.limit.value(), 7u);
}


// ---------------------------------------------------------------------------
// SELECT DISTINCT

TEST_F(OrderByTest, SelectDistinct) {
  auto r = Run("SELECT DISTINCT score FROM t ORDER BY score");
  ASSERT_EQ(r.rows.size(), 3u);  // 10, 20, 30 (20 appears twice in data)
  EXPECT_EQ(r.rows[0].at(0).AsInt64(), 10);
  EXPECT_EQ(r.rows[1].at(0).AsInt64(), 20);
  EXPECT_EQ(r.rows[2].at(0).AsInt64(), 30);
  // Without DISTINCT all 4 rows come back.
  EXPECT_EQ(Run("SELECT score FROM t").rows.size(), 4u);
}

TEST_F(OrderByTest, DistinctComposesWithLimit) {
  auto r = Run("SELECT DISTINCT score FROM t ORDER BY score DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].at(0).AsInt64(), 30);
  EXPECT_EQ(r.rows[1].at(0).AsInt64(), 20);
}

// ---------------------------------------------------------------------------
// VARIANCE / STDDEV

TEST(VarianceTest, KnownValues) {
  storage::Database db;
  ASSERT_TRUE(
      db.CreateTable("t", storage::Schema({{"x", ValueType::kInt64}})).ok());
  auto* t = db.GetTable("t").ValueOrDie();
  for (int64_t x : {2, 4, 4, 4, 5, 5, 7, 9}) {
    ASSERT_TRUE(t->Insert(Tuple({Value::Int64(x)})).ok());
  }
  auto q = AnalyzeSql("SELECT VARIANCE(x), STDDEV(x) FROM t", db.catalog())
               .ValueOrDie();
  auto r = ExecuteLocal(db, q).ValueOrDie();
  ASSERT_EQ(r.rows.size(), 1u);
  // Classic example: population variance 4, stddev 2.
  EXPECT_DOUBLE_EQ(r.rows[0].at(0).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(r.rows[0].at(1).AsDouble(), 2.0);
}

TEST(VarianceTest, MergeEquivalence) {
  sql::AggSpec spec;
  spec.kind = sql::AggKind::kVariance;
  spec.input_index = 0;
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.NextDouble() * 10);

  sql::AggState single(spec);
  for (double x : xs) ASSERT_TRUE(single.Accumulate(Value::Double(x)).ok());

  sql::AggState a(spec), b(spec), c(spec);
  for (size_t i = 0; i < xs.size(); ++i) {
    sql::AggState& part = i % 3 == 0 ? a : (i % 3 == 1 ? b : c);
    ASSERT_TRUE(part.Accumulate(Value::Double(xs[i])).ok());
  }
  // Serialize b through the wire format before merging, like a real TDS.
  Bytes buf;
  b.EncodeTo(&buf);
  ByteReader reader(buf);
  sql::AggState b2 = sql::AggState::DecodeFrom(spec, &reader).ValueOrDie();
  ASSERT_TRUE(a.Merge(b2).ok());
  ASSERT_TRUE(a.Merge(c).ok());
  EXPECT_NEAR(a.Finalize().ValueOrDie().AsDouble(),
              single.Finalize().ValueOrDie().AsDouble(), 1e-9);
}

TEST(VarianceTest, EmptyAndSingle) {
  sql::AggSpec spec;
  spec.kind = sql::AggKind::kStdDev;
  spec.input_index = 0;
  sql::AggState s(spec);
  EXPECT_TRUE(s.Finalize().ValueOrDie().is_null());
  ASSERT_TRUE(s.Accumulate(Value::Int64(42)).ok());
  EXPECT_DOUBLE_EQ(s.Finalize().ValueOrDie().AsDouble(), 0.0);
}

TEST(VarianceTest, DistinctVariance) {
  sql::AggSpec spec;
  spec.kind = sql::AggKind::kVariance;
  spec.distinct = true;
  spec.input_index = 0;
  sql::AggState s(spec);
  for (int64_t x : {1, 1, 1, 3, 3}) {
    ASSERT_TRUE(s.Accumulate(Value::Int64(x)).ok());
  }
  // Distinct values {1,3}: mean 2, variance 1.
  EXPECT_DOUBLE_EQ(s.Finalize().ValueOrDie().AsDouble(), 1.0);
}

// ---------------------------------------------------------------------------
// End-to-end: new SQL features through a real protocol run

class ExtensionWorld {
 public:
  ExtensionWorld() {
    keys_ = crypto::KeyStore::CreateForTest(31);
    authority_ = std::make_shared<tds::Authority>(Bytes(16, 0x12));
    workload::GenericOptions gopts;
    gopts.num_tds = 80;
    gopts.num_groups = 5;
    auto built = workload::BuildGenericFleet(gopts, keys_, authority_,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    querier_ = std::make_unique<protocol::Querier>(
        "q", authority_->Issue("q"), keys_);
    engine_ = Engine::Create(std::move(built)).ValueOrDie();
    fleet_ = &engine_->fleet();
  }

  protocol::RunOutcome Run(const std::string& sql,
                           protocol::RunOptions opts = {}) {
    opts.compute_availability = 0.2;
    protocol::SAggProtocol s_agg;
    protocol::BasicSfwProtocol basic;
    auto analyzed =
        AnalyzeSql(sql, fleet_->at(0)->db().catalog()).ValueOrDie();
    protocol::Protocol& protocol =
        analyzed.is_aggregation ? static_cast<protocol::Protocol&>(s_agg)
                                : basic;
    return engine_->Run(protocol, *querier_, next_id_++, sql, opts)
        .ValueOrDie();
  }

  std::shared_ptr<const crypto::KeyStore> keys_;
  std::shared_ptr<tds::Authority> authority_;
  std::unique_ptr<protocol::Querier> querier_;
  std::unique_ptr<Engine> engine_;
  protocol::Fleet* fleet_ = nullptr;  // owned by the engine
  uint64_t next_id_ = 1;
};

TEST(ExtensionE2eTest, DistinctThroughProtocol) {
  ExtensionWorld w;
  const char* sql = "SELECT DISTINCT grp FROM T ORDER BY grp";
  auto outcome = w.Run(sql);
  auto expected = protocol::ExecuteReference(*w.fleet_, sql).ValueOrDie();
  ASSERT_EQ(outcome.result.rows.size(), expected.rows.size());
  EXPECT_LE(outcome.result.rows.size(), 5u);  // at most one row per group
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    EXPECT_TRUE(outcome.result.rows[i].IsSameGroup(expected.rows[i]));
  }
}

TEST(ExtensionE2eTest, OrderByLimitAppliedByQuerier) {
  ExtensionWorld w;
  const char* sql =
      "SELECT grp, COUNT(*) FROM T GROUP BY grp ORDER BY grp DESC LIMIT 3";
  auto outcome = w.Run(sql);
  auto expected = protocol::ExecuteReference(*w.fleet_, sql).ValueOrDie();
  ASSERT_EQ(outcome.result.rows.size(), 3u);
  // Ordered comparison, row by row.
  ASSERT_EQ(outcome.result.rows.size(), expected.rows.size());
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    EXPECT_TRUE(outcome.result.rows[i].IsSameGroup(expected.rows[i])) << i;
  }
  // Descending by group name.
  EXPECT_GT(outcome.result.rows[0].at(0).AsString(),
            outcome.result.rows[2].at(0).AsString());
}

TEST(ExtensionE2eTest, VarianceThroughProtocol) {
  ExtensionWorld w;
  const char* sql =
      "SELECT grp, VARIANCE(val), STDDEV(val) FROM T GROUP BY grp";
  auto outcome = w.Run(sql);
  auto expected = protocol::ExecuteReference(*w.fleet_, sql).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected));
  for (const auto& row : outcome.result.rows) {
    double variance = row.at(1).AsDouble();
    double stddev = row.at(2).AsDouble();
    EXPECT_NEAR(stddev * stddev, variance, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// DURATION-bounded collection

TEST(DurationTest, WindowClosesBeforeEveryoneConnects) {
  ExtensionWorld w;
  protocol::RunOptions opts;
  opts.connect_prob_per_tick = 0.15;
  opts.seed = 7;
  auto outcome = w.Run("SELECT grp FROM T SIZE DURATION 3", opts);
  // With p=0.15 over 3 ticks, only ~1-(0.85^3) ≈ 39% of TDSs make it.
  EXPECT_EQ(outcome.metrics.collection_ticks, 3u);
  EXPECT_LT(outcome.metrics.collection_participants, w.fleet_->size());
  EXPECT_GT(outcome.metrics.collection_participants, 0u);
  EXPECT_EQ(outcome.adversary.collection_items,
            outcome.metrics.collection_participants);
}

TEST(DurationTest, TupleBoundStopsWithinWindow) {
  ExtensionWorld w;
  protocol::RunOptions opts;
  opts.connect_prob_per_tick = 1.0;
  auto outcome = w.Run("SELECT grp FROM T SIZE 5 DURATION 100", opts);
  EXPECT_EQ(outcome.adversary.collection_items, 5u);
  EXPECT_EQ(outcome.metrics.collection_ticks, 1u);
}

TEST(DurationTest, FullPassWithoutDuration) {
  ExtensionWorld w;
  auto outcome = w.Run("SELECT grp FROM T");
  EXPECT_EQ(outcome.metrics.collection_participants, w.fleet_->size());
  EXPECT_EQ(outcome.metrics.collection_ticks, 1u);
}

// ---------------------------------------------------------------------------
// QueryboxHub

TEST(QueryboxTest, GlobalAndPersonalRouting) {
  ssi::QueryboxHub hub;
  ssi::QueryPost global;
  global.query_id = 1;
  ssi::QueryPost personal;
  personal.query_id = 2;
  ASSERT_TRUE(hub.PostGlobal(global).ok());
  ASSERT_TRUE(hub.PostPersonal(7, personal).ok());

  EXPECT_EQ(hub.Fetch(7).size(), 2u);   // global + its personal
  EXPECT_EQ(hub.Fetch(8).size(), 1u);   // global only
  hub.Acknowledge(7, 1);
  EXPECT_EQ(hub.Fetch(7).size(), 1u);
  EXPECT_EQ(ssi::QueryPost::Decode(*hub.Fetch(7)[0]).ValueOrDie().query_id,
            2u);
  hub.Acknowledge(7, 2);
  EXPECT_TRUE(hub.Fetch(7).empty());
  EXPECT_EQ(hub.Fetch(8).size(), 1u);   // other TDSs unaffected
}

TEST(QueryboxTest, DuplicateIdRejectedAndRetire) {
  ssi::QueryboxHub hub;
  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(hub.PostGlobal(post).ok());
  EXPECT_FALSE(hub.PostGlobal(post).ok());
  EXPECT_TRUE(hub.StorageFor(5).ok());
  EXPECT_FALSE(hub.StorageFor(6).ok());
  hub.Retire(5);
  EXPECT_FALSE(hub.StorageFor(5).ok());
  EXPECT_EQ(hub.num_active(), 0u);
}

TEST(QueryboxTest, PerQueryStorageIsIndependent) {
  ssi::QueryboxHub hub;
  ssi::QueryPost a, b;
  a.query_id = 1;
  b.query_id = 2;
  ASSERT_TRUE(hub.PostGlobal(a).ok());
  ASSERT_TRUE(hub.PostGlobal(b).ok());
  ssi::EncryptedItem item;
  item.blob = Bytes{1, 2, 3};
  hub.StorageFor(1).ValueOrDie()->ReceiveCollectionItems({item});
  EXPECT_EQ(hub.StorageFor(1).ValueOrDie()->NumCollected(), 1u);
  EXPECT_EQ(hub.StorageFor(2).ValueOrDie()->NumCollected(), 0u);
}

// ---------------------------------------------------------------------------
// Compromised-TDS leak instrumentation

TEST(LeakLogTest, HonestRunLeaksNothing) {
  ExtensionWorld w;
  auto log = std::make_shared<tds::LeakLog>();
  // Nobody compromised: log stays empty.
  auto outcome = w.Run("SELECT grp, COUNT(*) FROM T GROUP BY grp");
  (void)outcome;
  EXPECT_EQ(log->NumLeakedRawTuples(), 0u);
  EXPECT_EQ(log->NumLeakedGroups(), 0u);
}

TEST(LeakLogTest, CompromisedTdsLeaksWhatItDecrypts) {
  ExtensionWorld w;
  auto log = std::make_shared<tds::LeakLog>();
  for (size_t i = 0; i < w.fleet_->size(); ++i) {
    w.fleet_->at(i)->set_leak_log(log);  // worst case: everyone compromised
  }
  // val is a per-TDS random double, so every collection tuple is distinct.
  auto outcome = w.Run("SELECT grp, SUM(val) FROM T GROUP BY grp");
  EXPECT_TRUE(outcome.result.rows.size() > 0);
  // With the whole fleet compromised, every raw tuple that entered the
  // aggregation phase leaks.
  EXPECT_EQ(log->NumLeakedRawTuples(), w.fleet_->size());
  EXPECT_EQ(log->NumLeakedGroups(), 5u);
}

TEST(LeakLogTest, PartialCompromiseLeaksPartially) {
  ExtensionWorld w;
  auto log = std::make_shared<tds::LeakLog>();
  for (size_t i = 0; i < 8; ++i) w.fleet_->at(i)->set_leak_log(log);
  auto outcome = w.Run("SELECT grp, SUM(val) FROM T GROUP BY grp");
  (void)outcome;
  EXPECT_LT(log->NumLeakedRawTuples(), w.fleet_->size());
}

}  // namespace
}  // namespace tcells
