// Tests for QuerySession: concurrent queries through the querybox hub.
#include <gtest/gtest.h>

#include "common/clock.h"
#include "net/faulty.h"
#include "protocol/reference.h"
#include "protocol/session.h"
#include "tds/access_control.h"
#include "workload/generic.h"
#include "workload/health.h"

namespace tcells::protocol {
namespace {

class SessionWorld {
 public:
  explicit SessionWorld(size_t n = 60) {
    keys = crypto::KeyStore::CreateForTest(77);
    authority = std::make_shared<tds::Authority>(Bytes(16, 0x21));
    workload::GenericOptions gopts;
    gopts.num_tds = n;
    gopts.num_groups = 4;
    fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                        tds::AccessPolicy::AllowAll())
                .ValueOrDie();
    querier = std::make_unique<Querier>("s", authority->Issue("s"), keys);
  }

  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<tds::Authority> authority;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Querier> querier;
  sim::DeviceModel device;
};

TEST(FleetTest, SampleAvailableOnEmptyFleetIsEmpty) {
  // Regression: `want` used to be clamped up to 1 even for an empty fleet,
  // so servers_[indices[0]] read past the end of an empty vector.
  Fleet fleet;
  Rng rng(7);
  EXPECT_TRUE(fleet.SampleAvailable(0.5, &rng).empty());
  EXPECT_TRUE(fleet.SampleAvailable(1.0, &rng).empty());
}

TEST(FleetTest, SampleAvailableNonPositiveFractionClampsToOne) {
  SessionWorld w(4);
  Rng rng(7);
  // The documented "at least one" clamp holds on a non-empty fleet, and a
  // negative fraction must not reach the size_t cast (UB) — both degrade to
  // the guaranteed single TDS.
  EXPECT_EQ(w.fleet->SampleAvailable(0.0, &rng).size(), 1u);
  EXPECT_EQ(w.fleet->SampleAvailable(-0.25, &rng).size(), 1u);
  EXPECT_EQ(w.fleet->SampleAvailable(1e-9, &rng).size(), 1u);
}

TEST(SessionTest, TwoConcurrentQueriesBothMatchOracle) {
  SessionWorld w;
  RunOptions opts;
  opts.compute_availability = 0.3;
  QuerySession session(w.fleet.get(), w.device, opts);

  SAggProtocol s_agg;
  BasicSfwProtocol basic;
  const char* agg_sql = "SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp";
  const char* sfw_sql = "SELECT grp, cat FROM T WHERE cat < 4";
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &s_agg, agg_sql).ok());
  ASSERT_TRUE(session.Submit(2, w.querier.get(), &basic, sfw_sql).ok());
  EXPECT_EQ(session.num_pending(), 2u);

  auto outcomes = session.RunAll().ValueOrDie();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes.at(1).result.SameRows(
      ExecuteReference(*w.fleet, agg_sql).ValueOrDie()));
  EXPECT_TRUE(outcomes.at(2).result.SameRows(
      ExecuteReference(*w.fleet, sfw_sql).ValueOrDie()));
  // Both queries collected from the full fleet.
  EXPECT_EQ(outcomes.at(1).adversary.collection_items, w.fleet->size());
  EXPECT_EQ(outcomes.at(2).adversary.collection_items, w.fleet->size());
  EXPECT_EQ(session.num_pending(), 0u);
}

// A partition lost before any TDS fetched it is charged to no TDS. Every
// StagePartition attempt is dropped here, so no round partition ever reaches
// a TDS and each TDS's tally is its collection upload alone; a lost
// partition used to be booked on TDS 0.
TEST(SessionTest, PartitionLostBeforeFetchChargesNoTds) {
  SessionWorld w;
  net::SsiNode node;
  net::LoopbackTransport loopback(node.handler());
  net::FaultPlan plan;
  net::ScriptedFault drop_stage;
  drop_stage.type = net::MsgType::kStagePartition;
  drop_stage.kind = net::FaultKind::kDropRequest;
  drop_stage.scope = net::ScriptedFault::Scope::kPerKey;
  drop_stage.repeat = 0;  // every attempt of every token
  plan.script.push_back(drop_stage);
  VirtualClock clock;
  net::FaultyTransport faulty(&loopback, plan, &clock);
  net::RetryPolicy policy;
  policy.clock = &clock;
  net::SsiClient client(&faulty, policy);
  RunOptions opts;
  opts.compute_availability = 0.3;
  QuerySession session(w.fleet.get(), w.device, opts, {}, &client);
  SAggProtocol s_agg;
  ASSERT_TRUE(session
                  .Submit(1, w.querier.get(), &s_agg,
                          "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                  .ok());
  auto outcomes = session.RunAll();
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  const RunMetrics& m = outcomes->at(1).metrics;
  EXPECT_GT(m.partitions_lost, 0u);

  const auto per_tds = m.accountant.per_tds();
  ASSERT_EQ(per_tds.size(), w.fleet->size());
  const sim::TdsTally& tds0 = per_tds.at(0);
  EXPECT_EQ(tds0.bytes_in, 0u);
  EXPECT_EQ(tds0.participations, 1u);
  for (const auto& [id, tally] : per_tds) {
    EXPECT_EQ(tally.bytes_in, 0u) << id;
    EXPECT_EQ(tally.participations, 1u) << id;
  }
}

TEST(SessionTest, MixedProtocolsShareTheFleet) {
  SessionWorld w;
  RunOptions opts;
  opts.compute_availability = 0.3;
  QuerySession session(w.fleet.get(), w.device, opts);

  auto domain = std::make_shared<std::vector<storage::Tuple>>();
  for (size_t g = 0; g < 4; ++g) {
    domain->push_back(
        storage::Tuple({storage::Value::String(workload::GroupName(g))}));
  }
  SAggProtocol s_agg;
  NoiseProtocol noise(true, domain);
  const char* q1 = "SELECT grp, SUM(val) FROM T GROUP BY grp";
  const char* q2 = "SELECT grp, MAX(cat) FROM T GROUP BY grp";
  ASSERT_TRUE(session.Submit(10, w.querier.get(), &s_agg, q1).ok());
  ASSERT_TRUE(session.Submit(11, w.querier.get(), &noise, q2).ok());
  auto outcomes = session.RunAll().ValueOrDie();
  EXPECT_TRUE(outcomes.at(10).result.SameRows(
      ExecuteReference(*w.fleet, q1).ValueOrDie()));
  EXPECT_TRUE(outcomes.at(11).result.SameRows(
      ExecuteReference(*w.fleet, q2).ValueOrDie()));
}

TEST(SessionTest, PersonalQueryReachesOnlyItsTds) {
  SessionWorld w;
  QuerySession session(w.fleet.get(), w.device, {});
  BasicSfwProtocol basic;
  // Personal query to TDS 5: "get my own rows".
  ASSERT_TRUE(session
                  .SubmitPersonal(3, /*tds_id=*/5, w.querier.get(), &basic,
                                  "SELECT grp, val FROM T")
                  .ok());
  auto outcomes = session.RunAll().ValueOrDie();
  const auto& outcome = outcomes.at(3);
  // Exactly one TDS answered (its own data only).
  EXPECT_EQ(outcome.metrics.collection_participants, 1u);
  auto local = sql::AnalyzeSql("SELECT grp, val FROM T",
                               w.fleet->at(5)->db().catalog())
                   .ValueOrDie();
  auto expected = sql::ExecuteLocal(w.fleet->at(5)->db(), local).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected));
}

TEST(SessionTest, SizeBoundPerQuery) {
  SessionWorld w;
  QuerySession session(w.fleet.get(), w.device, {});
  BasicSfwProtocol basic;
  SAggProtocol s_agg;
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &basic,
                             "SELECT grp FROM T SIZE 7").ok());
  ASSERT_TRUE(session.Submit(2, w.querier.get(), &s_agg,
                             "SELECT grp, COUNT(*) FROM T GROUP BY grp").ok());
  auto outcomes = session.RunAll().ValueOrDie();
  EXPECT_EQ(outcomes.at(1).adversary.collection_items, 7u);
  EXPECT_EQ(outcomes.at(2).adversary.collection_items, w.fleet->size());
}

TEST(SessionTest, TickedCollectionWindow) {
  SessionWorld w;
  RunOptions opts;
  opts.connect_prob_per_tick = 0.3;
  opts.seed = 5;
  QuerySession session(w.fleet.get(), w.device, opts);
  SAggProtocol s_agg;
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &s_agg,
                             "SELECT grp, COUNT(*) FROM T GROUP BY grp").ok());
  auto outcomes = session.RunAll(/*max_ticks=*/3).ValueOrDie();
  const auto& m = outcomes.at(1).metrics;
  EXPECT_LE(m.collection_ticks, 3u);
  EXPECT_LT(m.collection_participants, w.fleet->size());
  EXPECT_GT(m.collection_participants, 0u);
}

TEST(SessionTest, DuplicateIdRejected) {
  SessionWorld w;
  QuerySession session(w.fleet.get(), w.device, {});
  SAggProtocol s_agg;
  const char* sql = "SELECT grp, COUNT(*) FROM T GROUP BY grp";
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &s_agg, sql).ok());
  EXPECT_FALSE(session.Submit(1, w.querier.get(), &s_agg, sql).ok());
}

TEST(SessionTest, ProtocolShapeMismatchRejectedAtSubmit) {
  SessionWorld w;
  QuerySession session(w.fleet.get(), w.device, {});
  BasicSfwProtocol basic;
  EXPECT_FALSE(session.Submit(1, w.querier.get(), &basic,
                              "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                   .ok());
}

// Malformed RunOptions fail RunOptions::Validate and are rejected at Submit
// time, before any post reaches the hub.
TEST(SessionTest, InvalidOptionsRejectedAtSubmit) {
  SessionWorld w;
  const char* sql = "SELECT grp, COUNT(*) FROM T GROUP BY grp";
  SAggProtocol s_agg;

  auto rejects = [&](RunOptions opts) {
    EXPECT_FALSE(opts.Validate().ok());
    QuerySession session(w.fleet.get(), w.device, opts);
    Status s = session.Submit(1, w.querier.get(), &s_agg, sql);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(session.num_pending(), 0u);
  };

  RunOptions opts;
  opts.alpha = 1.0;  // merge fan-in must exceed 1 or S_Agg never converges
  rejects(opts);
  opts = RunOptions();
  opts.alpha = 0.5;
  rejects(opts);
  opts = RunOptions();
  opts.dropout_rate = 1.5;
  rejects(opts);
  opts = RunOptions();
  opts.dropout_rate = -0.1;
  rejects(opts);
  opts = RunOptions();
  opts.dropout_rate = 0.2;  // losses possible but no redispatch budget
  opts.max_dropout_retries = 0;
  rejects(opts);
  opts = RunOptions();
  opts.compute_availability = 0.0;
  rejects(opts);
  opts = RunOptions();
  opts.compute_availability = 1.5;
  rejects(opts);
  opts = RunOptions();
  opts.connect_prob_per_tick = 0.0;
  rejects(opts);
  opts = RunOptions();
  opts.dropout_timeout_seconds = -1.0;
  rejects(opts);
  opts = RunOptions();
  opts.nf = -1;
  rejects(opts);

  // Defaults are valid, and a valid config still submits fine.
  EXPECT_TRUE(RunOptions().Validate().ok());
  QuerySession session(w.fleet.get(), w.device, {});
  EXPECT_TRUE(session.Submit(1, w.querier.get(), &s_agg, sql).ok());
}

}  // namespace
}  // namespace tcells::protocol
