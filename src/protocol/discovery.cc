#include "protocol/discovery.h"

#include "protocol/session.h"
#include "sql/parser.h"

namespace tcells::protocol {

Result<std::shared_ptr<const std::vector<storage::Tuple>>>
DiscoveredDistribution::Domain() const {
  if (frequency.empty()) {
    return Status::FailedPrecondition(
        "discovered distribution is empty; cannot derive the A_G domain");
  }
  auto domain = std::make_shared<std::vector<storage::Tuple>>();
  domain->reserve(frequency.size());
  for (const auto& [key, count] : frequency) domain->push_back(key);
  return std::shared_ptr<const std::vector<storage::Tuple>>(std::move(domain));
}

Result<DiscoveredDistribution> DiscoverDistribution(
    Fleet* fleet, const Querier& querier, uint64_t query_id,
    const std::string& target_sql, const sim::DeviceModel& device,
    const RunOptions& options) {
  TCELLS_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(target_sql));
  if (stmt.group_by.empty()) {
    return Status::InvalidArgument(
        "distribution discovery needs a GROUP BY in the target query");
  }

  // Build: SELECT <A_G...>, COUNT(*) FROM <same tables> GROUP BY <A_G...>.
  std::string sql = "SELECT ";
  for (const auto& g : stmt.group_by) {
    sql += g->ToString() + ", ";
  }
  sql += "COUNT(*) FROM ";
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    if (i) sql += ", ";
    sql += stmt.from[i].table;
    if (!stmt.from[i].alias.empty()) sql += " " + stmt.from[i].alias;
  }
  sql += " GROUP BY ";
  for (size_t i = 0; i < stmt.group_by.size(); ++i) {
    if (i) sql += ", ";
    sql += stmt.group_by[i]->ToString();
  }

  SAggProtocol s_agg;
  QuerySession session(fleet, device, options);
  TCELLS_RETURN_IF_ERROR(session.Submit(query_id, &querier, &s_agg, sql));
  TCELLS_ASSIGN_OR_RETURN(auto outcomes, session.RunAll());
  auto it = outcomes.find(query_id);
  if (it == outcomes.end()) {
    return Status::Internal("discovery query produced no outcome");
  }
  RunOutcome& outcome = it->second;

  DiscoveredDistribution out;
  out.metrics = std::move(outcome.metrics);
  const size_t arity = stmt.group_by.size();
  for (const auto& row : outcome.result.rows) {
    if (row.size() != arity + 1) {
      return Status::Internal("unexpected discovery row arity");
    }
    storage::Tuple key(std::vector<storage::Value>(
        row.values().begin(), row.values().begin() + arity));
    const storage::Value& count = row.at(arity);
    if (count.type() != storage::ValueType::kInt64) {
      return Status::Internal("discovery count is not an integer");
    }
    out.frequency[std::move(key)] =
        static_cast<uint64_t>(count.AsInt64());
  }
  return out;
}

}  // namespace tcells::protocol
