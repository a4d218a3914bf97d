#include "sim/cost_accountant.h"

namespace tcells::sim {

const char* PhaseToString(Phase phase) {
  switch (phase) {
    case Phase::kCollection: return "collection";
    case Phase::kAggregation: return "aggregation";
    case Phase::kFiltering: return "filtering";
  }
  return "?";
}

PhaseTally& PhaseTally::operator+=(const PhaseTally& delta) {
  bytes_uploaded += delta.bytes_uploaded;
  bytes_downloaded += delta.bytes_downloaded;
  tuples_processed += delta.tuples_processed;
  partitions += delta.partitions;
  iterations += delta.iterations;
  dropouts += delta.dropouts;
  partitions_lost += delta.partitions_lost;
  partitions_tampered += delta.partitions_tampered;
  return *this;
}

void CostAccountant::RecordTds(uint64_t tds_id, uint64_t bytes_in,
                               uint64_t bytes_out, uint64_t tuples) {
  TdsTally& d = per_tds_[tds_id];
  d.bytes_in += bytes_in;
  d.bytes_out += bytes_out;
  d.tuples += tuples;
  d.participations += 1;
}

uint64_t CostAccountant::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& t : phases_) {
    total += t.bytes_uploaded + t.bytes_downloaded;
  }
  return total;
}

double CostAccountant::AverageTdsSeconds(const DeviceModel& model) const {
  if (per_tds_.empty()) return 0;
  double total = 0;
  for (const auto& [id, t] : per_tds_) {
    total += model.TransferSeconds(t.bytes_in + t.bytes_out) +
             model.CryptoSeconds(t.bytes_in + t.bytes_out) +
             model.CpuSeconds(t.tuples);
  }
  return total / static_cast<double>(per_tds_.size());
}

}  // namespace tcells::sim
