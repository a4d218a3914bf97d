#include "sim/cost_accountant.h"

#include <algorithm>

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

std::vector<std::pair<uint64_t, TdsTally>> CostAccountant::Folded() const {
  std::vector<std::pair<uint64_t, TdsTally>> folded = log_;
  std::sort(folded.begin(), folded.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Integer sums commute, so the unstable sort cannot change the totals.
  size_t out = 0;
  for (size_t i = 0; i < folded.size(); ++i) {
    if (out > 0 && folded[out - 1].first == folded[i].first) {
      TdsTally& d = folded[out - 1].second;
      const TdsTally& t = folded[i].second;
      d.bytes_in += t.bytes_in;
      d.bytes_out += t.bytes_out;
      d.tuples += t.tuples;
      d.participations += t.participations;
    } else {
      folded[out++] = folded[i];
    }
  }
  folded.resize(out);
  return folded;
}

std::map<uint64_t, TdsTally> CostAccountant::per_tds() const {
  std::vector<std::pair<uint64_t, TdsTally>> folded = Folded();
  return std::map<uint64_t, TdsTally>(folded.begin(), folded.end());
}

uint64_t CostAccountant::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& t : phases_) {
    total += t.bytes_uploaded + t.bytes_downloaded;
  }
  return total;
}

double CostAccountant::AverageTdsSeconds(const DeviceModel& model) const {
  const std::vector<std::pair<uint64_t, TdsTally>> folded = Folded();
  if (folded.empty()) return 0;
  double total = 0;
  for (const auto& [id, t] : folded) {
    total += model.TransferSeconds(t.bytes_in + t.bytes_out) +
             model.CryptoSeconds(t.bytes_in + t.bytes_out) +
             model.CpuSeconds(t.tuples);
  }
  return total / static_cast<double>(folded.size());
}

}  // namespace tcells::sim
