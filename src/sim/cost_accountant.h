// CostAccountant: tallies what a protocol run actually moved and computed,
// per phase and per TDS, while the run executes functionally. The figures of
// §6.3 are then derived by combining these tallies with a DeviceModel.
#ifndef TCELLS_SIM_COST_ACCOUNTANT_H_
#define TCELLS_SIM_COST_ACCOUNTANT_H_

#include <cstdint>
#include <map>

#include "sim/device_model.h"

namespace tcells::sim {

/// The three phases of the generic protocol (§4.1).
enum class Phase { kCollection = 0, kAggregation = 1, kFiltering = 2 };

const char* PhaseToString(Phase phase);

/// Totals for one phase. It is also the unit of accounting: each
/// aggregation/filtering round and each collection tick folds its facts into
/// one PhaseTally delta, and every sink (accountant, RunMetrics, span counts,
/// registry counters) receives a copy of that delta.
struct PhaseTally {
  uint64_t bytes_uploaded = 0;     ///< TDS -> SSI
  uint64_t bytes_downloaded = 0;   ///< SSI -> TDS
  uint64_t tuples_processed = 0;   ///< tuples deserialized/aggregated on TDSs
  /// Partition assignments to a TDS; in collection, accepted uploads.
  uint64_t partitions = 0;
  /// Aggregation/filtering rounds; in collection, connection ticks.
  uint64_t iterations = 0;
  uint64_t dropouts = 0;           ///< partitions re-dispatched after a loss
  /// Partitions the round completed without (transport retry budget spent,
  /// or tampered below).
  uint64_t partitions_lost = 0;
  /// Partitions whose input or output came back from the SSI altered; each
  /// is also counted in partitions_lost.
  uint64_t partitions_tampered = 0;

  PhaseTally& operator+=(const PhaseTally& delta);
};

/// Per-TDS work (to derive T_local and the parallelism profile).
struct TdsTally {
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t tuples = 0;
  uint64_t participations = 0;
};

/// Accumulates tallies during a protocol run.
class CostAccountant {
 public:
  /// Adds one round's or one collection tick's delta to `phase`.
  void Add(Phase phase, const PhaseTally& delta) {
    phases_[static_cast<int>(phase)] += delta;
  }
  /// Records one TDS handling one partition (or one collection upload).
  void RecordTds(uint64_t tds_id, uint64_t bytes_in, uint64_t bytes_out,
                 uint64_t tuples);

  const PhaseTally& phase(Phase p) const {
    return phases_[static_cast<int>(p)];
  }
  const std::map<uint64_t, TdsTally>& per_tds() const { return per_tds_; }

  /// Number of distinct TDSs that participated anywhere — P_TDS.
  size_t DistinctTds() const { return per_tds_.size(); }

  /// Total bytes through the system — Load_Q.
  uint64_t TotalBytes() const;

  /// Average per-TDS busy time under `model` — T_local.
  double AverageTdsSeconds(const DeviceModel& model) const;

 private:
  PhaseTally phases_[3];
  std::map<uint64_t, TdsTally> per_tds_;
};

}  // namespace tcells::sim

#endif  // TCELLS_SIM_COST_ACCOUNTANT_H_
