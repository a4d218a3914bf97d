// Fuzz harness for storage::Tuple and sql::GroupedAggregation span decoding.
//
// Input: one selector byte, then the encoded body.
//   0            -> Tuple::Decode (accepted tuples must re-encode identical,
//                   and the scratch form must decode the same tuple)
//   1 + k        -> GroupedAggregation::Decode against canned spec set k
//                   (see fuzz_specs.h; make_corpus tags bodies the same way).
//   0xFF         -> EquiDepthHistogram::Decode (a dedicated selector value so
//                   the legacy modulo mapping of the committed corpus is
//                   untouched). Accepted histograms must re-encode identical
//                   and keep BucketOf inside the bucket range — the
//                   lower_bound contract a forged encoding used to break.
// Accepted aggregations additionally run Finalize and MemoryFootprint so the
// post-decode arithmetic paths see hostile states too.
#include <algorithm>
#include <span>
#include <vector>

#include "fuzz_specs.h"
#include "fuzz_util.h"
#include "sql/aggregates.h"
#include "storage/tuple.h"
#include "storage/value.h"
#include "tds/histogram.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::vector<std::vector<tcells::sql::AggSpec>>& spec_sets =
      *new std::vector<std::vector<tcells::sql::AggSpec>>(
          tcells::fuzz::SpecSets());
  if (size == 0) return 0;
  if (data[0] == 0xFF) {
    tcells::Bytes input(data + 1, data + size);
    tcells::Result<tcells::tds::EquiDepthHistogram> hist =
        tcells::tds::EquiDepthHistogram::Decode(input);
    if (hist.ok()) {
      tcells::Bytes re;
      hist->EncodeTo(&re);
      FUZZ_ASSERT(re == input);
      tcells::storage::Tuple probe({tcells::storage::Value::Int64(0)});
      FUZZ_ASSERT(hist->BucketOf(probe) <
                  std::max<size_t>(1, hist->num_buckets()));
      (void)hist->CollisionFactor();
    }
    return 0;
  }
  const uint8_t selector = data[0] % (1 + spec_sets.size());
  const std::span<const uint8_t> body(data + 1, size - 1);
  if (selector == 0) {
    tcells::Result<tcells::storage::Tuple> tuple =
        tcells::storage::Tuple::Decode(body);
    if (tuple.ok()) {
      FUZZ_ASSERT(tuple->Encode() == tcells::Bytes(body.begin(), body.end()));
      // The capacity-reusing form decodes the same tuple into a scratch
      // that already holds values.
      tcells::storage::Tuple scratch({tcells::storage::Value::Int64(1),
                                      tcells::storage::Value::Null()});
      FUZZ_ASSERT(tcells::storage::Tuple::Decode(body, &scratch).ok());
      FUZZ_ASSERT(scratch.Encode() == tuple->Encode());
    }
    return 0;
  }
  const auto& specs = spec_sets[selector - 1];
  tcells::Result<tcells::sql::GroupedAggregation> agg =
      tcells::sql::GroupedAggregation::Decode(specs, body);
  if (!agg.ok()) return 0;
  (void)agg->MemoryFootprint();
  for (const auto& [key, states] : agg->groups()) {
    (void)key.ToString();
    for (const auto& state : states) {
      // Finalize may fail on adversarial states (e.g. overflow markers); it
      // must do so via Status, never by crashing.
      (void)state.Finalize();
    }
  }
  return 0;
}
