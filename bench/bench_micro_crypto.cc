// Micro-benchmarks (google-benchmark) for the unit operations that calibrate
// the cost model (§6.2): AES block, SHA-256, HMAC, the two encryption
// schemes, tuple codec, SQL parsing and partial aggregation.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/aes_dispatch.h"
#include "crypto/encryption.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "sql/aggregates.h"
#include "sql/parser.h"
#include "storage/tuple.h"

namespace tcells {
namespace {

// Backend-parameterized benchmarks take an arg 0 = portable, 1 = AES-NI.
// Returns false (and skips the benchmark) when the requested backend is not
// available on this machine; restores default dispatch at benchmark teardown
// via the caller-side ForceAesBackend(nullopt) below.
bool SelectBackend(benchmark::State& state, int64_t which) {
  if (which == 0) {
    crypto::ForceAesBackend(crypto::AesBackend::kPortable);
    state.SetLabel("portable");
    return true;
  }
  if (!crypto::AesNiAvailable()) {
    state.SkipWithError("AES-NI not available");
    return false;
  }
  crypto::ForceAesBackend(crypto::AesBackend::kAesNi);
  state.SetLabel("aesni");
  return true;
}

void RestoreBackend() { crypto::ForceAesBackend(std::nullopt); }

void BM_AesBlockEncrypt(benchmark::State& state) {
  if (!SelectBackend(state, state.range(0))) return;
  Rng rng(1);
  auto aes = crypto::Aes128::Create(rng.NextBytes(16)).ValueOrDie();
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
  RestoreBackend();
}
BENCHMARK(BM_AesBlockEncrypt)->Arg(0)->Arg(1);

void BM_AesBlockDecrypt(benchmark::State& state) {
  if (!SelectBackend(state, state.range(0))) return;
  Rng rng(1);
  auto aes = crypto::Aes128::Create(rng.NextBytes(16)).ValueOrDie();
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.DecryptBlock(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
  RestoreBackend();
}
BENCHMARK(BM_AesBlockDecrypt)->Arg(0)->Arg(1);

void BM_AesEncryptBlocks64(benchmark::State& state) {
  if (!SelectBackend(state, state.range(0))) return;
  Rng rng(1);
  auto aes = crypto::Aes128::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes buf = rng.NextBytes(64 * 16);
  for (auto _ : state) {
    aes.EncryptBlocks(buf.data(), buf.data(), 64);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(state.iterations() * 64 * 16);
  RestoreBackend();
}
BENCHMARK(BM_AesEncryptBlocks64)->Arg(0)->Arg(1);

void BM_AesDecryptBlocks64(benchmark::State& state) {
  if (!SelectBackend(state, state.range(0))) return;
  Rng rng(1);
  auto aes = crypto::Aes128::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes buf = rng.NextBytes(64 * 16);
  for (auto _ : state) {
    aes.DecryptBlocks(buf.data(), buf.data(), 64);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(state.iterations() * 64 * 16);
  RestoreBackend();
}
BENCHMARK(BM_AesDecryptBlocks64)->Arg(0)->Arg(1);

void BM_CtrXor4k(benchmark::State& state) {
  if (!SelectBackend(state, state.range(0))) return;
  Rng rng(1);
  auto aes = crypto::Aes128::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes iv = rng.NextBytes(16);
  Bytes in = rng.NextBytes(4096);
  Bytes out(in.size());
  for (auto _ : state) {
    crypto::CtrXor(aes, iv.data(), in.data(), in.size(), out.data());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * 4096);
  RestoreBackend();
}
BENCHMARK(BM_CtrXor4k)->Arg(0)->Arg(1);

void BM_Sha256(benchmark::State& state) {
  Rng rng(2);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto d = crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(3);
  Bytes key = rng.NextBytes(16);
  Bytes data = rng.NextBytes(64);
  for (auto _ : state) {
    auto d = crypto::HmacSha256(key, data);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_HmacSha256);

void BM_HmacStateMac(benchmark::State& state) {
  Rng rng(3);
  crypto::HmacState mac(rng.NextBytes(16));
  Bytes data = rng.NextBytes(64);
  for (auto _ : state) {
    auto d = mac.Mac(data);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_HmacStateMac);

// Scheme benchmarks take Args({size, backend}).
void BM_NDetEncrypt(benchmark::State& state) {
  Rng rng(4);
  auto scheme = crypto::NDetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes pt = rng.NextBytes(static_cast<size_t>(state.range(0)));
  const int64_t size = state.range(0);
  if (!SelectBackend(state, state.range(1))) return;
  Bytes ct;
  for (auto _ : state) {
    scheme.Encrypt(pt, &rng, &ct);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(state.iterations() * size);
  RestoreBackend();
}
BENCHMARK(BM_NDetEncrypt)
    ->Args({16, 0})->Args({16, 1})->Args({4096, 0})->Args({4096, 1});

void BM_NDetDecrypt(benchmark::State& state) {
  Rng rng(5);
  auto scheme = crypto::NDetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes ct = scheme.Encrypt(rng.NextBytes(static_cast<size_t>(state.range(0))),
                            &rng);
  const int64_t size = state.range(0);
  if (!SelectBackend(state, state.range(1))) return;
  Bytes pt(static_cast<size_t>(size));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.Decrypt(ct, pt.data()).ok());
    benchmark::DoNotOptimize(pt);
  }
  state.SetBytesProcessed(state.iterations() * size);
  RestoreBackend();
}
BENCHMARK(BM_NDetDecrypt)
    ->Args({16, 0})->Args({16, 1})->Args({4096, 0})->Args({4096, 1});

void BM_DetEncrypt(benchmark::State& state) {
  if (!SelectBackend(state, state.range(0))) return;
  Rng rng(6);
  auto scheme = crypto::DetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes pt = rng.NextBytes(32);
  Bytes ct;
  for (auto _ : state) {
    scheme.Encrypt(pt, &ct);
    benchmark::DoNotOptimize(ct);
  }
  RestoreBackend();
}
BENCHMARK(BM_DetEncrypt)->Arg(0)->Arg(1);

void BM_DetDecrypt(benchmark::State& state) {
  if (!SelectBackend(state, state.range(0))) return;
  Rng rng(6);
  auto scheme = crypto::DetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes ct = scheme.Encrypt(rng.NextBytes(1024));
  Bytes pt(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.Decrypt(ct, pt.data()).ok());
    benchmark::DoNotOptimize(pt);
  }
  state.SetBytesProcessed(state.iterations() * 1024);
  RestoreBackend();
}
BENCHMARK(BM_DetDecrypt)->Arg(0)->Arg(1);

void BM_DetRoundtrip(benchmark::State& state) {
  if (!SelectBackend(state, state.range(0))) return;
  Rng rng(6);
  auto scheme = crypto::DetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes pt = rng.NextBytes(1024);
  Bytes ct, back(pt.size());
  for (auto _ : state) {
    scheme.Encrypt(pt, &ct);
    benchmark::DoNotOptimize(scheme.Decrypt(ct, back.data()).ok());
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * 1024);
  RestoreBackend();
}
BENCHMARK(BM_DetRoundtrip)->Arg(0)->Arg(1);

void BM_TupleCodec(benchmark::State& state) {
  storage::Tuple t({storage::Value::String("D042"),
                    storage::Value::Double(1.25),
                    storage::Value::Int64(7)});
  for (auto _ : state) {
    Bytes buf = t.Encode();
    auto back = storage::Tuple::Decode(buf);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_TupleCodec);

void BM_ParseFlagshipQuery(benchmark::State& state) {
  const std::string sql =
      "SELECT AVG(Cons) FROM Power P, Consumer C "
      "WHERE C.accomodation='detached house' AND C.cid = P.cid "
      "GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 100 SIZE 50000";
  for (auto _ : state) {
    auto stmt = sql::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseFlagshipQuery);

void BM_PartialAggregation(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  sql::AggSpec spec;
  spec.kind = sql::AggKind::kAvg;
  spec.input_index = 1;
  Rng rng(8);
  std::vector<storage::Tuple> tuples;
  for (int i = 0; i < 1024; ++i) {
    tuples.push_back(storage::Tuple(
        {storage::Value::Int64(static_cast<int64_t>(rng.NextBelow(groups))),
         storage::Value::Double(rng.NextDouble())}));
  }
  for (auto _ : state) {
    sql::GroupedAggregation agg({spec});
    for (const auto& t : tuples) {
      benchmark::DoNotOptimize(agg.AccumulateTuple(t, 1).ok());
    }
    benchmark::DoNotOptimize(agg.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PartialAggregation)->Arg(4)->Arg(256);

}  // namespace
}  // namespace tcells
