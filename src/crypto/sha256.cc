#include "crypto/sha256.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define TCELLS_SHA_X86_64 1
#endif

namespace tcells::crypto {

#if TCELLS_HAVE_SHANI_TU
/// Hardware kernel (sha256_ni.cc, built with -msha).
void Sha256NiProcessBlocks(uint32_t state[8], const uint8_t* data,
                           size_t nblocks);
#endif

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

bool CpuHasShaNi() {
#if defined(TCELLS_SHA_X86_64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // SHA extensions: leaf 7 subleaf 0, EBX bit 29. The kernel also uses
  // SSSE3/SSE4.1 shuffles (leaf 1, ECX bits 9 and 19).
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (!sse) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

bool ResolveUseShaNi() {
  const char* force = std::getenv("TCELLS_FORCE_PORTABLE_SHA");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    return false;
  }
  return ShaNiAvailable();
}

// 0 = not yet resolved, 1 = portable, 2 = sha-ni.
std::atomic<int> g_sha_backend{0};

bool UseShaNi() {
  int v = g_sha_backend.load(std::memory_order_acquire);
  if (v == 0) {
    v = ResolveUseShaNi() ? 2 : 1;
    g_sha_backend.store(v, std::memory_order_release);
  }
  return v == 2;
}

}  // namespace

bool ShaNiAvailable() {
#if TCELLS_HAVE_SHANI_TU
  static const bool supported = CpuHasShaNi();
  return supported;
#else
  return false;
#endif
}

void ForcePortableSha256(bool force) {
  g_sha_backend.store(force ? 1 : 0, std::memory_order_release);
}

const char* ActiveSha256BackendName() {
  return UseShaNi() ? "shani" : "portable";
}

Sha256::Sha256() {
  h_[0] = 0x6a09e667; h_[1] = 0xbb67ae85; h_[2] = 0x3c6ef372; h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f; h_[5] = 0x9b05688c; h_[6] = 0x1f83d9ab; h_[7] = 0x5be0cd19;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t nblocks) {
#if TCELLS_HAVE_SHANI_TU
  if (UseShaNi()) {
    Sha256NiProcessBlocks(h_, data, nblocks);
    return;
  }
#endif
  for (size_t b = 0; b < nblocks; ++b, data += kBlockSize) {
    ProcessOneBlockPortable(data);
  }
}

void Sha256::ProcessOneBlockPortable(const uint8_t block[kBlockSize]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
           static_cast<uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g; g = f; f = e; e = d + temp1;
    d = c; c = b; b = a; a = temp1 + temp2;
  }
  h_[0] += a; h_[1] += b; h_[2] += c; h_[3] += d;
  h_[4] += e; h_[5] += f; h_[6] += g; h_[7] += h;
}

void Sha256::Update(std::span<const uint8_t> input) {
  const uint8_t* data = input.data();
  size_t n = input.size();
  total_len_ += n;
  if (buffer_len_ > 0) {
    size_t take = std::min(n, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    n -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= kBlockSize) {
    const size_t nblocks = n / kBlockSize;
    ProcessBlocks(data, nblocks);
    data += nblocks * kBlockSize;
    n -= nblocks * kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_, data, n);
    buffer_len_ = n;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad = 0x80;
  Update({&pad, 1});
  uint8_t zero = 0;
  while (buffer_len_ != 56) Update({&zero, 1});
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (8 * (7 - i)));
  }
  // Bypass Update for the length to keep total_len_ bookkeeping simple.
  std::memcpy(buffer_ + 56, len_bytes, 8);
  ProcessBlocks(buffer_, 1);
  std::array<uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(const Bytes& data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

}  // namespace tcells::crypto
