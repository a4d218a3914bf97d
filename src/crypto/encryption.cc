#include "crypto/encryption.h"

#include <cstring>

namespace tcells::crypto {

namespace {

// Big-endian increment of the low 64 bits of a counter block (the tail
// wraps within the low half; IV collisions across 2^64 blocks are out of
// scope).
inline void IncrementCounter(uint8_t counter[16]) {
  for (int i = 15; i >= 8; --i) {
    if (++counter[i] != 0) break;
  }
}

}  // namespace

void CtrXor(const Aes128& aes, const uint8_t iv[16], const uint8_t* in,
            size_t n, uint8_t* out) {
  uint8_t counters[16 * kCtrBatchBlocks];
  uint8_t keystream[16 * kCtrBatchBlocks];
  uint8_t counter[16];
  std::memcpy(counter, iv, 16);
  size_t pos = 0;
  while (pos < n) {
    const size_t blocks =
        std::min(kCtrBatchBlocks, (n - pos + 15) / 16);
    for (size_t b = 0; b < blocks; ++b) {
      std::memcpy(counters + 16 * b, counter, 16);
      IncrementCounter(counter);
    }
    aes.EncryptBlocks(counters, keystream, blocks);
    const size_t take = std::min(n - pos, blocks * 16);
    for (size_t i = 0; i < take; ++i) out[pos + i] = in[pos + i] ^ keystream[i];
    pos += take;
  }
}

// ---------------------------------------------------------------------------
// NDetEnc

NDetEnc::NDetEnc(Aes128 aes, HmacState mac)
    : aes_(aes), mac_(std::move(mac)) {}

Result<NDetEnc> NDetEnc::Create(const Bytes& master_key) {
  if (master_key.size() != Aes128::kKeySize) {
    return Status::InvalidArgument("master key must be 16 bytes");
  }
  Bytes enc_key = DeriveKey(master_key, "ndet-enc");
  Bytes mac_key = DeriveKey(master_key, "ndet-mac");
  TCELLS_ASSIGN_OR_RETURN(Aes128 aes, Aes128::Create(enc_key));
  return NDetEnc(aes, HmacState(mac_key));
}

void NDetEnc::Encrypt(std::span<const uint8_t> plaintext, Rng* rng,
                      Bytes* out) const {
  const size_t n = plaintext.size();
  out->resize(kIvSize + n + kTagSize);
  rng->FillBytes(out->data(), kIvSize);
  CtrXor(aes_, out->data(), plaintext.data(), n, out->data() + kIvSize);
  auto tag = mac_.Mac({out->data(), kIvSize + n});
  std::memcpy(out->data() + kIvSize + n, tag.data(), kTagSize);
}

Bytes NDetEnc::Encrypt(std::span<const uint8_t> plaintext, Rng* rng) const {
  Bytes out;
  Encrypt(plaintext, rng, &out);
  return out;
}

Status NDetEnc::Decrypt(std::span<const uint8_t> ciphertext,
                        uint8_t* out) const {
  if (ciphertext.size() < kOverhead) {
    return Status::Corruption("nDet ciphertext too short");
  }
  // MAC straight over the IV || ciphertext prefix — no body copy.
  const size_t body_size = ciphertext.size() - kTagSize;
  auto tag = mac_.Mac(ciphertext.first(body_size));
  if (!ConstantTimeEqual(tag.data(), ciphertext.data() + body_size,
                         kTagSize)) {
    return Status::Corruption("nDet tag mismatch");
  }
  CtrXor(aes_, ciphertext.data(), ciphertext.data() + kIvSize,
         body_size - kIvSize, out);
  return Status::OK();
}

Result<Bytes> NDetEnc::Decrypt(std::span<const uint8_t> ciphertext) const {
  Bytes plain(ciphertext.size() < kOverhead ? 0
                                            : ciphertext.size() - kOverhead);
  TCELLS_RETURN_IF_ERROR(Decrypt(ciphertext, plain.data()));
  return plain;
}

// ---------------------------------------------------------------------------
// DetEnc

DetEnc::DetEnc(Aes128 aes, HmacState mac)
    : aes_(aes), mac_(std::move(mac)) {}

Result<DetEnc> DetEnc::Create(const Bytes& master_key) {
  if (master_key.size() != Aes128::kKeySize) {
    return Status::InvalidArgument("master key must be 16 bytes");
  }
  Bytes enc_key = DeriveKey(master_key, "det-enc");
  Bytes mac_key = DeriveKey(master_key, "det-siv");
  TCELLS_ASSIGN_OR_RETURN(Aes128 aes, Aes128::Create(enc_key));
  return DetEnc(aes, HmacState(mac_key));
}

void DetEnc::Encrypt(std::span<const uint8_t> plaintext, Bytes* out) const {
  const size_t n = plaintext.size();
  auto siv_full = mac_.Mac(plaintext);
  out->resize(kIvSize + n);
  std::memcpy(out->data(), siv_full.data(), kIvSize);
  CtrXor(aes_, out->data(), plaintext.data(), n, out->data() + kIvSize);
}

Bytes DetEnc::Encrypt(std::span<const uint8_t> plaintext) const {
  Bytes out;
  Encrypt(plaintext, &out);
  return out;
}

Status DetEnc::Decrypt(std::span<const uint8_t> ciphertext,
                       uint8_t* out) const {
  if (ciphertext.size() < kOverhead) {
    return Status::Corruption("Det ciphertext too short");
  }
  const size_t n = ciphertext.size() - kIvSize;
  CtrXor(aes_, ciphertext.data(), ciphertext.data() + kIvSize, n, out);
  auto siv_full = mac_.Mac({out, n});
  if (!ConstantTimeEqual(siv_full.data(), ciphertext.data(), kIvSize)) {
    return Status::Corruption("Det SIV mismatch");
  }
  return Status::OK();
}

Result<Bytes> DetEnc::Decrypt(std::span<const uint8_t> ciphertext) const {
  Bytes plain(ciphertext.size() < kOverhead ? 0
                                            : ciphertext.size() - kOverhead);
  TCELLS_RETURN_IF_ERROR(Decrypt(ciphertext, plain.data()));
  return plain;
}

}  // namespace tcells::crypto
