// The two symmetric encryption schemes the paper's protocols rely on:
//
//  * nDet_Enc — probabilistic (non-deterministic) encryption: AES-128-CTR
//    under a fresh random IV, plus an HMAC tag (encrypt-then-MAC). Several
//    encryptions of the same message yield different ciphertexts, so an
//    honest-but-curious SSI cannot run frequency-based attacks.
//
//  * Det_Enc — deterministic encryption: SIV construction, IV =
//    HMAC(k_mac, plaintext) truncated to 16 bytes, then AES-128-CTR. Equal
//    plaintexts yield equal ciphertexts (this is what lets SSI group tuples
//    by Det_Enc(A_G) in the Noise protocols), and the synthetic IV doubles
//    as an authenticator on decryption.
//
// Both schemes are key-separated from a single 16-byte master key via
// DeriveKey labels, and both precompute their HMAC key state at Create time
// so the per-tuple MAC costs two compression calls, not four.
//
// Every Encrypt/Decrypt takes its input as a span and has one body with a
// caller-owned output: Encrypt into a Bytes whose capacity is reused,
// Decrypt into a caller-sized buffer. The hot paths (TDS seal/open of every
// tuple in every partition) pass per-thread scratch or arena storage and
// never allocate once warmed; the Bytes/Result-returning forms are thin
// adapters over the same bodies.
#ifndef TCELLS_CRYPTO_ENCRYPTION_H_
#define TCELLS_CRYPTO_ENCRYPTION_H_

#include <cstdint>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"

namespace tcells::crypto {

/// Probabilistic authenticated encryption (nDet_Enc in the paper).
/// Wire format: IV(16) || CTR-ciphertext(len) || tag(8).
class NDetEnc {
 public:
  static constexpr size_t kIvSize = 16;
  static constexpr size_t kTagSize = 8;
  /// Ciphertext expansion over the plaintext length.
  static constexpr size_t kOverhead = kIvSize + kTagSize;

  /// `master_key` must be 16 bytes; enc and mac subkeys are derived from it.
  static Result<NDetEnc> Create(const Bytes& master_key);

  /// Encrypts with a fresh IV drawn from `rng` (the simulation's reproducible
  /// entropy source standing in for the token's hardware TRNG) into `out`
  /// (overwritten; capacity reused).
  void Encrypt(std::span<const uint8_t> plaintext, Rng* rng, Bytes* out) const;
  /// Same, returning a fresh buffer.
  Bytes Encrypt(std::span<const uint8_t> plaintext, Rng* rng) const;

  /// Verifies the tag, then writes exactly `ciphertext.size() - kOverhead`
  /// plaintext bytes to `out` (caller-sized, e.g. arena-backed). Corruption
  /// on a short ciphertext or a tag mismatch; `out` is untouched then.
  Status Decrypt(std::span<const uint8_t> ciphertext, uint8_t* out) const;
  /// Same, returning a fresh buffer.
  Result<Bytes> Decrypt(std::span<const uint8_t> ciphertext) const;

 private:
  NDetEnc(Aes128 aes, HmacState mac);

  Aes128 aes_;
  HmacState mac_;
};

/// Deterministic authenticated encryption (Det_Enc in the paper), SIV-style.
/// Wire format: SIV(16) || CTR-ciphertext(len).
class DetEnc {
 public:
  static constexpr size_t kIvSize = 16;
  static constexpr size_t kOverhead = kIvSize;

  static Result<DetEnc> Create(const Bytes& master_key);

  /// Same plaintext (under the same key) always produces the same bytes.
  /// Writes into `out` (overwritten; capacity reused).
  void Encrypt(std::span<const uint8_t> plaintext, Bytes* out) const;
  /// Same, returning a fresh buffer.
  Bytes Encrypt(std::span<const uint8_t> plaintext) const;

  /// Decrypts exactly `ciphertext.size() - kOverhead` bytes into `out`
  /// (caller-sized) and recomputes the SIV over them; Corruption on a short
  /// ciphertext or a mismatch. The SIV can only be checked after decrypting,
  /// so `out` holds unauthenticated bytes on a mismatch: discard it.
  Status Decrypt(std::span<const uint8_t> ciphertext, uint8_t* out) const;
  /// Same, returning a fresh buffer.
  Result<Bytes> Decrypt(std::span<const uint8_t> ciphertext) const;

 private:
  DetEnc(Aes128 aes, HmacState mac);

  Aes128 aes_;
  HmacState mac_;
};

/// AES-CTR keystream XOR shared by both schemes (exposed for tests). The
/// keystream is generated in batches of blocks (see kCtrBatchBlocks) straight
/// into a stack buffer; output is identical to block-at-a-time CTR.
void CtrXor(const Aes128& aes, const uint8_t iv[16], const uint8_t* in,
            size_t n, uint8_t* out);

/// Number of keystream blocks CtrXor generates per cipher call.
inline constexpr size_t kCtrBatchBlocks = 8;

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_ENCRYPTION_H_
