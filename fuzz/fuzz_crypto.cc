// Fuzz harness for the Det_Enc / nDet_Enc open paths fed attacker-controlled
// ciphertexts (the bytes a TDS or querier receives from a compromised SSI).
//
// Input: one selector byte, then the ciphertext (or plaintext for mode 3):
//   0 -> k2 nDet_Enc Decrypt (TDS opening collection items)
//   1 -> k2 Det_Enc Decrypt (tagged items in the Noise protocols)
//   2 -> k1 nDet_Enc Decrypt (querier opening result rows)
//   3 -> treat the body as plaintext: encrypt/decrypt round-trip must
//        succeed bit-exactly, and a one-byte tamper must be rejected.
// Keys are the CreateForTest keys the corpus run used, so corpus blobs are
// valid ciphertexts and mutants are close misses — the interesting region
// for MAC/SIV verification and bounds checks.
#include "crypto/keystore.h"
#include "fuzz_util.h"
#include "ssi/messages.h"

using tcells::Bytes;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::shared_ptr<const tcells::crypto::KeyStore>& keys =
      *new std::shared_ptr<const tcells::crypto::KeyStore>(
          tcells::crypto::KeyStore::CreateForTest(7));
  if (size == 0) return 0;
  const uint8_t selector = data[0] % 4;
  Bytes input(data + 1, data + size);
  switch (selector) {
    case 0:
    case 2: {
      const tcells::crypto::NDetEnc& enc =
          selector == 0 ? keys->k2_ndet() : keys->k1_ndet();
      tcells::Result<Bytes> plain = enc.Decrypt(input);
      if (plain.ok()) {
        // A mutant passing the MAC is effectively a forgery; the only inputs
        // that may decrypt are unmutated corpus blobs, whose payloads must
        // still decode. Either way the payload decoder sees the bytes next.
        (void)tcells::ssi::DecodePayload(*plain);
      }
      break;
    }
    case 1: {
      tcells::Result<Bytes> plain = keys->k2_det().Decrypt(input);
      if (plain.ok()) {
        (void)tcells::ssi::DecodePayload(*plain);
      }
      break;
    }
    default: {
      // Self-check: sealing attacker-chosen plaintext and opening it must be
      // the identity, and flipping any single byte must be caught.
      tcells::Rng rng(0x5eedu ^ size);
      Bytes ndet = keys->k2_ndet().Encrypt(input, &rng);
      tcells::Result<Bytes> ndet_open = keys->k2_ndet().Decrypt(ndet);
      FUZZ_ASSERT(ndet_open.ok() && *ndet_open == input);
      ndet[rng.NextBelow(ndet.size())] ^= 0x01;
      FUZZ_ASSERT(!keys->k2_ndet().Decrypt(ndet).ok());

      Bytes det = keys->k2_det().Encrypt(input);
      tcells::Result<Bytes> det_open = keys->k2_det().Decrypt(det);
      FUZZ_ASSERT(det_open.ok() && *det_open == input);
      det[rng.NextBelow(det.size())] ^= 0x01;
      FUZZ_ASSERT(!keys->k2_det().Decrypt(det).ok());
      break;
    }
  }
  return 0;
}
