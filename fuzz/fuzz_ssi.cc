// Fuzz harness for the SSI message codecs.
//
// Input: one selector byte, then the payload for the selected codec:
//   0 -> QueryPost::Decode
//   1 -> Partition::Decode (accepted partitions must re-encode bit-identical)
//   2 -> a stream of EncryptedItem::DecodeFrom reads
//   3 -> DecodePayload (an accepted payload's header and body must
//        re-encode to the input's prefix)
// Corpus files carry the selector as their first byte (see make_corpus.cc).
#include <cstring>

#include "common/bytes.h"
#include "fuzz_util.h"
#include "ssi/messages.h"

using tcells::Bytes;
using tcells::ByteReader;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t selector = data[0] % 4;
  Bytes input(data + 1, data + size);
  switch (selector) {
    case 0: {
      (void)tcells::ssi::QueryPost::Decode(input);
      break;
    }
    case 1: {
      tcells::Result<tcells::ssi::Partition> partition =
          tcells::ssi::Partition::Decode(input);
      if (partition.ok()) {
        // The wire format is canonical: decode rejects trailing bytes and
        // every field is written one way, so re-encoding an accepted
        // partition must reproduce the input exactly.
        FUZZ_ASSERT(partition->Encode() == input);
      }
      break;
    }
    case 2: {
      ByteReader reader(input);
      while (!reader.AtEnd()) {
        tcells::Result<tcells::ssi::EncryptedItem> item =
            tcells::ssi::EncryptedItem::DecodeFrom(&reader);
        if (!item.ok()) break;
      }
      break;
    }
    default: {
      tcells::Result<tcells::ssi::PayloadView> view =
          tcells::ssi::DecodePayload(input);
      if (view.ok()) {
        // The body is a view right behind the 5-byte header, inside the
        // input; only zero padding may follow it.
        FUZZ_ASSERT(view->body.data() == input.data() + 5);
        FUZZ_ASSERT(5 + view->body.size() <= input.size());
        Bytes re;
        tcells::ssi::EncodePayload(view->kind, view->body, 0, &re);
        FUZZ_ASSERT(std::memcmp(re.data(), input.data(), re.size()) == 0);
      }
      break;
    }
  }
  return 0;
}
