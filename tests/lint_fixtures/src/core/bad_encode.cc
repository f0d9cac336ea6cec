// Fixture: a front-end encoding frames itself instead of submitting
// blocks to compress::ParallelBlockPipeline, the one caller of
// encode_block_into() outside compress/framing.* (this comment's mention
// does not count).
#include "compress/framing.h"

void fixture_bad_encode(const strato::compress::Codec& codec,
                        strato::common::ByteSpan payload,
                        strato::common::Bytes& frame) {
  strato::compress::encode_block_into(codec, 1, payload, frame);
  using strato::compress::encode_block_into;
  encode_block_into (codec, 2, payload, frame);
}
