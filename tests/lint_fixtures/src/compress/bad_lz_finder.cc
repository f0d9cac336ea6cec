// Fixture: a codec walking its own hash chains over the shared per-thread
// scratch instead of searching through detail::HashChainFinder, the one
// user of MatchScratch and match_scratch() outside compress/lz_common.h
// (this comment's mentions do not count).
#include "compress/lz_common.h"

void fixture_bad_lz_finder(strato::common::ByteSpan src) {
  strato::compress::detail::MatchScratch& scratch =
      strato::compress::detail::match_scratch ();
  scratch.prepare(16, src.size());
  using strato::compress::detail::MatchScratch;
}
