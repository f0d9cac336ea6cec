// Compressibility probe.
//
// A cheap Shannon byte-entropy estimate. The paper's decision model
// deliberately avoids data inspection, so no policy calls it; tests use it
// as the oracle that validates the corpus generators.
#pragma once

#include <cstddef>

#include "common/bytes.h"

namespace strato::corpus {

/// Shannon entropy of the byte distribution, in bits per byte (0..8).
double shannon_entropy(common::ByteSpan data);

}  // namespace strato::corpus
