// Umbrella header: the library's public surface.
//
// Fine-grained headers remain available for targeted includes; this one
// pulls in everything an application embedding adaptive compression
// typically needs.
#pragma once

// Foundations.
#include "common/bytes.h"        // byte spans & little-endian helpers
#include "common/checksum.h"     // XXH64
#include "common/rng.h"          // seeded PRNGs
#include "common/sim_time.h"     // SimTime + Clock abstractions
#include "common/stats.h"        // running stats, samples, histograms

// Codecs and framing.
#include "compress/codec.h"      // Codec interface + NullCodec
#include "compress/deflate_lz.h" // LZ77 + Huffman rung
#include "compress/framing.h"    // self-contained block frames
#include "compress/heavy_lz.h"   // LZ77 + range coder (LZMA analogue)
#include "compress/lz77.h"       // FastLz / MediumLz (QuickLZ analogue)
#include "compress/registry.h"   // ordered compression-level ladders
#include "compress/streaming.h"  // cross-block (non-self-contained) mode

// The paper's contribution.
#include "core/baselines.h"      // related-work decision models
#include "core/controller.h"     // Algorithm 1
#include "core/policy.h"         // StaticPolicy / AdaptivePolicy
#include "core/stream.h"         // compressing/decompressing streams
#include "core/tcp.h"            // real TCP transport
#include "core/throttled_pipe.h" // in-process rate-limited transport

// Workloads.
#include "corpus/entropy.h"
#include "corpus/generator.h"

// Dataflow framework (Nephele analogue).
#include "dataflow/channel.h"
#include "dataflow/executor.h"
#include "dataflow/job.h"
#include "dataflow/record.h"
#include "dataflow/serdes.h"
#include "dataflow/stdtasks.h"

// Monitoring.
#include "metrics/cpu.h"
#include "metrics/proc_stat.h"
#include "metrics/timeseries.h"
