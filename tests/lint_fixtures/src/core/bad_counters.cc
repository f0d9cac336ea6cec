// Fixture: a stream front-end keeping a private tally by resolving
// registry names itself instead of going through metrics::BlockCounters
// (this comment's mention of "tx.blocks.level" does not count).
#include <string>

#include "metrics/registry.h"

void fixture_bad_counters(strato::metrics::MetricRegistry& registry,
                          strato::metrics::MetricRegistry* maybe) {
  registry.counter("tx.frames").add();
  maybe->gauge("tx.queued_bytes").add(1);
  registry.counter("rx.blocks.level" + std::to_string(3)).add();
}
