// The allow() escape hatch for [reorder]: every use annotated — this file
// must lint clean.
#include "common/mutex.h"

// Lock-contention probe in a standalone diagnostics tool; sanctioned.
// strato-lint: allow(reorder)
strato::common::Mutex g_fixture_probe_mu{"probe"};

void fixture_allowed_reorder() {
  // strato-lint: allow(reorder)
  strato::common::MutexLock lk(g_fixture_probe_mu);
}
