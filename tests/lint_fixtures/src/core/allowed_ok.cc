// Fixture: every violation in this file is suppressed with the
// `// strato-lint: allow(<rule>)` escape hatch — the selftest requires
// the linter to report nothing here.
#include <cstdio>
#include <mutex>
#include <sys/socket.h>

// Interop with a pre-wrapper third-party callback that hands us a raw
// mutex; sanctioned exception.
// strato-lint: allow(raw-mutex)
static std::mutex g_fixture_legacy_mu;

void fixture_allowed_print(int v) {
  printf("%d\n", v);  // strato-lint: allow(stdout) — CLI tool output
}

int fixture_allowed_socket() {
  // Diagnostics probe in a standalone CLI tool; sanctioned exception.
  return ::socket(AF_INET, SOCK_DGRAM, 0);  // strato-lint: allow(socket)
}

void fixture_allowed_encode(const Codec& codec, ByteSpan payload,
                            Bytes& frame) {
  // Reference encoder in a standalone verification tool; sanctioned.
  // strato-lint: allow(encode)
  encode_block_into(codec, 0, payload, frame);
}

int fixture_allowed_decision(const AdaptiveConfig& config,
                             ControllerState& st) {
  // Replays a recorded cdr in a standalone verification tool; sanctioned.
  // strato-lint: allow(decision)
  return controller_step(config, st, 1.0).level;
}

void fixture_allowed_counters(MetricRegistry& registry) {
  // Registry health probe in a standalone diagnostics tool; sanctioned.
  // strato-lint: allow(counters)
  registry.counter("probe.blocks.level0").add();
}

const char* fixture_allowed_env() {
  // Locale probe in a standalone diagnostics tool; sanctioned.
  // strato-lint: allow(env)
  return std::getenv("LANG");
}
