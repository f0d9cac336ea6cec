// Fixture: environment reads outside common/simd.h and verify/seed.h —
// each one is an unreviewed knob (this comment's getenv("X") does not
// count).
#include <cstdlib>

int fixture_bad_env() {
  const char* a = std::getenv("STRATO_FIXTURE_DEPTH");
  const char* b = getenv("STRATO_FIXTURE_CHUNK");
  const char* c = ::secure_getenv("STRATO_FIXTURE_POISON");
  return (a != nullptr) + (b != nullptr) + (c != nullptr);
}
