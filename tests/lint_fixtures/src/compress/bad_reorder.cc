// Fixture: a block pipeline growing a private reorder ring (its own lock,
// condition variable and worker pool) instead of re-sequencing through
// detail::ReorderWindow, the one owner of Mutex, MutexLock, CondVar and
// ThreadPool in src/compress (this comment's mentions do not count).
#include "common/mutex.h"
#include "common/thread_pool.h"

class FixtureBadRing {
 public:
  void mark_ready() {
    strato::common::MutexLock lk(mu_);
    ready_ = true;
  }

 private:
  strato::common::Mutex mu_{"FixtureBadRing::mu_"};
  strato::common::CondVar ready_cv_;
  strato::common::ThreadPool workers_{2};
  bool ready_ = false;
};
