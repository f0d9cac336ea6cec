// Fixture: per-job shared state in src/. A future, a promise, a packaged
// task or std::async each allocate per job; post a job that publishes its
// own result instead (this comment's std::future<int> does not count).
#include <future>

int fixture_bad_future() {
  std::promise<int> done;
  std::future<int> result = done.get_future();
  std::shared_future<int> shared = result.share();
  std::packaged_task<int()> task([] { return 1; });
  auto later = std::async([] { return 2; });
  done.set_value(3);
  task();
  return shared.get() + later.get();
}
