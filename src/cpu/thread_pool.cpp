#include "cpu/thread_pool.h"

namespace lddp::cpu {

namespace {

std::size_t checked_workers(std::size_t num_threads) {
  LDDP_CHECK_MSG(num_threads >= 1, "pool needs at least one thread");
  return num_threads - 1;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : owned_(std::make_unique<StealingExecutor>(checked_workers(num_threads))),
      exec_(owned_.get()) {}

ThreadPool::ThreadPool(StealingExecutor* exec) : exec_(exec) {
  LDDP_CHECK_MSG(exec != nullptr, "pool needs an executor");
}

ThreadPool& shared_stealing_pool() {
  static ThreadPool pool(&shared_executor());
  return pool;
}

}  // namespace lddp::cpu
