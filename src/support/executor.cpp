#include "support/executor.hpp"

#include <algorithm>

#include "support/faultpoint.hpp"

namespace ac {

void FailState::capture(std::size_t chunk) noexcept {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_ || chunk < chunk_) {
      error_ = std::current_exception();
      chunk_ = chunk;
    }
  }
  cancelled_.store(true, std::memory_order_release);
}

bool FailState::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_ != nullptr;
}

void FailState::rethrow_if_failed() const {
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(mu_);
    e = error_;
  }
  if (e) std::rethrow_exception(e);
}

void WorkerGroup::spawn(std::function<void()> fn) {
  try {
    threads_.emplace_back([this, fn = std::move(fn)] {
      try {
        fn();
      } catch (...) {
        fail_.capture();
      }
    });
  } catch (...) {
    // Thread creation failed (resource exhaustion): wind the region down and
    // let the system_error propagate — the destructor joins what started.
    fail_.cancel();
    throw;
  }
}

void WorkerGroup::join() noexcept {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

namespace {

int resolve_threads(int threads, std::size_t n) {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  if (threads > 256) threads = 256;  // a runaway request must not exhaust thread stacks
  return static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads),
                                                n ? n : 1));
}

}  // namespace

void run_chunks(std::size_t n, const ExecutorOptions& opts,
                const std::function<void(std::size_t)>& task,
                const std::function<void(std::size_t)>& on_ready) {
  FailState fail;
  const int threads = resolve_threads(opts.threads, n);

  if (threads <= 1) {
    // Inline serial execution with the exact parallel semantics: in-order
    // task + consume, stop at the first failure, error kept in `fail`.
    for (std::size_t c = 0; c < n && !fail.cancelled(); ++c) {
      try {
        AC_FAULT("exec.chunk.claim");
        task(c);
        if (on_ready) on_ready(c);
      } catch (...) {
        fail.capture(c);
      }
    }
    fail.rethrow_if_failed();
    return;
  }

  // One mutex guards the claim cursor, the consumed count and the ready
  // flags; chunks are coarse (tasks run unlocked), so contention is nil.
  std::mutex mu;
  std::condition_variable cv_ready;  // consumer waits for ready[next] / cancel
  std::condition_variable cv_slots;  // workers wait for an in-flight slot / cancel
  std::vector<char> ready(n, 0);
  std::size_t next = 0;
  std::size_t consumed = 0;
  const std::size_t bound =
      (on_ready && opts.max_in_flight > 0) ? std::max<std::size_t>(opts.max_in_flight, 1) : n;

  // Taking (and dropping) the mutex between a predicate change and the
  // notify closes the classic check-then-sleep window for waiters that
  // evaluated the predicate just before the change.
  const auto wake_all = [&] {
    { std::lock_guard<std::mutex> lock(mu); }
    cv_ready.notify_all();
    cv_slots.notify_all();
  };

  const auto worker = [&] {
    for (;;) {
      std::size_t c;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_slots.wait(lock, [&] {
          return fail.cancelled() || next >= n || next - consumed < bound;
        });
        if (fail.cancelled() || next >= n) return;
        c = next++;
      }
      try {
        AC_FAULT("exec.chunk.claim");
        task(c);
      } catch (...) {
        fail.capture(c);
        wake_all();
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ready[c] = 1;
        if (!on_ready) ++consumed;  // nothing to deliver: the chunk is done
      }
      cv_ready.notify_all();
      cv_slots.notify_all();
    }
  };

  WorkerGroup pool(fail);
  try {
    for (int t = 0; t < threads; ++t) pool.spawn(worker);
  } catch (...) {
    // spawn() cancelled the region; wake already-running workers off the
    // slot wait so the WorkerGroup destructor's join can finish.
    wake_all();
    throw;
  }

  if (on_ready) {
    for (std::size_t c = 0; c < n; ++c) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_ready.wait(lock, [&] { return ready[c] != 0 || fail.cancelled(); });
      }
      if (fail.cancelled()) break;
      try {
        on_ready(c);
      } catch (...) {
        fail.capture(c);
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++consumed;
      }
      cv_slots.notify_all();
    }
    // A consumer-side failure (or break on cancel) leaves workers parked on
    // the slot/claim waits; the flag is set, they just need the wakeup.
    wake_all();
  }

  pool.join();
  fail.rethrow_if_failed();
}

}  // namespace ac
