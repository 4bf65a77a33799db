// One executor under every chunked path: the text parse (read_trace_buffer,
// whose one-thread case is this executor run inline) and the MCTB parallel
// decode. A parallel error keeps its original type and message (CodecError
// vs TraceFormatError vs bad_alloc), and no chunk is claimed after a
// failure. This header is the single implementation of that logic:
//
//   FailState     first-error capture as std::exception_ptr (the lowest
//                 failing chunk index wins, which makes the parallel error
//                 byte-identical to the serial one) plus a cooperative
//                 cancellation flag every stage can poll;
//   WorkerGroup   an RAII thread group whose workers trap escaping
//                 exceptions into a shared FailState instead of
//                 std::terminate;
//   run_chunks    the ordered-ready chunk executor: workers claim chunk
//                 indices in order, the *calling* thread consumes finished
//                 chunks strictly in index order (so single-threaded
//                 consumers like TraceBuffer splicing need no locks), claimed
//                 -but-unconsumed chunks are bounded (memory backpressure),
//                 and after a first failure unclaimed chunks are cancelled —
//                 failure on chunk 1 of 1000 must not parse the other 999.
//
// Determinism argument for error identity: chunk indices are claimed from a
// shared counter, so the set of chunks ever started is a prefix [0, k] of
// the range. The serial path fails at the first failing chunk f; in the
// parallel run every chunk < f succeeds and f is inside the started prefix,
// so the lowest-index failure is exactly f and rethrowing its
// std::exception_ptr reproduces the serial error, type and message.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ac {

/// First-error + cancellation state for one parallel region: any worker's
/// failure cancels the rest, and exactly one exception survives to the
/// caller.
class FailState {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Record the in-flight exception (std::current_exception) for `chunk` and
  /// set the cancellation flag. The lowest chunk index captured so far wins;
  /// captures without an index (npos) rank last and keep first-capture order
  /// among themselves. Must be called from inside a catch block.
  void capture(std::size_t chunk = npos) noexcept;

  /// Cancel without recording an error (unclaimed work is abandoned).
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  /// Cheap poll for cooperative cancellation: set by capture() or cancel().
  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_acquire); }

  bool failed() const;
  /// Rethrow the captured exception with its original type; no-op when clean.
  void rethrow_if_failed() const;

 private:
  mutable std::mutex mu_;
  std::exception_ptr error_;
  std::size_t chunk_ = npos;
  std::atomic<bool> cancelled_{false};
};

/// RAII thread group bound to a FailState: an exception escaping a worker is
/// captured (and cancels the region) instead of terminating the process.
/// join() never throws — the caller rethrows via fail.rethrow_if_failed()
/// once the group has been joined.
class WorkerGroup {
 public:
  explicit WorkerGroup(FailState& fail) : fail_(fail) {}
  ~WorkerGroup() { join(); }
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  /// Spawn one worker. Propagates std::system_error from thread creation
  /// (after cancelling the region so already-running workers wind down).
  void spawn(std::function<void()> fn);

  void join() noexcept;

 private:
  FailState& fail_;
  std::vector<std::thread> threads_;
};

struct ExecutorOptions {
  /// Worker threads; <= 0 means hardware_concurrency. Clamped to [1, 256]
  /// and to the chunk count; a resolved count of 1 runs inline on the
  /// calling thread with identical semantics (same ordering, same errors).
  int threads = 0;
  /// Bound on chunks claimed but not yet consumed (task started, on_ready not
  /// finished): workers stall instead of claiming further chunks, so chunk
  /// results awaiting an in-order consumer cannot pile up without limit.
  /// 0 = unbounded. Ignored when no on_ready is given (results are consumed
  /// the moment the task finishes).
  std::size_t max_in_flight = 0;
};

/// The worker count run_chunks uses for `n` chunks at `threads`, as
/// ExecutorOptions::threads documents; 1 means the chunks run inline.
int resolve_threads(int threads, std::size_t n);

/// Run task(0..n-1) across a transient worker pool. If `on_ready` is given it
/// runs on the *calling* thread, strictly in chunk order, as chunks finish —
/// overlapping with workers still parsing later chunks. The first failure
/// (from task or on_ready) cancels all unclaimed chunks and is rethrown here
/// with its original type.
void run_chunks(std::size_t n, const ExecutorOptions& opts,
                const std::function<void(std::size_t)>& task,
                const std::function<void(std::size_t)>& on_ready = {});

}  // namespace ac
