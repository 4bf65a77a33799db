// Checkpoint-interval policies for the engine.
//
// The classic first-order result (Young 1974) places the optimum checkpoint
// period at sqrt(2*C*M) for checkpoint cost C and mean time between failures
// M; Daly (2006) refines it with a higher-order expansion. The engine works
// in loop-iteration units: it measures the mean iteration wall-time and the
// mean checkpoint commit cost online, asks the policy for a period in
// seconds, and converts to an iteration count.
#pragma once

#include <cstdint>
#include <memory>

namespace ac::ckpt {

/// Decides, at each completed iteration, whether the engine should commit a
/// checkpoint now. Implementations must be deterministic given the same
/// observation sequence.
class IntervalPolicy {
 public:
  virtual ~IntervalPolicy() = default;

  /// Online cost observations (seconds); fed by the engine after each
  /// iteration / checkpoint commit. Default: ignore.
  virtual void observe_iteration(double /*seconds*/) {}
  virtual void observe_checkpoint(double /*seconds*/) {}

  /// True when a checkpoint should be committed for `completed_iter` (1-based
  /// count of completed iterations), given the last committed iteration
  /// (0 when none yet).
  virtual bool due(std::int64_t completed_iter, std::int64_t last_commit_iter) = 0;

  /// Current period in iterations (diagnostic; >= 1).
  virtual std::int64_t interval_iters() const = 0;
};

/// Checkpoint every N completed iterations: commits at N, 2N, ... — the
/// paper's periodic checkpointing "with a certain interval" (§II-B).
class FixedIntervalPolicy final : public IntervalPolicy {
 public:
  explicit FixedIntervalPolicy(std::int64_t every);

  bool due(std::int64_t completed_iter, std::int64_t last_commit_iter) override;
  std::int64_t interval_iters() const override { return every_; }

 private:
  std::int64_t every_;
};

/// Young's first-order optimum period: sqrt(2 * C * M) seconds.
double young_period_seconds(double checkpoint_cost_s, double mtbf_s);

/// Daly's higher-order optimum period: for C < 2M,
///   sqrt(2*C*M) * (1 + (1/3)*sqrt(C/(2M)) + (1/9)*(C/(2M))) - C,
/// clamped to M otherwise.
double daly_period_seconds(double checkpoint_cost_s, double mtbf_s);

/// Adaptive Young/Daly policy: converts the optimum period in seconds into an
/// iteration count using the measured mean iteration time; re-evaluated as
/// observations accumulate. Before any observations arrive it behaves like
/// FixedIntervalPolicy(1) so the first iterations are always protected.
class YoungDalyPolicy final : public IntervalPolicy {
 public:
  enum class Order { Young, Daly };

  /// `mtbf_s` is the platform's assumed mean time between failures;
  /// `min_iters`/`max_iters` clamp the derived period.
  explicit YoungDalyPolicy(double mtbf_s, Order order = Order::Daly,
                           std::int64_t min_iters = 1, std::int64_t max_iters = 1 << 20);

  void observe_iteration(double seconds) override;
  void observe_checkpoint(double seconds) override;
  bool due(std::int64_t completed_iter, std::int64_t last_commit_iter) override;
  std::int64_t interval_iters() const override;

  double mean_iteration_seconds() const;
  double mean_checkpoint_seconds() const;

 private:
  double mtbf_s_;
  Order order_;
  std::int64_t min_iters_;
  std::int64_t max_iters_;
  double iter_total_s_ = 0;
  std::int64_t iter_count_ = 0;
  double ckpt_total_s_ = 0;
  std::int64_t ckpt_count_ = 0;
};

}  // namespace ac::ckpt
