#ifndef FLOQ_UTIL_DEADLINE_H_
#define FLOQ_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

// Cooperative resource governance (DESIGN.md §11). A Deadline is a point
// on the monotonic clock; a CancellationToken is a shared flag flipped by
// a CancellationSource on another thread. Long-running loops (the
// homomorphism search, chase rounds, KB saturation) own an ExecGovernor
// and call Tick() once per unit of work: a decrement-and-test on the fast
// path, with the clock read and flag loads amortized over kStride calls.
// When any budget trips the loop unwinds cleanly and the governor latches
// the TripReason for the caller to turn into an UNKNOWN verdict.

namespace floq {

/// A point on the monotonic clock after which work should stop.
/// Default-constructed deadlines are infinite (never expire).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : when_(Clock::time_point::max()) {}
  explicit Deadline(Clock::time_point when) : when_(when) {}

  static Deadline Infinite() { return Deadline(); }
  static Deadline AfterMillis(int64_t ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  bool infinite() const { return when_ == Clock::time_point::max(); }
  bool Expired() const { return !infinite() && Clock::now() >= when_; }
  Clock::time_point when() const { return when_; }

  /// The earlier of two deadlines.
  static Deadline Min(Deadline a, Deadline b) {
    return a.when_ <= b.when_ ? a : b;
  }

 private:
  Clock::time_point when_;
};

/// A shared cancellation flag. Default-constructed tokens are inert
/// (never cancelled); live tokens come from a CancellationSource and may
/// be observed from any thread.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool valid() const { return flag_ != nullptr; }
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancellationSource;
  friend class ExecGovernor;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Owns a cancellation flag. Cancel() latches until Reset(), which arms a
/// fresh flag (tokens handed out earlier keep observing the old one).
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }
  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }
  void Reset() { flag_ = std::make_shared<std::atomic<bool>>(false); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Why a governed computation stopped early; kNone means it ran to
/// completion. When several stages of one check tripped, the earliest
/// trip is the root cause reported upward (DESIGN.md §11 budget lattice).
enum class TripReason : uint8_t {
  kNone = 0,
  kHomStepBudget,     // the homomorphism-search step budget ran out
  kChaseAtomBudget,   // ChaseOptions::max_atoms hit while materializing
  kDeadlineExceeded,  // the wall-clock deadline passed
  kCancelled,         // a CancellationToken fired
};

inline const char* TripReasonName(TripReason reason) {
  switch (reason) {
    case TripReason::kNone: return "none";
    case TripReason::kHomStepBudget: return "hom-steps";
    case TripReason::kChaseAtomBudget: return "chase-atoms";
    case TripReason::kDeadlineExceeded: return "deadline";
    case TripReason::kCancelled: return "cancelled";
  }
  return "invalid";
}

/// Amortized budget enforcement for one logical computation (one hom
/// search, one chase run). Not thread-safe: each worker owns its
/// governor; only the cancellation flags are shared across threads. A
/// governor borrows its tokens' flags rather than sharing their
/// ownership, so building one per pair touches no reference count.
class ExecGovernor {
 public:
  /// How many Tick() calls share one clock read / flag load. At ~1ns per
  /// search step this bounds deadline overshoot to a few microseconds.
  static constexpr uint32_t kStride = 1024;

  ExecGovernor() = default;
  /// Borrows `cancel` as AddCancellation does.
  explicit ExecGovernor(Deadline deadline,
                        const CancellationToken& cancel = CancellationToken(),
                        uint64_t step_budget = 0)
      : deadline_(deadline),
        cancel_(cancel.flag_.get()),
        step_budget_(step_budget) {}

  /// A second token slot, so an engine-wide Cancel() composes with a
  /// caller-provided token without allocating a merged source. The
  /// governor keeps a pointer to the token's flag, not a share of it: an
  /// owner of the flag (this token, a copy of it, or the source that
  /// handed it out, not Reset since) must outlive the governor.
  void AddCancellation(const CancellationToken& token) {
    extra_cancel_ = token.flag_.get();
  }

  /// Counts one unit of work. Returns true to continue, false once any
  /// budget has tripped (and on every call thereafter). The deadline and
  /// the tokens are only consulted every kStride calls.
  bool Tick() {
    if (trip_ != TripReason::kNone) return false;
    if (--until_check_ != 0) return true;
    return Check(kStride);
  }

  /// Counts `n` units of work in one call, for inner loops too hot even
  /// for Tick()'s member decrement (the hom kernel's candidate loop
  /// batches its ticks through a register counter and settles every n
  /// iterations).
  /// Equivalent to n Tick() calls except that the budgets are consulted
  /// at batch granularity; keep n well under kStride.
  bool TickBatch(uint32_t n) {
    if (trip_ != TripReason::kNone) return false;
    if (until_check_ > n) {
      until_check_ -= n;
      return true;
    }
    return Check(kStride - until_check_ + n);
  }

  /// An immediate, non-amortized probe for round boundaries where the
  /// next unit of work is large (a chase round, an EGD pass). Counts no
  /// steps against the step budget.
  bool CheckNow() {
    if (trip_ != TripReason::kNone) return false;
    return Check(0);
  }

  bool tripped() const { return trip_ != TripReason::kNone; }
  TripReason trip() const { return trip_; }
  uint64_t steps() const { return steps_; }

  /// Latches a trip detected outside the governor (e.g. the chase atom
  /// budget); an earlier trip wins.
  void ForceTrip(TripReason reason) {
    if (trip_ == TripReason::kNone) trip_ = reason;
  }

 private:
  bool Check(uint32_t stride) {
    steps_ += stride;
    until_check_ = kStride;
    if (step_budget_ != 0 && steps_ >= step_budget_) {
      trip_ = TripReason::kHomStepBudget;
    } else if (Cancelled(cancel_) || Cancelled(extra_cancel_)) {
      trip_ = TripReason::kCancelled;
    } else if (deadline_.Expired()) {
      trip_ = TripReason::kDeadlineExceeded;
    }
    return trip_ == TripReason::kNone;
  }

  static bool Cancelled(const std::atomic<bool>* flag) {
    return flag != nullptr && flag->load(std::memory_order_relaxed);
  }

  Deadline deadline_;
  // Borrowed cancellation flags (null: none).
  const std::atomic<bool>* cancel_ = nullptr;
  const std::atomic<bool>* extra_cancel_ = nullptr;
  uint64_t step_budget_ = 0;  // 0 = unlimited
  uint64_t steps_ = 0;
  uint32_t until_check_ = kStride;
  TripReason trip_ = TripReason::kNone;
};

}  // namespace floq

#endif  // FLOQ_UTIL_DEADLINE_H_
