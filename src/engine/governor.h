// Query lifecycle governance (DESIGN.md §13): the types that make a
// query bounded, killable, and sheddable.
//
//   QueryLimits       per-query resource caps (deadline, memory, rows)
//   MemoryBudget      allocation meter charged by ColumnArena/ResultTable
//   CancellationToken cooperative stop signal: external kill + deadline
//                     + budget trip, checked amortized (~4K rows) inside
//                     kernel emission loops and at every optimizer
//                     decision point
//   AdmissionGate     bounded concurrent+queued admission; excess load
//                     is shed immediately with kResourceExhausted
//
// The token is plumbed as a raw const pointer (like
// RoxOptions::query_trace): one token per query, polled read-only by
// every kernel the query runs.

#ifndef ROX_ENGINE_GOVERNOR_H_
#define ROX_ENGINE_GOVERNOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "common/timer.h"

namespace rox {

// Per-query resource caps; zero means "unlimited" for every field.
struct QueryLimits {
  double deadline_ms = 0;            // <= 0: no deadline
  uint64_t memory_budget_bytes = 0;  // 0: no memory budget
  uint64_t max_result_rows = 0;      // 0: no result-row cap

  bool Any() const {
    return deadline_ms > 0 || memory_budget_bytes > 0 || max_result_rows > 0;
  }
};

// Meters per-query allocations against a cap. Charge() never fails the
// allocation that trips it — it latches the exceeded flag, and the
// query's next cooperative checkpoint converts the latch into
// kResourceExhausted. This keeps allocation sites (bump arenas,
// vector adoption) infallible while still bounding a query's footprint
// to cap + one allocation burst.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(uint64_t limit_bytes) : limit_(limit_bytes) {}

  // Adds `bytes` to the meter; latches Exceeded() once past the limit.
  void Charge(uint64_t bytes) {
    uint64_t used = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limit_ > 0 && used > limit_) {
      exceeded_.store(true, std::memory_order_relaxed);
    }
  }

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t limit() const { return limit_; }
  bool Exceeded() const {
    return exceeded_.load(std::memory_order_relaxed);
  }

 private:
  uint64_t limit_ = 0;  // 0: unlimited
  std::atomic<uint64_t> used_{0};
  std::atomic<bool> exceeded_{false};
};

// Emission loops poll the token once per this many produced/consumed
// rows: frequent enough that a tripped query unwinds in well under the
// 100 ms acceptance bound, rare enough that the clock read disappears
// in the per-row work (DESIGN.md §13 discusses the tradeoff).
inline constexpr uint64_t kCancelCheckRows = 4096;

// Cooperative stop signal for one query. Cancel() may be called from
// any thread; StopRequested()/Check() are called from the query's
// execution threads. The first observed trip reason is latched so a
// query killed *and* past deadline reports one stable code.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  // Arms the deadline (steady-clock; infinite by default).
  void ArmDeadline(Deadline d) { deadline_ = d; }
  // Attaches the budget whose Exceeded() latch this token observes.
  void set_budget(const MemoryBudget* b) { budget_ = b; }

  // External kill switch (\kill, client disconnect, test harness).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  const Deadline& deadline() const { return deadline_; }

  // True once any stop condition holds. Latches the first reason seen.
  // Cheap enough for amortized polling (one relaxed load on the happy
  // path until a deadline is armed; one clock read when it is).
  bool StopRequested() const {
    if (reason_.load(std::memory_order_relaxed) !=
        static_cast<uint8_t>(StatusCode::kOk)) {
      return true;
    }
    StatusCode trip = StatusCode::kOk;
    if (cancelled_.load(std::memory_order_relaxed)) {
      trip = StatusCode::kCancelled;
    } else if (budget_ != nullptr && budget_->Exceeded()) {
      trip = StatusCode::kResourceExhausted;
    } else if (deadline_.Expired()) {
      trip = StatusCode::kDeadlineExceeded;
    }
    if (trip == StatusCode::kOk) return false;
    uint8_t expected = static_cast<uint8_t>(StatusCode::kOk);
    reason_.compare_exchange_strong(expected, static_cast<uint8_t>(trip),
                                    std::memory_order_relaxed);
    return true;
  }

  // kOk while running; the latched trip code once stopped.
  StatusCode TripReason() const {
    return static_cast<StatusCode>(reason_.load(std::memory_order_relaxed));
  }

  // OK while the query may continue; the governance error otherwise.
  Status Check() const;

 private:
  Deadline deadline_;                     // infinite until armed
  const MemoryBudget* budget_ = nullptr;  // not owned
  std::atomic<bool> cancelled_{false};
  // Latched first trip, stored as the StatusCode's underlying value.
  mutable std::atomic<uint8_t> reason_{
      static_cast<uint8_t>(StatusCode::kOk)};
};

// Shorthand for the kernels' amortized polling sites: null token never
// stops.
inline bool StopRequested(const CancellationToken* t) {
  return t != nullptr && t->StopRequested();
}

// Bounded admission: at most `max_concurrent` queries execute while at
// most `max_queued` wait; anything beyond is shed immediately with
// kResourceExhausted (never blocks the caller behind an unbounded
// backlog). Queued waiters respect their query deadline — a query
// whose deadline lapses in the queue leaves with kDeadlineExceeded
// without ever running.
class AdmissionGate {
 public:
  AdmissionGate(size_t max_concurrent, size_t max_queued)
      : max_concurrent_(max_concurrent), max_queued_(max_queued) {}

  // Move-only RAII admission slot; releases on destruction.
  class Ticket {
   public:
    Ticket() = default;
    explicit Ticket(AdmissionGate* gate) : gate_(gate) {}
    Ticket(Ticket&& other) noexcept : gate_(other.gate_) {
      other.gate_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        gate_ = other.gate_;
        other.gate_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

   private:
    void Release() {
      if (gate_ != nullptr) gate_->Leave();
      gate_ = nullptr;
    }
    AdmissionGate* gate_ = nullptr;
  };

  // Blocks (bounded by `deadline`) until a slot frees; sheds when the
  // wait queue is full.
  Result<Ticket> Admit(const Deadline& deadline);

  size_t running() const;
  size_t queued() const;
  uint64_t shed_count() const {
    return shed_.load(std::memory_order_relaxed);
  }
  // High-water mark of the wait queue since construction.
  size_t peak_queued() const;

 private:
  friend class Ticket;
  void Leave();

  const size_t max_concurrent_;
  const size_t max_queued_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t running_ = 0;
  size_t queued_ = 0;
  size_t peak_queued_ = 0;
  std::atomic<uint64_t> shed_{0};
};

}  // namespace rox

#endif  // ROX_ENGINE_GOVERNOR_H_
