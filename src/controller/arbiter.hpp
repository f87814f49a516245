// Submission-queue arbitration for the multi-queue host frontend.
//
// The frontend holds N per-tenant submission queues; at every admission
// instant it asks the arbiter which queue's head to admit next. The
// arbiter is a pure scheduling state machine — it sees only "queue q has
// an admissible head of cost c pages" and never touches the queues
// themselves — so each policy is unit-testable in isolation and the
// whole layer is deterministic by construction (no clocks, no RNG).
//
// Policies (NVMe round-robin arbitration and its weighted refinements):
//   - kRoundRobin: one command per eligible queue, cyclic. Cost-blind —
//     a tenant issuing 8-page commands gets 8x the bandwidth of a
//     1-page tenant at the same admission rate (the unfairness the QoS
//     bench demonstrates).
//   - kWeightedRoundRobin: like RR, but a queue admits up to `weight`
//     commands per visit. Still cost-blind.
//   - kWeightedDeficitRoundRobin: classic DRR (Shreedhar & Varghese)
//     with page-granular costs. Each visit grants the queue
//     quantum_pages x weight deficit; a head is admitted only while its
//     page cost fits the accumulated deficit. Cost-aware: admission
//     bandwidth, not admission count, converges to the weight ratio —
//     which is what bounds a victim tenant's latency under a large-write
//     flood.
//
// Cost model: admission is O(active queues), not O(N). Eligibility lives
// inside the arbiter as a packed bit set, updated incrementally through
// set_eligible(); the round-robin walk jumps from active queue to active
// queue instead of stepping over every registered tenant, which is what
// makes thousands-of-tenants frontends affordable. The legacy
// vector-based admit() overload survives as a full-sync wrapper with the
// exact same admission sequence.
//
// WDRR's "an ineligible queue visited by the pointer loses its banked
// deficit" rule is preserved *lazily*: the walk never lands on inactive
// queues anymore, so each queue records the absolute pointer position at
// which it went ineligible, and its deficit reads as zero once the
// pointer has provably swept past it (see lazily_zeroed()). Admission
// sequences and the deficit() accessor are bit-identical to the
// full-scan implementation — a property test drives both against random
// schedules to pin that.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/index_bitset.hpp"

namespace rps::ctrl {

enum class ArbPolicy : std::uint8_t {
  kRoundRobin = 0,
  kWeightedRoundRobin = 1,
  kWeightedDeficitRoundRobin = 2,
};

inline constexpr ArbPolicy kAllArbPolicies[] = {
    ArbPolicy::kRoundRobin, ArbPolicy::kWeightedRoundRobin,
    ArbPolicy::kWeightedDeficitRoundRobin};

constexpr const char* to_string(ArbPolicy policy) {
  switch (policy) {
    case ArbPolicy::kRoundRobin: return "rr";
    case ArbPolicy::kWeightedRoundRobin: return "wrr";
    case ArbPolicy::kWeightedDeficitRoundRobin: return "wdrr";
  }
  return "?";
}

/// Parse a policy name ("rr", "wrr", "wdrr"); nullopt on anything else.
std::optional<ArbPolicy> arb_policy_from(const std::string& name);

struct ArbiterConfig {
  ArbPolicy policy = ArbPolicy::kRoundRobin;
  /// Per-queue weights (WRR: commands per visit; WDRR: deficit scale).
  /// Empty = every queue weight 1. Zero entries are clamped to 1.
  std::vector<std::uint32_t> weights;
  /// WDRR deficit grant per visit, in pages (scaled by the queue weight).
  std::uint32_t quantum_pages = 8;
};

class QueueArbiter {
 public:
  QueueArbiter(std::uint32_t queues, ArbiterConfig config);

  /// Incremental eligibility: queue q has (or no longer has) a head the
  /// frontend could admit right now, costing `head_cost` pages. Calls
  /// with unchanged eligibility are cheap no-ops (cost updates aside), so
  /// the frontend may re-report freely. This is the O(active) interface —
  /// push deltas here, then call the argument-free admit().
  void set_eligible(std::uint32_t queue, bool eligible, std::uint32_t head_cost = 0);

  /// Pick the next queue to admit from and commit the admission, using
  /// the eligibility pushed through set_eligible(). Returns nullopt when
  /// no queue is eligible. Deterministic: the same call sequence yields
  /// the same admissions. Cost: O(active queues) per call.
  ///
  /// A queue that is not eligible when the pointer sweeps it loses its
  /// stored credit / deficit (classic DRR: only backlogged queues bank
  /// service).
  std::optional<std::uint32_t> admit();

  /// Full-sync wrapper: `eligible[q]` != 0 means queue q has an
  /// admissible head of `head_cost[q]` pages. Reconciles every queue
  /// through set_eligible(), then admits — the admission sequence is
  /// identical to driving the incremental interface directly.
  std::optional<std::uint32_t> admit(const std::vector<std::uint8_t>& eligible,
                                     const std::vector<std::uint32_t>& head_cost);

  [[nodiscard]] std::uint32_t num_queues() const { return queues_; }
  [[nodiscard]] const ArbiterConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t weight(std::uint32_t queue) const {
    return weights_[queue];
  }
  /// WDRR deficit of `queue`, in pages (tests). Reads through the lazy
  /// zeroing: an ineligible queue the pointer swept past reports zero.
  [[nodiscard]] std::uint64_t deficit(std::uint32_t queue) const {
    return stamped_[queue] != 0 && lazily_zeroed(queue) ? 0 : deficit_[queue];
  }

 private:
  std::optional<std::uint32_t> admit_rr();
  std::optional<std::uint32_t> admit_wrr();
  std::optional<std::uint32_t> admit_wdrr();

  /// True when the pointer has swept position `queue` (mod N) since the
  /// queue went ineligible. Walks examine the contiguous absolute range
  /// [walk start, walk end]; successive walks chain, so every absolute
  /// position in [stamp, pos_) has been examined by a walk that started
  /// at or after the stamp — except the stamp position itself, which is
  /// only re-examined once the pointer moves off it (pos_ > pass).
  [[nodiscard]] bool lazily_zeroed(std::uint32_t queue) const {
    const std::uint64_t stamp = stamp_pos_[queue];
    const std::uint64_t pass =
        stamp + (queue + queues_ - static_cast<std::uint32_t>(stamp % queues_)) % queues_;
    return pos_ > pass;
  }

  [[nodiscard]] std::uint32_t cur() const {
    return static_cast<std::uint32_t>(pos_ % queues_);
  }

  std::uint32_t queues_;
  ArbiterConfig config_;
  std::vector<std::uint32_t> weights_;  // resolved per-queue (>= 1)
  util::IndexBitSet active_;            // queues with an admissible head
  std::vector<std::uint32_t> head_cost_;
  std::uint32_t max_head_cost_ = 1;     // largest head cost ever reported
  /// Absolute pointer position: cur() == pos_ % N is the queue the
  /// pointer rests on. Monotone — the lazy-zeroing stamps compare
  /// against it, so it never wraps back.
  std::uint64_t pos_ = 0;
  std::uint32_t credit_ = 0;            // WRR: admissions left this visit
  bool visiting_ = false;               // WRR/WDRR: cur()'s visit already began
  std::vector<std::uint64_t> deficit_;  // WDRR: banked pages per queue
  std::vector<std::uint64_t> stamp_pos_;  // pos_ when the queue went ineligible
  std::vector<std::uint8_t> stamped_;     // stamp_pos_ entry is live
};

}  // namespace rps::ctrl
