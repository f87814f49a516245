#include "src/controller/arbiter.hpp"

#include <algorithm>
#include <cassert>

namespace rps::ctrl {

std::optional<ArbPolicy> arb_policy_from(const std::string& name) {
  for (const ArbPolicy policy : kAllArbPolicies) {
    if (name == to_string(policy)) return policy;
  }
  return std::nullopt;
}

QueueArbiter::QueueArbiter(std::uint32_t queues, ArbiterConfig config)
    : queues_(queues),
      config_(std::move(config)),
      active_(queues),
      head_cost_(queues, 0),
      deficit_(queues, 0),
      stamp_pos_(queues, 0),
      stamped_(queues, 0) {
  assert(queues_ > 0);
  weights_.resize(queues_, 1);
  for (std::uint32_t q = 0; q < queues_ && q < config_.weights.size(); ++q) {
    weights_[q] = std::max<std::uint32_t>(1, config_.weights[q]);
  }
  if (config_.quantum_pages == 0) config_.quantum_pages = 1;
}

void QueueArbiter::set_eligible(std::uint32_t queue, bool eligible,
                                std::uint32_t head_cost) {
  assert(queue < queues_);
  if (eligible) {
    head_cost_[queue] = head_cost;
    max_head_cost_ = std::max(max_head_cost_, head_cost);
    if (!active_.test(queue)) {
      // Materialize the lazy zeroing before the queue rejoins the walk:
      // from here on its deficit is live again and must not be re-zeroed
      // retroactively by an old stamp.
      if (stamped_[queue] != 0) {
        if (lazily_zeroed(queue)) deficit_[queue] = 0;
        stamped_[queue] = 0;
      }
      active_.set(queue);
    }
  } else if (active_.test(queue)) {
    active_.clear(queue);
    head_cost_[queue] = 0;
    stamp_pos_[queue] = pos_;
    stamped_[queue] = 1;
  }
}

std::optional<std::uint32_t> QueueArbiter::admit() {
  switch (config_.policy) {
    case ArbPolicy::kRoundRobin: return admit_rr();
    case ArbPolicy::kWeightedRoundRobin: return admit_wrr();
    case ArbPolicy::kWeightedDeficitRoundRobin: return admit_wdrr();
  }
  return std::nullopt;
}

std::optional<std::uint32_t> QueueArbiter::admit(
    const std::vector<std::uint8_t>& eligible,
    const std::vector<std::uint32_t>& head_cost) {
  assert(eligible.size() == queues_);
  assert(head_cost.size() == queues_ ||
         config_.policy != ArbPolicy::kWeightedDeficitRoundRobin);
  for (std::uint32_t q = 0; q < queues_; ++q) {
    set_eligible(q, eligible[q] != 0, q < head_cost.size() ? head_cost[q] : 0);
  }
  return admit();
}

std::optional<std::uint32_t> QueueArbiter::admit_rr() {
  // Full-scan equivalent: advance cyclically from cur(), admit the first
  // eligible queue and rest one past it; an empty round leaves the
  // pointer where it started.
  if (!active_.any()) return std::nullopt;
  const std::uint32_t start = cur();
  const std::uint32_t q = active_.next_cyclic(start);
  pos_ += (q + queues_ - start) % queues_ + 1;
  return q;
}

std::optional<std::uint32_t> QueueArbiter::admit_wrr() {
  // Close out an in-progress visit first: the resting queue admits again
  // only while it stays eligible with credit left; otherwise the pointer
  // steps off it (which is also the full scan's net motion — +1 with
  // visiting_ cleared — when nothing at all is eligible).
  if (visiting_) {
    if (active_.test(cur()) && credit_ > 0) {
      --credit_;
      return cur();
    }
    visiting_ = false;
    ++pos_;
    if (!active_.any()) return std::nullopt;
  } else if (!active_.any()) {
    ++pos_;
    return std::nullopt;
  }
  const std::uint32_t start = cur();
  const std::uint32_t q = active_.next_cyclic(start);
  pos_ += (q + queues_ - start) % queues_;
  visiting_ = true;
  credit_ = weights_[q] - 1;
  return q;
}

std::optional<std::uint32_t> QueueArbiter::admit_wdrr() {
  // No eligible queue: the full scan returned before touching any state.
  if (!active_.any()) return std::nullopt;
  // Every full round grants each eligible queue quantum x weight pages, so
  // within max_cost / quantum + 1 rounds some head fits its deficit. The
  // largest cost ever reported bounds every current head without a scan.
  const std::uint64_t rounds = 2 + max_head_cost_ / config_.quantum_pages;
  const std::uint64_t max_visits = rounds * active_.count() + 1;
  for (std::uint64_t visits = 0; visits < max_visits;) {
    const std::uint32_t q = cur();
    if (!active_.test(q)) {
      // The pointer sweeps the whole inactive run in one jump. Each
      // skipped queue counts as visited-while-ineligible: its banked
      // deficit reads as zero from now on (lazily_zeroed()).
      visiting_ = false;
      const std::uint32_t nxt = active_.next_cyclic(q);
      pos_ += (nxt + queues_ - q) % queues_;
      continue;
    }
    ++visits;
    if (!visiting_) {
      visiting_ = true;
      deficit_[q] += static_cast<std::uint64_t>(config_.quantum_pages) * weights_[q];
    }
    const std::uint64_t cost = std::max<std::uint32_t>(1, head_cost_[q]);
    if (deficit_[q] >= cost) {
      deficit_[q] -= cost;
      return q;
    }
    visiting_ = false;
    ++pos_;
  }
  assert(false && "WDRR round bound must guarantee an admission");
  return std::nullopt;
}

}  // namespace rps::ctrl
