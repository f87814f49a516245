// Property tests for the multi-queue host frontend and its arbitration
// layer:
//   - arbitration conservation: every admitted command completes exactly
//     once (no loss, no duplication), per tenant,
//   - per-tenant FIFO: the admission log preserves each queue's order,
//   - WRR admits weight-proportionally over every full arbitration
//     cycle; WDRR equalizes *pages* (not commands) across queues of
//     equal weight under asymmetric command sizes,
//   - the whole multi-tenant replay is bit-identical across --jobs
//     values (trace generation is the only parallel stage),
//   - the open-loop generator stamps arrivals in sim-time, so bursty
//     tenants leave real idle windows and background scrubbing runs
//     (the regression the generator fix exists for).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/controller/arbiter.hpp"
#include "src/host/multi_queue.hpp"
#include "src/host/tenant.hpp"
#include "src/obs/sampler.hpp"
#include "src/sim/runner.hpp"
#include "src/util/random.hpp"

namespace rps::host {
namespace {

// --- QueueArbiter unit properties -----------------------------------------

std::vector<std::uint64_t> admit_n(ctrl::QueueArbiter& arb, std::uint32_t queues,
                                   std::uint64_t n,
                                   const std::vector<std::uint32_t>& cost) {
  const std::vector<std::uint8_t> all(queues, 1);
  std::vector<std::uint64_t> counts(queues, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto pick = arb.admit(all, cost);
    EXPECT_TRUE(pick.has_value()) << "saturated queues must always admit";
    if (!pick) break;
    ++counts[*pick];
  }
  return counts;
}

TEST(QueueArbiter, RoundRobinCyclesEligibleQueues) {
  ctrl::QueueArbiter arb(4, ctrl::ArbiterConfig{});  // default policy is RR
  const std::vector<std::uint32_t> cost(4, 1);
  const std::vector<std::uint64_t> counts = admit_n(arb, 4, 40, cost);
  for (std::uint32_t q = 0; q < 4; ++q) EXPECT_EQ(counts[q], 10u) << q;

  // Ineligible queues are skipped without stalling the cycle.
  const std::vector<std::uint8_t> only_two{0, 1, 0, 1};
  std::vector<std::uint64_t> partial(4, 0);
  for (int i = 0; i < 10; ++i) {
    const auto pick = arb.admit(only_two, cost);
    ASSERT_TRUE(pick.has_value());
    ++partial[*pick];
  }
  EXPECT_EQ(partial[0], 0u);
  EXPECT_EQ(partial[2], 0u);
  EXPECT_EQ(partial[1], 5u);
  EXPECT_EQ(partial[3], 5u);

  // Nothing eligible: the arbiter must decline, not spin.
  EXPECT_FALSE(arb.admit(std::vector<std::uint8_t>(4, 0), cost).has_value());
}

TEST(QueueArbiter, WrrAdmitsWeightProportionallyEveryCycle) {
  ctrl::ArbiterConfig config;
  config.policy = ctrl::ArbPolicy::kWeightedRoundRobin;
  config.weights = {1, 2, 3, 4};
  ctrl::QueueArbiter arb(4, config);
  const std::vector<std::uint32_t> cost(4, 1);
  // One full cycle admits exactly weight[q] commands from each queue;
  // check the proportion holds over every whole cycle.
  for (int cycle = 1; cycle <= 5; ++cycle) {
    ctrl::QueueArbiter fresh(4, config);
    const std::vector<std::uint64_t> counts =
        admit_n(fresh, 4, static_cast<std::uint64_t>(cycle) * 10, cost);
    for (std::uint32_t q = 0; q < 4; ++q) {
      EXPECT_EQ(counts[q], static_cast<std::uint64_t>(cycle) * config.weights[q])
          << "cycle " << cycle << " queue " << q;
    }
  }
}

TEST(QueueArbiter, WdrrEqualizesPagesNotCommands) {
  // Queue 0 issues 8-page commands, queue 1 issues 1-page commands, equal
  // weights. Cost-blind policies give queue 0 8x the bandwidth; WDRR must
  // equalize admitted *pages*, i.e. admit ~8 small commands per large one.
  ctrl::ArbiterConfig config;
  config.policy = ctrl::ArbPolicy::kWeightedDeficitRoundRobin;
  config.quantum_pages = 8;
  ctrl::QueueArbiter arb(2, config);
  const std::vector<std::uint32_t> cost{8, 1};
  const std::vector<std::uint8_t> all{1, 1};
  std::uint64_t pages[2] = {0, 0};
  for (int i = 0; i < 900; ++i) {
    const auto pick = arb.admit(all, cost);
    ASSERT_TRUE(pick.has_value());
    pages[*pick] += cost[*pick];
  }
  const double ratio =
      static_cast<double>(pages[0]) / static_cast<double>(pages[1]);
  EXPECT_GT(ratio, 0.9) << pages[0] << " vs " << pages[1];
  EXPECT_LT(ratio, 1.1) << pages[0] << " vs " << pages[1];
}

TEST(QueueArbiter, WdrrDropsBankedDeficitWhenQueueGoesIdle) {
  // Classic DRR: a queue that empties loses its banked deficit — it must
  // not come back later and burst through service it never queued for.
  ctrl::ArbiterConfig config;
  config.policy = ctrl::ArbPolicy::kWeightedDeficitRoundRobin;
  config.quantum_pages = 4;
  ctrl::QueueArbiter arb(2, config);
  const std::vector<std::uint32_t> cost{8, 1};
  // Queue 0's 8-page head needs two visits' deficit at quantum 4: the
  // first admit banks 4 pages for it and serves queue 1 instead.
  ASSERT_EQ(arb.admit({1, 1}, cost), std::optional<std::uint32_t>(1));
  EXPECT_EQ(arb.deficit(0), 4u);
  // Queue 0 goes idle. Keep admitting from queue 1 until the pointer
  // sweeps past queue 0 again — the visit must drop its banked deficit,
  // so queue 0 cannot later burst through service it never queued for.
  for (int i = 0; i < 6; ++i) (void)arb.admit({0, 1}, cost);
  EXPECT_EQ(arb.deficit(0), 0u);
}

// --- O(active) arbiter vs full-scan reference model ------------------------

/// The pre-optimization full-scan arbiter, kept verbatim as an executable
/// specification. The production QueueArbiter replaced the per-admission
/// O(N) scan with an intrusive active set and lazy deficit zeroing; this
/// reference pins the contract those tricks must preserve: identical
/// admission sequences AND identical observable deficits, admission by
/// admission, under arbitrary eligibility/cost schedules.
class ReferenceArbiter {
 public:
  ReferenceArbiter(std::uint32_t queues, ctrl::ArbiterConfig config)
      : queues_(queues), config_(std::move(config)), deficit_(queues, 0) {
    weights_.resize(queues_, 1);
    for (std::uint32_t q = 0; q < queues_ && q < config_.weights.size(); ++q) {
      weights_[q] = std::max<std::uint32_t>(1, config_.weights[q]);
    }
    if (config_.quantum_pages == 0) config_.quantum_pages = 1;
  }

  std::optional<std::uint32_t> admit(const std::vector<std::uint8_t>& eligible,
                                     const std::vector<std::uint32_t>& head_cost) {
    switch (config_.policy) {
      case ctrl::ArbPolicy::kRoundRobin: {
        for (std::uint32_t scan = 0; scan < queues_; ++scan) {
          const std::uint32_t q = cur_;
          cur_ = (cur_ + 1) % queues_;
          if (eligible[q] != 0) return q;
        }
        return std::nullopt;
      }
      case ctrl::ArbPolicy::kWeightedRoundRobin: {
        for (std::uint32_t scan = 0; scan <= queues_; ++scan) {
          if (eligible[cur_] != 0 && (!visiting_ || credit_ > 0)) {
            if (!visiting_) {
              visiting_ = true;
              credit_ = weights_[cur_];
            }
            --credit_;
            return cur_;
          }
          visiting_ = false;
          cur_ = (cur_ + 1) % queues_;
        }
        return std::nullopt;
      }
      case ctrl::ArbPolicy::kWeightedDeficitRoundRobin: {
        std::uint32_t max_cost = 1;
        bool any = false;
        for (std::uint32_t q = 0; q < queues_; ++q) {
          if (eligible[q] == 0) continue;
          any = true;
          max_cost = std::max(max_cost, std::max<std::uint32_t>(1, head_cost[q]));
        }
        if (!any) return std::nullopt;
        const std::uint64_t rounds = 2 + max_cost / config_.quantum_pages;
        for (std::uint64_t scan = 0; scan < rounds * queues_ + 1; ++scan) {
          if (eligible[cur_] == 0) {
            deficit_[cur_] = 0;  // eager form of the production lazy zeroing
            visiting_ = false;
            cur_ = (cur_ + 1) % queues_;
            continue;
          }
          if (!visiting_) {
            visiting_ = true;
            deficit_[cur_] +=
                static_cast<std::uint64_t>(config_.quantum_pages) * weights_[cur_];
          }
          const std::uint64_t cost = std::max<std::uint32_t>(1, head_cost[cur_]);
          if (deficit_[cur_] >= cost) {
            deficit_[cur_] -= cost;
            return cur_;
          }
          visiting_ = false;
          cur_ = (cur_ + 1) % queues_;
        }
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t deficit(std::uint32_t queue) const {
    return deficit_[queue];
  }

 private:
  std::uint32_t queues_;
  ctrl::ArbiterConfig config_;
  std::vector<std::uint32_t> weights_;
  std::uint32_t cur_ = 0;
  std::uint32_t credit_ = 0;
  bool visiting_ = false;
  std::vector<std::uint64_t> deficit_;
};

TEST(QueueArbiter, MatchesFullScanReferenceOnRandomSchedules) {
  // Drive three implementations of the same contract with random
  // eligibility churn: the reference full scan, the production arbiter
  // through its full-sync vector admit(), and a second production
  // instance through the incremental set_eligible()/admit() interface
  // (the O(active) path the frontend actually uses). Every admission and
  // every WDRR deficit must agree step by step.
  for (const ctrl::ArbPolicy policy : ctrl::kAllArbPolicies) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(policy));
      const auto queues =
          static_cast<std::uint32_t>(2 + rng.next_below(15));  // 2..16
      ctrl::ArbiterConfig config;
      config.policy = policy;
      config.quantum_pages = static_cast<std::uint32_t>(1 + rng.next_below(8));
      for (std::uint32_t q = 0; q < queues; ++q) {
        config.weights.push_back(static_cast<std::uint32_t>(rng.next_below(4)));
      }
      ReferenceArbiter reference(queues, config);
      ctrl::QueueArbiter full_sync(queues, config);
      ctrl::QueueArbiter incremental(queues, config);

      std::vector<std::uint8_t> eligible(queues, 0);
      std::vector<std::uint32_t> cost(queues, 1);
      const auto report = [&](std::uint32_t q) {
        incremental.set_eligible(q, eligible[q] != 0, cost[q]);
      };
      for (int step = 0; step < 600; ++step) {
        // Churn a few queues: arrivals, departures, head-cost changes.
        const std::uint64_t churn = rng.next_below(3);
        for (std::uint64_t c = 0; c <= churn; ++c) {
          const auto q = static_cast<std::uint32_t>(rng.next_below(queues));
          eligible[q] = rng.chance(0.6) ? 1 : 0;
          cost[q] = static_cast<std::uint32_t>(rng.next_below(17));
          report(q);
        }
        const std::optional<std::uint32_t> want = reference.admit(eligible, cost);
        ASSERT_EQ(full_sync.admit(eligible, cost), want)
            << to_string(policy) << " seed " << seed << " step " << step;
        ASSERT_EQ(incremental.admit(), want)
            << to_string(policy) << " seed " << seed << " step " << step;
        for (std::uint32_t q = 0; q < queues; ++q) {
          ASSERT_EQ(incremental.deficit(q), reference.deficit(q))
              << to_string(policy) << " seed " << seed << " step " << step
              << " queue " << q;
          ASSERT_EQ(full_sync.deficit(q), reference.deficit(q))
              << to_string(policy) << " seed " << seed << " step " << step
              << " queue " << q;
        }
        if (want) {
          // The admitted head leaves its queue: either another command is
          // behind it (new cost) or the queue drains.
          const std::uint32_t q = *want;
          eligible[q] = rng.chance(0.7) ? 1 : 0;
          cost[q] = static_cast<std::uint32_t>(rng.next_below(17));
          report(q);
        }
      }
    }
  }
}

// --- Frontend properties ---------------------------------------------------

/// A hand-built trace: `n` one-or-more-page writes all arriving at `at`,
/// cycling over `span` pages of the tenant's partition.
workload::Trace instant_burst(std::uint64_t n, std::uint32_t pages, Microseconds at,
                              Lpn first, Lpn span) {
  workload::Trace t("burst");
  for (std::uint64_t i = 0; i < n; ++i) {
    workload::IoRequest r;
    r.arrival_us = at;
    r.kind = workload::IoKind::kWrite;
    r.page_count = pages;
    r.lpn = first + static_cast<Lpn>(i * pages) % (span - pages + 1);
    t.add(r);
  }
  return t;
}

TEST(MultiQueueFrontend, ConservationAndPerTenantFifo) {
  auto ftl = sim::make_ftl(sim::FtlKind::kFlex, ftl::FtlConfig::tiny());
  MultiQueueConfig mq;
  mq.keep_admission_log = true;
  MultiQueueFrontend frontend(*ftl, mq);

  const std::uint32_t kTenants = 4;
  std::vector<std::uint64_t> trace_sizes;
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    TenantConfig t;
    t.id = i;
    t.requests = 150 + 25 * i;  // unequal sizes: conservation per tenant
    t.mean_interarrival_us = 200;
    t.read_fraction = 0.3;
    const LpnPartition part =
        tenant_partition(i, kTenants, ftl->exported_pages());
    workload::Trace trace = tenant_trace(t, part, /*base_seed=*/7);
    trace_sizes.push_back(trace.size());
    frontend.add_tenant(t, std::move(trace));
  }

  const MultiQueueResult result = frontend.run();

  // Conservation: every request of every tenant was admitted and completed
  // exactly once; the histograms account for every completion.
  ASSERT_EQ(result.tenants.size(), kTenants);
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    const TenantResult& t = result.tenants[i];
    EXPECT_EQ(t.submitted, trace_sizes[i]) << "tenant " << i;
    EXPECT_EQ(t.completed, trace_sizes[i]) << "tenant " << i;
    EXPECT_EQ(t.aborted, 0u) << "tenant " << i;
    EXPECT_EQ(t.latency_us.count(), t.completed) << "tenant " << i;
    EXPECT_EQ(t.read_requests + t.write_requests, t.submitted) << "tenant " << i;
    EXPECT_EQ(t.latency_us.count() - t.write_latency_us.count() +
                  t.write_requests,
              t.submitted)
        << "tenant " << i;
  }

  // Per-tenant FIFO: each queue's admissions happen in queue order, at
  // instants never before the request arrived.
  std::vector<std::uint64_t> next_seq(kTenants, 0);
  for (const AdmissionRecord& rec : frontend.admission_log()) {
    ASSERT_LT(rec.tenant, kTenants);
    EXPECT_EQ(rec.seq, next_seq[rec.tenant]) << "tenant " << rec.tenant;
    ++next_seq[rec.tenant];
    EXPECT_GE(rec.admit_us, rec.arrival_us);
  }
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    EXPECT_EQ(next_seq[i], trace_sizes[i]) << "tenant " << i;
  }
  EXPECT_TRUE(ftl->check_consistency());
}

TEST(MultiQueueFrontend, WrrAdmissionWindowsAreWeightProportional) {
  // Four saturated queues (every request arrives at the same instant, no
  // binding cap): the admission log's order is exactly the arbiter's
  // schedule, so every whole WRR cycle admits weight[q] commands of
  // queue q.
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  MultiQueueConfig mq;
  mq.arbiter.policy = ctrl::ArbPolicy::kWeightedRoundRobin;
  mq.keep_admission_log = true;
  MultiQueueFrontend frontend(*ftl, mq);

  const std::uint32_t kTenants = 4;
  const std::uint32_t weights[kTenants] = {1, 2, 3, 4};
  const std::uint64_t kPerTenant = 60;
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    TenantConfig t;
    t.id = i;
    t.weight = weights[i];
    t.in_flight_cap = 100000;  // the arbiter, not the cap, orders admission
    const LpnPartition part =
        tenant_partition(i, kTenants, ftl->exported_pages());
    frontend.add_tenant(
        t, instant_burst(kPerTenant, 1, /*at=*/1, part.first, part.pages));
  }
  (void)frontend.run();

  const std::vector<AdmissionRecord>& log = frontend.admission_log();
  ASSERT_EQ(log.size(), kPerTenant * kTenants);
  // While all queues are backlogged (the first 6 full cycles of 10
  // admissions), every cycle is weight-exact.
  const std::uint32_t cycle_len = 1 + 2 + 3 + 4;
  for (std::uint32_t cycle = 0; cycle < 6; ++cycle) {
    std::uint64_t counts[kTenants] = {0, 0, 0, 0};
    for (std::uint32_t k = 0; k < cycle_len; ++k) {
      ++counts[log[cycle * cycle_len + k].tenant];
    }
    for (std::uint32_t q = 0; q < kTenants; ++q) {
      EXPECT_EQ(counts[q], weights[q]) << "cycle " << cycle << " queue " << q;
    }
  }
}

TEST(MultiQueueFrontend, WdrrAdmissionEqualizesPagesUnderMixedSizes) {
  // Tenant 0 floods 8-page writes, tenant 1 issues 1-page writes. Under
  // WDRR with equal weights the admitted-page counts track each other
  // cycle by cycle — inspect the log's running page totals.
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  MultiQueueConfig mq;
  mq.arbiter.policy = ctrl::ArbPolicy::kWeightedDeficitRoundRobin;
  mq.arbiter.quantum_pages = 8;
  mq.keep_admission_log = true;
  MultiQueueFrontend frontend(*ftl, mq);

  const Lpn half = ftl->exported_pages() / 2;
  TenantConfig flood;
  flood.id = 0;
  flood.in_flight_cap = 100000;
  TenantConfig small = flood;
  small.id = 1;
  frontend.add_tenant(flood, instant_burst(40, 8, 1, 0, half));
  frontend.add_tenant(small, instant_burst(320, 1, 1, half, half));
  (void)frontend.run();

  std::uint64_t pages[2] = {0, 0};
  std::uint64_t commands[2] = {0, 0};
  std::size_t seen = 0;
  for (const AdmissionRecord& rec : frontend.admission_log()) {
    pages[rec.tenant] += rec.pages;
    ++commands[rec.tenant];
    ++seen;
    // While both queues are still backlogged, the running page totals
    // never diverge by more than one quantum's worth of slack per queue.
    if (seen >= 32 && commands[0] < 40 && commands[1] < 320) {
      const std::uint64_t hi = std::max(pages[0], pages[1]);
      const std::uint64_t lo = std::min(pages[0], pages[1]);
      EXPECT_LE(hi - lo, 16u) << "at admission " << seen;
    }
  }
  EXPECT_EQ(commands[0], 40u);
  EXPECT_EQ(commands[1], 320u);
}

TEST(MultiQueueFrontend, ReplayIsBitIdenticalAcrossJobs) {
  // The full pipeline — parallel trace generation, frontend replay,
  // per-tenant histograms — must produce identical digests at any --jobs.
  std::vector<TenantConfig> tenants(6);
  for (std::uint32_t i = 0; i < tenants.size(); ++i) {
    tenants[i].id = i;
    tenants[i].requests = 120;
    tenants[i].mean_interarrival_us = 300;
    tenants[i].arrival = (i % 2 == 0) ? workload::ArrivalProcess::kPoisson
                                      : workload::ArrivalProcess::kBurstyOnOff;
  }

  auto run_at = [&](std::uint32_t jobs) {
    auto ftl = sim::make_ftl(sim::FtlKind::kFlex, ftl::FtlConfig::tiny());
    std::vector<workload::Trace> traces =
        build_tenant_traces(tenants, ftl->exported_pages(), /*seed=*/42, jobs);
    MultiQueueFrontend frontend(*ftl);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      frontend.add_tenant(tenants[i], std::move(traces[i]));
    }
    return frontend.run();
  };

  const MultiQueueResult r1 = run_at(1);
  const MultiQueueResult r2 = run_at(2);
  const MultiQueueResult r8 = run_at(8);
  ASSERT_GT(r1.tenants.size(), 0u);
  EXPECT_EQ(r1.digest(), r2.digest());
  EXPECT_EQ(r1.digest(), r8.digest());
  for (std::size_t i = 0; i < r1.tenants.size(); ++i) {
    EXPECT_TRUE(r1.tenants[i].latency_us == r8.tenants[i].latency_us)
        << "tenant " << i;
    EXPECT_TRUE(r1.tenants[i].write_latency_us == r8.tenants[i].write_latency_us)
        << "tenant " << i;
  }
}

TEST(MultiQueueFrontend, BurstyTenantsOpenIdleWindowsThatRunScrubs) {
  // Regression for the open-loop generator's sim-time arrival fix: a
  // bursty tenant's OFF periods must appear as real gaps in the arrival
  // stamps (an index-based clock collapses them), so the frontend detects
  // idle windows and the FTL's background machinery — here read-disturb
  // scrubbing — actually runs.
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.read_scrub_threshold = 30;  // scrub after 30 reads-since-erase
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);

  TenantConfig t;
  t.id = 0;
  t.arrival = workload::ArrivalProcess::kBurstyOnOff;
  t.read_fraction = 0.9;        // hammer reads to trip the disturb counter
  t.zipf_theta = 0.99;          // concentrate them on few blocks
  t.requests = 4000;
  t.mean_interarrival_us = 50;
  t.on_mean_us = 5'000;
  t.off_mean_us = 50'000;

  const LpnPartition part = tenant_partition(0, 1, ftl->exported_pages());
  const workload::Trace trace = tenant_trace(t, part, /*base_seed=*/9);
  // The generator property itself: OFF periods dominate the timeline.
  EXPECT_GT(trace.stats(/*idle_threshold_us=*/1000).idle_fraction, 0.3);

  // Warm the device so reads hit programmed pages.
  for (Lpn lpn = 0; lpn < part.pages; ++lpn) {
    ASSERT_TRUE(ftl->write(lpn, ftl->device().all_idle_at(), 0.5).is_ok());
  }

  MultiQueueFrontend frontend(*ftl);
  frontend.add_tenant(t, trace);
  const MultiQueueResult result = frontend.run();

  EXPECT_EQ(result.tenants[0].completed, trace.size());
  EXPECT_GT(result.idle_windows, 0u);
  EXPECT_GT(ftl->stats().scrubbed_blocks, 0u)
      << "idle windows: " << result.idle_windows;
  EXPECT_TRUE(ftl->check_consistency());
}

TEST(MultiQueueFrontend, SharedPageBudgetSerializesAdmissionsWhenTight) {
  // A one-page budget allows exactly one command in flight: every
  // admission after the first can only happen at the completion instant
  // of its predecessor, so admit stamps are strictly increasing. And the
  // pool must not leak: all requests still complete exactly once.
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  MultiQueueConfig mq;
  mq.shared_page_budget = 1;
  mq.keep_admission_log = true;
  MultiQueueFrontend frontend(*ftl, mq);

  const Lpn half = ftl->exported_pages() / 2;
  for (std::uint32_t i = 0; i < 2; ++i) {
    TenantConfig t;
    t.id = i;
    t.in_flight_cap = 100000;  // only the shared pool throttles
    frontend.add_tenant(t, instant_burst(25, 1, 1, i * half, half));
  }
  const MultiQueueResult result = frontend.run();

  EXPECT_EQ(result.tenants[0].completed, 25u);
  EXPECT_EQ(result.tenants[1].completed, 25u);
  const std::vector<AdmissionRecord>& log = frontend.admission_log();
  ASSERT_EQ(log.size(), 50u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GT(log[i].admit_us, log[i - 1].admit_us) << "admission " << i;
  }
  EXPECT_TRUE(ftl->check_consistency());
}

TEST(MultiQueueFrontend, SharedPageBudgetAdmitsOversizedCommandsAlone) {
  // A command larger than the whole pool must not deadlock: it is
  // admitted alone, once everything else drained. With a competing
  // single-page tenant, both queues still drain to completion.
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  MultiQueueConfig mq;
  mq.shared_page_budget = 4;
  mq.keep_admission_log = true;
  MultiQueueFrontend frontend(*ftl, mq);

  const Lpn half = ftl->exported_pages() / 2;
  TenantConfig big;
  big.id = 0;
  big.in_flight_cap = 100000;
  TenantConfig small = big;
  small.id = 1;
  frontend.add_tenant(big, instant_burst(10, 6, 1, 0, half));  // 6 > budget
  frontend.add_tenant(small, instant_burst(40, 1, 1, half, half));
  const MultiQueueResult result = frontend.run();

  EXPECT_EQ(result.tenants[0].completed, 10u);
  EXPECT_EQ(result.tenants[1].completed, 40u);
  // The oversized commands were serialized: each 6-page admission stands
  // alone at its instant (nothing else fits beside an over-budget hog).
  for (const AdmissionRecord& rec : frontend.admission_log()) {
    if (rec.tenant != 0) continue;
    for (const AdmissionRecord& other : frontend.admission_log()) {
      if (&other != &rec && other.admit_us == rec.admit_us) {
        ADD_FAILURE() << "oversized command shared instant " << rec.admit_us;
      }
    }
  }
  EXPECT_TRUE(ftl->check_consistency());
}

// --- Per-tenant sampler lanes ----------------------------------------------

/// A frontend over a fresh tiny pageFTL with `tenants` Poisson tenants
/// (seeded), ready to run.
struct SampledRun {
  std::unique_ptr<ftl::FtlBase> ftl;
  std::unique_ptr<MultiQueueFrontend> frontend;
};

SampledRun sampled_run(std::uint32_t tenants) {
  SampledRun run;
  run.ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  MultiQueueConfig mq;
  mq.arbiter.policy = ctrl::ArbPolicy::kWeightedDeficitRoundRobin;
  mq.shared_page_budget = 6;
  run.frontend = std::make_unique<MultiQueueFrontend>(*run.ftl, mq);
  for (std::uint32_t i = 0; i < tenants; ++i) {
    TenantConfig t;
    t.id = i;
    t.requests = 60;
    t.mean_interarrival_us = 300;
    t.read_fraction = 0.25;
    t.size_dist = {{1, 0.6}, {4, 0.4}};
    run.frontend->add_tenant(
        t, tenant_trace(t, tenant_partition(i, tenants, run.ftl->exported_pages()), 11));
  }
  return run;
}

TEST(MultiQueueFrontend, TenantSamplersDoNotChangeTheResult) {
  constexpr std::uint32_t kTenants = 6;
  SampledRun bare = sampled_run(kTenants);
  const std::uint64_t digest = bare.frontend->run().digest();

  SampledRun one = sampled_run(kTenants);
  obs::StateSampler lane(100);
  one.frontend->attach_tenant_sampler(3, &lane);
  EXPECT_EQ(one.frontend->run().digest(), digest);
  EXPECT_FALSE(lane.samples().empty());

  SampledRun all = sampled_run(kTenants);
  std::vector<std::unique_ptr<obs::StateSampler>> lanes;
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    lanes.push_back(std::make_unique<obs::StateSampler>(100));
    all.frontend->attach_tenant_sampler(i, lanes.back().get());
  }
  EXPECT_EQ(all.frontend->run().digest(), digest);
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    const std::vector<obs::StateSample>& samples = lanes[i]->samples();
    ASSERT_FALSE(samples.empty()) << "tenant " << i;
    for (const obs::StateSample& s : samples) {
      EXPECT_LE(s.sbqueue, 8u) << "tenant " << i;  // in flight <= the default cap
      EXPECT_LE(s.u, 1.0) << "tenant " << i;
      EXPECT_GE(s.free_fraction, 0.0) << "tenant " << i;
      EXPECT_LE(s.free_fraction, 1.0) << "tenant " << i;
    }
    // Progress through the trace never goes back.
    for (std::size_t k = 1; k < samples.size(); ++k) {
      EXPECT_GE(samples[k].free_fraction, samples[k - 1].free_fraction) << "tenant " << i;
    }
  }
}

TEST(MultiQueueFrontend, TenantSamplersTickOncePerInstantInTenantOrder) {
  // Lanes attached out of order (and one twice) tick in ascending tenant
  // order, once each per event instant; a lane detached with nullptr
  // never ticks. A 1 us period turns every tick into a sample, and the
  // replaced collector logs which lane ticked.
  constexpr std::uint32_t kTenants = 8;
  SampledRun run = sampled_run(kTenants);
  std::vector<std::pair<Microseconds, std::uint32_t>> log;
  std::vector<std::unique_ptr<obs::StateSampler>> lanes(kTenants);
  for (const std::uint32_t i : {6u, 1u, 4u, 1u, 2u}) {
    if (!lanes[i]) lanes[i] = std::make_unique<obs::StateSampler>(1);
    run.frontend->attach_tenant_sampler(i, lanes[i].get());
    lanes[i]->set_collector([&log, i](obs::StateSample& s) { log.emplace_back(s.ts, i); });
  }
  run.frontend->attach_tenant_sampler(4, nullptr);
  run.frontend->attach_tenant_sampler(5, nullptr);  // never attached: a no-op
  (void)run.frontend->run();

  EXPECT_TRUE(lanes[4]->samples().empty());
  const std::vector<std::uint32_t> order = {1, 2, 6};
  ASSERT_FALSE(log.empty());
  ASSERT_EQ(log.size() % order.size(), 0u);
  for (std::size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].second, order[k % order.size()]) << "tick " << k;
    EXPECT_EQ(log[k].first, log[k - k % order.size()].first) << "tick " << k;
    if (k >= order.size()) {
      EXPECT_GT(log[k].first, log[k - order.size()].first) << "tick " << k;
    }
  }
  for (const std::uint32_t i : order) {
    EXPECT_EQ(lanes[i]->samples().size(), log.size() / order.size()) << "tenant " << i;
  }
}

TEST(MultiQueueFrontend, LongCommandHarvestsCorrectlyWhileLaterOnesComplete) {
  // Tenant 0 submits one 64-page write; tenant 1 then streams single-page
  // reads of unmapped pages, which retire on the spot. Hundreds of later
  // commands finish while the write is still in flight, so the pending
  // window spans them all. Every command's latency must match the
  // controller's op log.
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  MultiQueueConfig mq;
  mq.keep_admission_log = true;
  mq.keep_op_log = true;
  MultiQueueFrontend frontend(*ftl, mq);
  const Lpn half = ftl->exported_pages() / 2;
  TenantConfig writer;
  writer.id = 0;
  frontend.add_tenant(writer, instant_burst(1, 64, 1, 0, half));
  TenantConfig reader;
  reader.id = 1;
  reader.in_flight_cap = 100000;
  workload::Trace reads("reads");
  for (std::uint64_t i = 0; i < 2000; ++i) {
    workload::IoRequest r;
    r.arrival_us = 2 + static_cast<Microseconds>(i) * 5;
    r.kind = workload::IoKind::kRead;
    r.page_count = 1;
    r.lpn = half + static_cast<Lpn>(i) % half;
    reads.add(r);
  }
  frontend.add_tenant(reader, std::move(reads));
  const MultiQueueResult result = frontend.run();

  // The reference: each command completes with its last op.
  std::map<ctrl::CommandId, Microseconds> done;
  for (const ctrl::OpRecord& op : frontend.controller().op_log()) {
    done[op.cmd] = std::max(done[op.cmd], op.complete);
  }
  std::vector<obs::LatencyHistogram> want(2);
  std::vector<Microseconds> last(2, 0);
  Microseconds write_done = 0;
  for (const AdmissionRecord& rec : frontend.admission_log()) {
    ASSERT_EQ(done.count(rec.id), 1u) << "command " << rec.id;
    const Microseconds at = done[rec.id];
    want[rec.tenant].add(static_cast<std::uint64_t>(std::max<Microseconds>(0, at - rec.arrival_us)));
    last[rec.tenant] = std::max(last[rec.tenant], at);
    if (rec.tenant == 0) write_done = at;
  }
  std::uint64_t overtaken = 0;
  for (const AdmissionRecord& rec : frontend.admission_log()) {
    if (rec.tenant == 1 && done[rec.id] < write_done) ++overtaken;
  }
  EXPECT_GT(overtaken, 500u) << "the write must stay in flight past many reads";

  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_EQ(result.tenants[0].completed, 1u);
  EXPECT_EQ(result.tenants[1].completed, 2000u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const TenantResult& t = result.tenants[i];
    EXPECT_EQ(t.submitted, t.completed) << "tenant " << i;
    EXPECT_EQ(t.failed + t.aborted, 0u) << "tenant " << i;
    EXPECT_EQ(t.latency_us.to_json(), want[i].to_json()) << "tenant " << i;
    EXPECT_EQ(t.last_complete_us, last[i]) << "tenant " << i;
  }
  EXPECT_EQ(result.tenants[0].write_latency_us.to_json(), want[0].to_json());
  EXPECT_EQ(result.tenants[1].write_latency_us.count(), 0u);
  EXPECT_TRUE(ftl->check_consistency());
}

}  // namespace
}  // namespace rps::host
