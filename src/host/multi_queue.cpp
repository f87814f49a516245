#include "src/host/multi_queue.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace rps::host {

namespace {

/// FNV-1a, the digest primitive (stable across platforms and runs).
void fnv_mix(std::uint64_t& h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
}

}  // namespace

std::uint64_t MultiQueueResult::digest() const {
  std::uint64_t h = 1469598103934665603ull;
  std::ostringstream os;
  os << end_time_us << '|' << idle_windows << '|' << crashed;
  for (const TenantResult& t : tenants) {
    os << '|' << t.id << ',' << t.submitted << ',' << t.completed << ','
       << t.aborted << ',' << t.failed << ',' << t.read_requests << ','
       << t.write_requests << ',' << t.pages << ',' << t.read_errors << ','
       << t.last_complete_us << ',' << t.latency_us.to_json() << ','
       << t.write_latency_us.to_json();
  }
  fnv_mix(h, os.str());
  return h;
}

MultiQueueFrontend::MultiQueueFrontend(ftl::FtlBase& ftl, MultiQueueConfig config)
    : ftl_(ftl), config_(std::move(config)) {
  controller_ = std::make_unique<ctrl::Controller>(
      ftl_, ctrl::ControllerConfig{.stripe_writes = config_.stripe_writes,
                                   .keep_op_log = config_.keep_op_log});
}

void MultiQueueFrontend::add_tenant(const TenantConfig& config,
                                    workload::Trace trace) {
  assert(config.id == queues_.size());  // ids must be dense, in order
  assert(trace.is_sorted());
  Queue q;
  q.config = config;
  q.trace = std::move(trace);
  q.result.id = config.id;
  if (!q.trace.requests().empty()) {
    arrivals_.push(Arrival{q.trace.requests().front().arrival_us, config.id, 0});
  }
  queues_.push_back(std::move(q));
}

void MultiQueueFrontend::attach_tenant_sampler(std::uint32_t tenant,
                                               obs::StateSampler* sampler) {
  Queue& q = queues_.at(tenant);
  q.sampler = sampler;
  const auto at = std::lower_bound(sampled_.begin(), sampled_.end(), tenant);
  const bool listed = at != sampled_.end() && *at == tenant;
  if (sampler == nullptr) {
    if (listed) sampled_.erase(at);
    return;
  }
  if (!listed) sampled_.insert(at, tenant);
  sampler->set_collector([this, tenant](obs::StateSample& sample) {
    const Queue& queue = queues_[tenant];
    const auto& reqs = queue.trace.requests();
    sample.q = -1;
    sample.sbqueue = queue.in_flight;
    // Backlog: arrived by the current instant, not yet admitted.
    const auto begin = reqs.begin() + static_cast<std::ptrdiff_t>(queue.next);
    const auto it = std::upper_bound(
        begin, reqs.end(), cur_time_,
        [](Microseconds t, const workload::IoRequest& r) { return t < r.arrival_us; });
    sample.queued_write_ops = static_cast<std::uint64_t>(it - begin);
    // Progress through the tenant's trace, repurposing the free-fraction
    // column of the shared sample schema.
    sample.free_fraction =
        reqs.empty() ? 1.0
                     : static_cast<double>(queue.next) / static_cast<double>(reqs.size());
  });
}

void MultiQueueFrontend::set_observability(obs::TraceSink* sink,
                                           obs::StateSampler* sampler) {
  controller_->set_observability(sink, sampler);
}

Microseconds MultiQueueFrontend::next_arrival() {
  // A head whose arrival already passed is cap- or budget-blocked (the
  // admission loop admits every other kind on the spot): its next chance
  // comes from a completion, not from the arrival clock — and since
  // cur_time_ is monotone such an entry can never drive the clock again,
  // so it pops for good. Its tenant's eligibility was already recomputed
  // when the head arrived (process_instant's release loop, or the
  // admission that created it mid-instant), so dropping the entry loses
  // nothing. Before the first instant runs nothing was ever admitted, so
  // that reasoning does not apply yet — an arrival at exactly cur_time_
  // (a trace that starts at t = 0) must still open the loop.
  while (!arrivals_.empty()) {
    const Arrival a = arrivals_.top();
    if (a.seq != queues_[a.tenant].next) {
      arrivals_.pop();  // stale: that head was admitted
      continue;
    }
    if (started_ && a.at <= cur_time_) {
      arrivals_.pop();  // blocked head: completions drive it now
      continue;
    }
    return a.at;
  }
  return kTimeNever;
}

double MultiQueueFrontend::buffer_utilization() const {
  const std::uint32_t cap = ftl_.config().write_buffer_pages;
  if (cap == 0) return 0.0;
  return std::min(1.0, static_cast<double>(in_flight_write_pages_) /
                           static_cast<double>(cap));
}

bool MultiQueueFrontend::harvest() {
  controller_->take_all_results_into(results_scratch_);
  for (const ctrl::CommandResult& res : results_scratch_) {
    assert(res.id >= pending_base_ && res.id - pending_base_ < pending_.size());
    Pending& entry = pending_[static_cast<std::size_t>(res.id - pending_base_)];
    assert(entry.live);
    entry.live = false;
    const Pending p = entry;
    while (!pending_.empty() && !pending_.front().live) {
      pending_.pop_front();
      ++pending_base_;
    }
    Queue& q = queues_[p.tenant];
    if (res.aborted) {
      // Torn off by a power loss: never acknowledged, no completion will
      // ever release its slot — release it here.
      ++q.result.aborted;
      assert(q.in_flight > 0);
      --q.in_flight;
      in_flight_pages_ -= p.pages;
      if (p.write) in_flight_write_pages_ -= p.pages;
      continue;
    }
    const Microseconds done = res.last_complete;
    ++q.result.completed;
    if (!res.ok) ++q.result.failed;
    q.result.read_errors += res.read_errors;
    const auto latency =
        static_cast<std::uint64_t>(done > p.arrival ? done - p.arrival : 0);
    q.result.latency_us.add(latency);
    if (p.write) q.result.write_latency_us.add(latency);
    q.result.last_complete_us = std::max(q.result.last_complete_us, done);
    last_completion_ = std::max(last_completion_, done);
    completions_.push(
        Completion{done, p.tenant, p.pages, p.write ? p.pages : 0});
  }
  return !results_scratch_.empty();
}

bool MultiQueueFrontend::budget_fits(std::uint32_t pages) const {
  if (config_.shared_page_budget == 0) return true;
  if (in_flight_pages_ + pages <= config_.shared_page_budget) return true;
  // Oversized command: admit alone rather than deadlock.
  return in_flight_pages_ == 0 && pages > config_.shared_page_budget;
}

void MultiQueueFrontend::recompute_eligibility(std::uint32_t i) {
  const Queue& q = queues_[i];
  const bool ready = q.next < q.trace.size() &&
                     q.trace.requests()[q.next].arrival_us <= cur_time_ &&
                     q.in_flight < q.config.in_flight_cap;
  const std::uint32_t pages = ready ? q.trace.requests()[q.next].page_count : 0;
  const bool ok = ready && budget_fits(pages);
  if (config_.shared_page_budget != 0) {
    if (ready && !ok) {
      budget_blocked_.set(i);
    } else {
      budget_blocked_.clear(i);
    }
  }
  if (ok) {
    admissible_.set(i);
  } else {
    admissible_.clear(i);
  }
  arbiter_->set_eligible(i, ok, ok ? pages : 0);
}

void MultiQueueFrontend::on_budget_grabbed() {
  // A shrinking budget can only evict: rescan the currently-admissible
  // set (this also catches an oversized head that was eligible solely
  // because nothing was in flight). Snapshot first — recompute mutates
  // the set under iteration.
  if (config_.shared_page_budget == 0) return;
  rescan_scratch_.clear();
  admissible_.for_each([&](std::uint32_t i) { rescan_scratch_.push_back(i); });
  for (const std::uint32_t i : rescan_scratch_) recompute_eligibility(i);
}

void MultiQueueFrontend::on_budget_released() {
  // A growing budget can only promote: rescan the budget-blocked set.
  if (config_.shared_page_budget == 0) return;
  rescan_scratch_.clear();
  budget_blocked_.for_each([&](std::uint32_t i) { rescan_scratch_.push_back(i); });
  for (const std::uint32_t i : rescan_scratch_) recompute_eligibility(i);
}

void MultiQueueFrontend::process_instant(Microseconds t) {
  cur_time_ = t;
  started_ = true;
  // Heads arriving by this instant join the admissible set. Each entry
  // releases once; later heads of the same tenant push fresh entries on
  // admission. Stale entries (head already admitted) drop silently.
  while (!arrivals_.empty() && arrivals_.top().at <= t) {
    const Arrival a = arrivals_.top();
    arrivals_.pop();
    if (a.seq == queues_[a.tenant].next) recompute_eligibility(a.tenant);
  }
  bool progress = true;
  while (progress) {
    progress = false;
    // Completions due by now release their tenant's in-flight slot (and
    // their share of the write buffer).
    while (!completions_.empty() && completions_.top().at <= t) {
      const Completion c = completions_.top();
      completions_.pop();
      Queue& q = queues_[c.tenant];
      assert(q.in_flight > 0);
      --q.in_flight;
      assert(in_flight_pages_ >= c.pages);
      in_flight_pages_ -= c.pages;
      assert(in_flight_write_pages_ >= c.write_pages);
      in_flight_write_pages_ -= c.write_pages;
      recompute_eligibility(c.tenant);
      on_budget_released();
      progress = true;
    }
    // Arbitration: the arbiter holds the eligibility pushed above and
    // admits in O(active) until it runs dry.
    while (const std::optional<std::uint32_t> pick = arbiter_->admit()) {
      Queue& q = queues_[*pick];
      const workload::IoRequest& r = q.trace.requests()[q.next];
      const bool write = r.kind == workload::IoKind::kWrite;
      ctrl::HostCommand cmd;
      cmd.kind = write ? ctrl::CmdKind::kWrite : ctrl::CmdKind::kRead;
      cmd.lpn = r.lpn;
      cmd.page_count = r.page_count;
      cmd.issue = t;
      cmd.stream = q.config.effective_stream();
      in_flight_pages_ += r.page_count;
      if (write) in_flight_write_pages_ += r.page_count;
      cmd.buffer_utilization = buffer_utilization();
      const ctrl::CommandId id = controller_->submit(cmd);
      if (pending_.empty()) pending_base_ = id;
      assert(id == pending_base_ + pending_.size());  // ids are dense
      pending_.push_back(Pending{*pick, r.arrival_us, r.page_count, write, true});
      if (config_.keep_admission_log) {
        admission_log_.push_back(AdmissionRecord{*pick, q.next, r.arrival_us, t,
                                                 id, r.page_count, write});
      }
      ++q.next;
      ++q.in_flight;
      ++q.result.submitted;
      q.result.pages += r.page_count;
      if (write) {
        ++q.result.write_requests;
      } else {
        ++q.result.read_requests;
      }
      // The tenant's next head (if it already arrived) re-arms its
      // eligibility here; a future head goes through the arrival heap.
      if (q.next < q.trace.size()) {
        arrivals_.push(
            Arrival{q.trace.requests()[q.next].arrival_us, *pick, q.next});
      }
      recompute_eligibility(*pick);
      // The admission grabbed budget pages, which can evict other
      // eligible heads.
      on_budget_grabbed();
      progress = true;
    }
    controller_->drain(t);
    if (harvest()) progress = true;
  }
  tick_samplers(t);
}

void MultiQueueFrontend::tick_samplers(Microseconds t) {
  for (const std::uint32_t i : sampled_) {
    const Queue& q = queues_[i];
    q.sampler->set_utilization(
        q.config.in_flight_cap == 0
            ? 0.0
            : static_cast<double>(q.in_flight) /
                  static_cast<double>(q.config.in_flight_cap));
    q.sampler->tick(t);
  }
}

MultiQueueResult MultiQueueFrontend::run(Microseconds crash_time_us) {
  assert(!queues_.empty());
  const auto n = static_cast<std::uint32_t>(queues_.size());
  ctrl::ArbiterConfig arb = config_.arbiter;
  if (arb.weights.empty()) {
    arb.weights.reserve(n);
    for (const Queue& q : queues_) arb.weights.push_back(q.config.weight);
  }
  arbiter_ = std::make_unique<ctrl::QueueArbiter>(n, arb);
  admissible_.resize(n);
  budget_blocked_.resize(n);
  rescan_scratch_.reserve(n);

  while (true) {
    const Microseconds na = next_arrival();
    Microseconds nc = completions_.empty() ? kTimeNever : completions_.top().at;
    if (nc == kTimeNever && !pending_.empty()) {
      // Commands in flight but no known completion: their ops wait on
      // controller-internal wake-ups (busy chips). Run the controller
      // forward to the next external decision point and harvest.
      controller_->drain(std::min(na, crash_time_us));
      harvest();
      nc = completions_.empty() ? kTimeNever : completions_.top().at;
      if (nc == kTimeNever && na == kTimeNever) break;  // crash-capped tail
    }
    const Microseconds t = std::min(na, nc);
    if (t == kTimeNever) break;
    if (t >= crash_time_us) break;  // nothing at or after the cut happens
    if (t == na && completions_.empty() && pending_.empty() &&
        t > last_completion_ + config_.idle_threshold_us) {
      // Same semantics as sim::Simulator's idle-window detection: the
      // device has drained and the next arrival leaves a real gap.
      ftl_.on_idle(last_completion_, t);
      ++idle_windows_;
    }
    process_instant(t);
  }

  MultiQueueResult result;
  result.crashed = crash_time_us != kTimeNever;
  result.idle_windows = idle_windows_;
  result.end_time_us = last_completion_;
  result.tenants.reserve(n);
  for (const Queue& q : queues_) result.tenants.push_back(q.result);
  return result;
}

ctrl::PowerLossOutcome MultiQueueFrontend::power_loss(Microseconds t,
                                                      MultiQueueResult& result) {
  const ctrl::PowerLossOutcome outcome = controller_->power_loss(t);
  harvest();  // aborted commands surface as finished results
  for (std::uint32_t i = 0; i < num_tenants(); ++i) result.tenants[i] = queues_[i].result;
  result.end_time_us = std::max(result.end_time_us, last_completion_);
  return outcome;
}

}  // namespace rps::host
