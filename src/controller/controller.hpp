// The command-scheduling controller: per-chip op queues, request striping,
// event-driven retirement.
//
// A submitted HostCommand is split into per-page NandOps (nand_op.hpp).
// Write ops wait in one FIFO and are *bound to a chip at dispatch time*:
// when the event loop reaches a time t, every chip whose timeline is free
// at t is eligible, and the allocator's capacity-aware round-robin
// (FtlBase::pick_idle_unit) picks among the eligible set in one pass over
// the units. That is what makes the pages of one request stripe across
// the array — the second page never waits behind the first page's
// program, it lands on the next idle chip. When no chip is idle the
// controller sleeps until the earliest one frees up.
//
// Read ops are bound to the chip their mapping points at and queue
// per-chip FIFO; the device model serializes same-chip service anyway, so
// queueing mirrors the hardware. Reads of unmapped pages retire instantly
// (zero-fill, no device touch).
//
// What the controller does NOT do: page placement (the allocator decides
// where on the chosen chip a page lands and what backup/GC work surrounds
// it), and GC scheduling (foreground GC remains a synchronous part of an
// allocation — the victim relocation must complete before the freed block
// can absorb the triggering write, so it is one indivisible policy step).
//
// Memory layout (DESIGN.md §14): the steady-state submit→retire cycle is
// allocation-free. Per-page ops are never materialized — an op is fully
// determined by its (command, index) pair (kind and LPN derive from the
// command, the only dependency edge is index-1 → index on ordered
// commands, and the plane group is index / planes) — so the queues carry
// tiny {ready, cmd, index} entries in recycling ring buffers, and the only
// per-op storage is a done-flag byte from a power-of-two slab pool. Live
// commands occupy a power-of-two ring of parallel arrays (SoA: state,
// command, remaining-count, result, done-slab, plane anchors) indexed by
// id & mask, recycled as the id window slides.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/controller/event_queue.hpp"
#include "src/controller/nand_op.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/util/ring_buffer.hpp"
#include "src/util/slab_pool.hpp"

namespace rps::obs {
class TraceSink;
class StateSampler;
}  // namespace rps::obs

namespace rps::ctrl {

struct ControllerConfig {
  /// Bind write ops to idle chips at dispatch (request striping). When
  /// off, every write falls back to the allocator's own unconstrained
  /// chip pick — placement becomes identical to the legacy synchronous
  /// path regardless of chip busyness.
  bool stripe_writes = true;
  /// Record one OpRecord per retired op (property tests, debugging).
  bool keep_op_log = false;
};

/// Completion record of one command.
struct CommandResult {
  CommandId id = 0;
  Microseconds issue = 0;
  Microseconds first_complete = 0;  // earliest page op retirement
  Microseconds last_complete = 0;   // all page ops retired
  std::uint32_t pages = 0;
  std::uint32_t read_errors = 0;    // ECC-uncorrectable page reads
  bool ok = true;                   // every write op found space
  /// A power loss cancelled at least one of this command's ops before it
  /// dispatched: the command was never acknowledged to the host.
  bool aborted = false;
};

/// What a power loss tore out of the controller (see Controller::power_loss).
struct PowerLossOutcome {
  /// Programs the device reported destroyed (in flight at the cut).
  std::vector<nand::PowerLossVictim> victims;
  std::uint64_t cancelled_write_ops = 0;  // queued, never dispatched
  std::uint64_t cancelled_read_ops = 0;   // queued, never dispatched
  std::uint64_t aborted_commands = 0;     // had at least one unretired op
};

/// Per-op trace entry.
struct OpRecord {
  CommandId cmd = 0;
  std::uint32_t index = 0;  // position within the command's batch
  OpKind kind = OpKind::kHostWrite;
  Lpn lpn = 0;
  std::uint32_t chip = 0;   // chip the op was dispatched on
  Microseconds issue = 0;   // command issue time
  Microseconds ready = 0;   // last dependency resolved
  Microseconds start = 0;   // dispatched to the allocator/device
  Microseconds complete = 0;
  bool ok = true;
};

class Controller {
 public:
  explicit Controller(ftl::FtlBase& ftl, ControllerConfig config = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Enqueue a command, split into per-page ops. Returns its id; nothing
  /// executes until drain().
  CommandId submit(const HostCommand& cmd);

  /// Run the event loop: dispatch every op that becomes ready at an event
  /// time <= `until` (default: until everything submitted has retired).
  void drain(Microseconds until = kTimeNever);

  /// submit + drain + take_result: the synchronous convenience path.
  CommandResult execute(const HostCommand& cmd);

  /// Completion record of a fully retired command (removes it from the
  /// finished set). Asserts the command is finished.
  CommandResult take_result(CommandId id);

  /// Every finished (or aborted) command's record, ordered by id; clears
  /// the finished set. The crash harness uses this to decide which
  /// commands the host saw acknowledged before a cut.
  std::vector<CommandResult> take_all_results();

  /// Allocation-free variant: clears `out` and refills it (reserving from
  /// the finished-set size). Steady-state callers reuse one buffer across
  /// harvests so the results path never touches the allocator.
  void take_all_results_into(std::vector<CommandResult>& out);

  /// Pre-size every in-flight structure for a closed-loop host that keeps
  /// at most `commands` commands of at most `max_pages` pages each
  /// outstanding: the slot ring, the done-flag slab pool (every size
  /// class up to `max_pages`, `commands` slabs deep), the op queues, and
  /// the finished list. After this, a host honoring those bounds drives
  /// submit/drain/take_all_results_into without a single heap allocation
  /// — capacity high-water marks can no longer drift run to run.
  void reserve_inflight(std::size_t commands, std::size_t max_pages);

  /// Power loss at time `t`: settle everything dispatchable by `t`, then
  /// tear the controller down the way a real cut would — queued-but-
  /// unissued ops are cancelled (their commands abort; the host never saw
  /// an acknowledgement), wake-ups are dropped, and the device power loss
  /// is injected (destroying in-flight programs). Commands that fully
  /// retired stay in the finished set; whether their data survived is the
  /// recovery layer's problem, not the scheduler's.
  PowerLossOutcome power_loss(Microseconds t);

  /// True when no submitted op is still in flight.
  [[nodiscard]] bool idle() const { return live_ops_ == 0; }

  /// Idle-window pass-through to the allocator's planning hook.
  void on_idle(Microseconds now, Microseconds deadline);

  /// Attach observability (null = off, the default). The sink records one
  /// NandOp event per retired device op; the sampler is ticked at every
  /// event-queue instant the drain loop reaches. Both pointers are
  /// borrowed — the harness owns them and they must outlive the drain.
  void set_observability(obs::TraceSink* sink, obs::StateSampler* sampler) {
    trace_ = sink;
    sampler_ = sampler;
  }

  /// Scheduler depth right now (state sampling): write FIFO ops, and
  /// queued read ops on `chip` (a flat unit index; one queue per unit).
  [[nodiscard]] std::size_t write_queue_depth() const { return write_queue_.size(); }
  [[nodiscard]] std::size_t read_queue_depth(std::uint32_t chip) const {
    assert(chip < read_queues_.size());
    return read_queues_[chip].size();
  }
  [[nodiscard]] std::uint32_t num_chips() const {
    return static_cast<std::uint32_t>(read_queues_.size());
  }

  [[nodiscard]] const std::vector<OpRecord>& op_log() const { return op_log_; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }

 private:
  /// A slot walks kPending -> kFinished (done slab released; the result
  /// awaits take_result) -> kEmpty, and the id window slides off empty
  /// front slots.
  enum class SlotState : std::uint8_t { kEmpty, kPending, kFinished };

  /// A dependency-resolved op waiting in a dispatch queue. `ready` is
  /// immutable once enqueued: dependencies resolve *before* enqueueing
  /// (an ordered op enters its queue when its predecessor retires), so
  /// the dispatch scan never dereferences the slot to test readiness.
  struct QueuedOp {
    Microseconds ready = 0;
    CommandId cmd = 0;
    std::uint32_t index = 0;
  };

  /// Live commands occupy a power-of-two ring of parallel arrays indexed
  /// by id & slot_mask_ (ids are monotonic, so the window
  /// [base_id_, next_id_) is contiguous mod capacity).
  [[nodiscard]] std::size_t slot_of(CommandId id) const {
    assert(id >= base_id_ && id < next_id_);
    return static_cast<std::size_t>(id) & slot_mask_;
  }

  /// Double the slot ring, re-basing the live window by id.
  void grow_slots();

  /// Slide the window: drop consumed slots off the front.
  void pop_empty_front() {
    while (base_id_ < next_id_ &&
           slot_state_[static_cast<std::size_t>(base_id_) & slot_mask_] ==
               SlotState::kEmpty) {
      ++base_id_;
    }
  }

  /// The per-page op an index denotes, derived from its command.
  [[nodiscard]] static Lpn op_lpn(const HostCommand& cmd, std::uint32_t index) {
    return cmd.lpn + index;
  }
  [[nodiscard]] std::uint32_t op_plane_group(const HostCommand& cmd,
                                             std::uint32_t index) const {
    return (planes_ > 1 && cmd.kind == CmdKind::kWrite && !cmd.ordered)
               ? index / planes_
               : kNoPlaneGroup;
  }

  /// Return a finished/aborted slot's done slab to the pool.
  void release_done(std::size_t si) {
    if (slot_done_[si] != nullptr) {
      done_pool_.release(slot_done_[si], slot_cmd_[si].page_count);
      slot_done_[si] = nullptr;
    }
  }

  /// An op's dependencies just resolved: route it to its dispatch queue
  /// (or retire it on the spot for unmapped reads).
  void enqueue_ready(CommandId id, std::uint32_t index, Microseconds ready);

  /// Dispatch everything dispatchable at time `t`; schedules wake-ups for
  /// whatever blocks (busy chips, unready deps).
  void dispatch_at(Microseconds t);

  /// Returns true when the op was consumed (dispatched or failed); false
  /// when it must stay queued (no idle chip — `blocked_until` is set to
  /// the earliest time one frees up).
  bool dispatch_write(const QueuedOp& qop, Microseconds t, Microseconds& blocked_until);
  void dispatch_read(const QueuedOp& qop, std::uint32_t chip, Microseconds t);

  void retire(CommandId id, std::uint32_t index, Microseconds ready,
              std::uint32_t chip, Microseconds start, Microseconds complete,
              bool ok);

  /// Finalize commands whose last op retired (recorded in
  /// newly_finished_): release their done slab and flip the slot to
  /// kFinished. Only called from drain() between events.
  void collect_finished();

  ftl::FtlBase& ftl_;
  ControllerConfig config_;
  EventQueue events_;
  std::uint32_t planes_ = 0;  // geometry cache: planes per die

  // SoA slot ring (see slot_of). Parallel arrays keep the fields the
  // dispatch/retire path touches (state, remaining, result) packed apart
  // from the cold per-command records.
  std::vector<SlotState> slot_state_;
  std::vector<std::uint32_t> slot_remaining_;
  std::vector<CommandResult> slot_result_;
  std::vector<HostCommand> slot_cmd_;
  std::vector<std::uint8_t*> slot_done_;  // per-op done flags (slab pool)
  /// Plane-group anchors: (group, die) of the first member dispatched.
  /// Later members of the group prefer idle sibling planes of that die
  /// so their programs share one multi-plane-style busy window. The
  /// inner vectors keep their capacity across slot recycling.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> slot_group_die_;
  std::size_t slot_mask_ = 0;
  CommandId base_id_ = 1;  // oldest live id
  CommandId next_id_ = 1;

  SlabPool<std::uint8_t> done_pool_;
  std::vector<CommandId> newly_finished_;  // remaining hit 0, not yet collected
  std::size_t finished_count_ = 0;  // slots in kFinished state
  RingBuffer<QueuedOp> write_queue_;               // FIFO, striped across chips
  std::vector<RingBuffer<QueuedOp>> read_queues_;  // per chip
  std::size_t queued_reads_ = 0;  // total across read_queues_
  std::vector<OpRecord> op_log_;
  std::uint64_t live_ops_ = 0;
  obs::TraceSink* trace_ = nullptr;      // borrowed; null = tracing off
  obs::StateSampler* sampler_ = nullptr; // borrowed; null = sampling off
};

}  // namespace rps::ctrl
