// One NAND chip (die): an array of blocks plus a timeline.
//
// Timing model: a chip executes one operation at a time. An operation
// issued at time T starts at max(T, busy_until) and occupies the chip for
// its latency; the channel bus is modeled one level up, in NandDevice.
// The in-flight operation is tracked so a power loss can be resolved to
// the exact page being programmed (destructive MSB programming).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/nand/attribution.hpp"
#include "src/nand/block.hpp"
#include "src/nand/timing.hpp"
#include "src/util/counter_fields.hpp"
#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::nand {

/// Operation counters, aggregated per chip and per device. Fields come
/// from the shared X-macro list (src/util/counter_fields.hpp) so the
/// struct, Registry::delta and the metrics report can never disagree.
struct OpCounters {
#define RPS_FIELD(name) std::uint64_t name = 0;
  RPS_OP_COUNTER_FIELDS(RPS_FIELD)
#undef RPS_FIELD

  [[nodiscard]] std::uint64_t programs() const { return lsb_programs + msb_programs; }

  OpCounters& operator+=(const OpCounters& other) {
#define RPS_FIELD(name) name += other.name;
    RPS_OP_COUNTER_FIELDS(RPS_FIELD)
#undef RPS_FIELD
    return *this;
  }
};

/// When an accepted operation starts and finishes on the chip timeline.
struct OpTiming {
  Microseconds start = 0;     // when the chip began executing
  Microseconds complete = 0;  // when the chip becomes free again

  [[nodiscard]] Microseconds busy_time() const { return complete - start; }
};

class Chip {
 public:
  Chip(std::uint32_t blocks, std::uint32_t wordlines, SequenceKind kind,
       const TimingSpec& timing);

  /// Enable program suspension: a read arriving while a program occupies
  /// the chip preempts it (up to max_suspends_per_program times), paying
  /// suspend_resume_us and stretching the program accordingly. Real MLC
  /// controllers use this to protect read latency from 2 ms MSB programs.
  void set_program_suspend(bool enabled) { program_suspend_ = enabled; }
  [[nodiscard]] bool program_suspend() const { return program_suspend_; }

  [[nodiscard]] std::uint32_t num_blocks() const { return static_cast<std::uint32_t>(blocks_.size()); }
  [[nodiscard]] const Block& block(std::uint32_t b) const {
    assert(b < blocks_.size());
    materialize_erase(b);
    return blocks_[b];
  }
  [[nodiscard]] Block& block(std::uint32_t b) {
    assert(b < blocks_.size());
    materialize_erase(b);
    return blocks_[b];
  }

  /// Program `pos` of block `b` at (or after) `now`. On success the chip
  /// timeline advances; on failure nothing changes.
  Result<OpTiming> program(std::uint32_t b, PagePos pos, PageData data, Microseconds now);

  /// Program whose legality the caller has just validated against this
  /// block (NandDevice::resolve_program checks can_program through the
  /// block() accessor, which also materialized any pending erase of `b`).
  /// Skips the duplicate legality checks; otherwise identical to program().
  OpTiming program_resolved(std::uint32_t b, PagePos pos, PageData data, Microseconds now) {
    assert(b < blocks_.size());
    // The caller validated via block(b).can_program(), which also
    // materialized any pending erase of `b`; settling other blocks' erases
    // here cannot change this block's legality.
    settle_erases(now);
    materialize_erase(b);
    return commit_program(b, pos, std::move(data), now);
  }

  /// Read a page. Timing advances even for ECC-uncorrectable reads (the
  /// sensing happened); the data result is reported separately.
  struct ReadOutcome {
    OpTiming timing;
    Result<PageData> data = ErrorCode::kNotProgrammed;
  };
  Result<ReadOutcome> read(std::uint32_t b, PagePos pos, Microseconds now) {
    if (b >= blocks_.size()) return ErrorCode::kOutOfRange;
    if (pos.wordline >= blocks_[b].wordlines()) return ErrorCode::kOutOfRange;
    settle_erases(now);
    materialize_erase(b);
    ++counters_.reads;
    ReadOutcome outcome{{}, blocks_[b].read(pos)};
    // Program suspension: jump the queue past an in-flight program. The
    // read runs immediately; the program (and the chip) is pushed back by
    // the read plus the suspend/resume overhead.
    if (program_suspend_ && last_program_ && last_program_->start <= now &&
        now < last_program_->complete &&
        last_program_->suspends < timing_.max_suspends_per_program) {
      ++last_program_->suspends;
      const Microseconds stretch = timing_.read_us + timing_.suspend_resume_us;
      last_program_->complete += stretch;
      busy_until_ += stretch;
      busy_total_ += timing_.read_us;
      outcome.timing = OpTiming{now, now + timing_.read_us};
      return outcome;
    }
    const Microseconds start = occupy(now, timing_.read_us);
    outcome.timing = OpTiming{start, busy_until_};
    return outcome;
  }

  /// Erase block `b`. The timeline charge (and the erase counter) is
  /// immediate; the destructive cell reset is *lazy* — it is applied once
  /// the erase provably started (the wall clock passed its start time, or
  /// a later op touches the block, which timeline-serialization places
  /// after the erase). A power loss landing before the erase's start time
  /// voids it entirely: the block's data survives the cut, exactly as on
  /// real hardware where a queued erase behind an in-flight program never
  /// began.
  Result<OpTiming> erase(std::uint32_t b, Microseconds now);

  [[nodiscard]] Microseconds busy_until() const { return busy_until_; }
  [[nodiscard]] const OpCounters& counters() const { return counters_; }
  [[nodiscard]] Microseconds busy_time_total() const { return busy_total_; }

  /// Total erases across all blocks of this chip.
  [[nodiscard]] std::uint64_t total_erase_count() const;

  /// Point this chip at its device's attribution state (null = standalone
  /// chip, ops stay unattributed). Borrowed; the device outlives the chip.
  void attach_attribution(DeviceAttribution* attr) { attr_ = attr; }

  /// The per-physical-block wear ledger, charged at the same instants as
  /// OpCounters (timeline charge time, rolled back on power-loss voiding).
  /// Indexed by *physical* block: bad-block remaps need no ledger fixup.
  [[nodiscard]] const std::vector<BlockWear>& wear_ledger() const { return wear_; }
  [[nodiscard]] const BlockWear& block_wear(std::uint32_t b) const {
    assert(b < wear_.size());
    return wear_[b];
  }

  /// The program operation in flight at time `t`, if any.
  struct InFlightProgram {
    std::uint32_t block = 0;
    PagePos pos;
    Microseconds start = 0;
    Microseconds complete = 0;
    std::uint32_t suspends = 0;
  };
  [[nodiscard]] std::optional<InFlightProgram> program_in_flight_at(Microseconds t) const;

  /// Power loss at time `t`: the chip stops dead. The last program is a
  /// victim if it had not completed by `t` — mid-flight, or queued to start
  /// after `t` (a synchronous GC/backup sequence charged ahead of the cut).
  /// Its page is corrupted; an interrupted MSB program also destroys the
  /// paired LSB page's stored data. The chip timeline is capped at `t`
  /// (after a reboot the chip is immediately available). Returns the
  /// victim, if any.
  std::optional<InFlightProgram> apply_power_loss(Microseconds t);

  /// Snapshot support. Pending (lazy) erases are serialized as-is, NOT
  /// settled first: whether an erase's cell reset has been applied is
  /// observable through a later power loss, so a restore must reproduce
  /// the exact lazy state, not an equivalent eager one.
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  /// An erase charged to the timeline whose cell reset has not been
  /// applied yet (see erase()). Carries the cause it was attributed to and
  /// the ledger's previous last-erase time so a power loss that voids the
  /// erase can roll both back exactly (at most one pending erase per block
  /// exists — erase() materializes any earlier one first).
  struct PendingErase {
    std::uint32_t block = 0;
    Microseconds start = 0;
    WriteCause cause = WriteCause::kHost;
    Microseconds prev_last_erase = -1;
  };

  Microseconds occupy(Microseconds now, Microseconds latency) {
    const Microseconds start = std::max(now, busy_until_);
    busy_until_ = start + latency;
    busy_total_ += latency;
    return start;
  }

  /// Timeline charge + page store + counters, shared by program() and
  /// program_resolved() once legality is established.
  OpTiming commit_program(std::uint32_t b, PagePos pos, PageData&& data,
                          Microseconds now) {
    const Microseconds latency = pos.type == PageType::kLsb
                                     ? timing_.program_lsb_us
                                     : timing_.program_msb_us;
    const Microseconds start = occupy(now, latency);
    const std::uint64_t spare = data.spare;
    blocks_[b].program_prechecked(pos, std::move(data));
    if (pos.type == PageType::kLsb) {
      ++counters_.lsb_programs;
    } else {
      ++counters_.msb_programs;
    }
    ++wear_[b].programs;
    if (attr_ != nullptr) {
      attr_->note_program(pos.type == PageType::kLsb,
                          (spare & kNonHostSpareFlag) != 0, stream_of_spare(spare));
    }
    const OpTiming timing{start, busy_until_};
    last_program_ = InFlightProgram{b, pos, timing.start, timing.complete};
    return timing;
  }

  /// Apply the cell resets of pending erases that started by `now`. A
  /// power loss is always injected at or after the present, so these can
  /// no longer be voided. Erases charged to start in the future stay
  /// pending (a cut before their start time voids them). The common case
  /// (no erase pending) is a branch, not a call.
  void settle_erases(Microseconds now) {
    if (!pending_erases_.empty()) settle_erases_slow(now);
  }
  void settle_erases_slow(Microseconds now);

  /// Apply the pending erase of block `b` (if any) regardless of its
  /// start time: an op touching `b` serializes after the erase on the
  /// chip timeline, so it must observe the erased state. Logically const.
  void materialize_erase(std::uint32_t b) const {
    if (!pending_erases_.empty()) materialize_erase_slow(b);
  }
  void materialize_erase_slow(std::uint32_t b) const;

  std::vector<Block> blocks_;
  std::vector<BlockWear> wear_;  // physical-block-indexed, preallocated
  TimingSpec timing_;
  Microseconds busy_until_ = 0;
  Microseconds busy_total_ = 0;
  OpCounters counters_;
  DeviceAttribution* attr_ = nullptr;  // borrowed; null = unattributed
  std::optional<InFlightProgram> last_program_;
  std::vector<PendingErase> pending_erases_;
  bool program_suspend_ = false;
};

}  // namespace rps::nand
