// Controller-layer tests: command decomposition, the event queue, and the
// scheduler's core properties under random interleavings —
//   * causality: issue <= ready <= start <= complete for every op,
//   * dependency ordering: an op never starts before its deps complete,
//   * legality: per-block program order still satisfies the sequence
//     constraints (FPS for pageFTL, RPS constraints 1-3 for flexFTL),
//     observed through the placement hook with the checkers from
//     src/nand/program_order.hpp (the same ones
//     test_nand_program_order.cpp exercises directly).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/controller/controller.hpp"
#include "src/controller/event_queue.hpp"
#include "src/controller/nand_op.hpp"
#include "src/nand/program_order.hpp"
#include "src/sim/runner.hpp"
#include "src/util/random.hpp"

namespace rps {
namespace {

TEST(EventQueue, PopsInNondecreasingTimeOrder) {
  ctrl::EventQueue events;
  EXPECT_TRUE(events.empty());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    events.schedule(static_cast<Microseconds>(rng.next_below(10'000)));
  }
  EXPECT_EQ(events.size(), 200u);
  Microseconds last = -1;
  while (!events.empty()) {
    const Microseconds peeked = events.peek();
    const Microseconds t = events.pop();
    EXPECT_EQ(t, peeked);
    EXPECT_GE(t, last);
    last = t;
  }
  EXPECT_TRUE(events.empty());
}

TEST(SplitRequest, OnePageOpPerPage) {
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kWrite;
  cmd.lpn = 40;
  cmd.page_count = 8;
  const std::vector<ctrl::NandOp> ops = ctrl::split_request(cmd);
  ASSERT_EQ(ops.size(), 8u);
  for (std::uint32_t j = 0; j < ops.size(); ++j) {
    EXPECT_EQ(ops[j].kind, ctrl::OpKind::kHostWrite);
    EXPECT_EQ(ops[j].lpn, 40u + j);
    EXPECT_TRUE(ops[j].deps.empty()) << "unordered pages are independent";
  }
}

TEST(SplitRequest, OrderedCommandChainsDependencies) {
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kWrite;
  cmd.lpn = 0;
  cmd.page_count = 4;
  cmd.ordered = true;
  const std::vector<ctrl::NandOp> ops = ctrl::split_request(cmd);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_TRUE(ops[0].deps.empty());
  for (std::uint32_t j = 1; j < ops.size(); ++j) {
    ASSERT_EQ(ops[j].deps.size(), 1u);
    EXPECT_EQ(ops[j].deps[0], j - 1);
  }
}

TEST(Controller, SinglePageWriteCompletesAtProgramTime) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);
  ctrl::Controller controller(*ftl);
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kWrite;
  cmd.lpn = 3;
  cmd.page_count = 1;
  cmd.issue = 1000;
  const ctrl::CommandResult r = controller.execute(cmd);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.pages, 1u);
  // First program of a block is LSB: transfer + LSB program.
  EXPECT_EQ(r.last_complete,
            1000 + config.timing.transfer_us + config.timing.program_lsb_us);
  EXPECT_TRUE(controller.idle());
}

TEST(Controller, MultiPageRequestStripesAcrossIdleChips) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);
  const std::uint32_t chips = ftl->device().geometry().num_chips();
  ASSERT_GT(chips, 1u);
  ctrl::Controller controller(*ftl, {.stripe_writes = true, .keep_op_log = true});
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kWrite;
  cmd.lpn = 0;
  cmd.page_count = chips;  // one page per chip fits the idle array exactly
  const ctrl::CommandResult r = controller.execute(cmd);
  ASSERT_TRUE(r.ok);
  std::map<std::uint32_t, int> per_chip;
  for (const ctrl::OpRecord& rec : controller.op_log()) {
    EXPECT_EQ(rec.start, 0) << "every page dispatches at issue, none queues";
    ++per_chip[rec.chip];
  }
  EXPECT_EQ(per_chip.size(), chips) << "pages landed on distinct chips";
  // All programs overlap: the whole request costs one program plus the
  // serialized bus transfers of the chips sharing a channel — not
  // `chips` back-to-back programs as on the legacy synchronous path.
  EXPECT_EQ(r.last_complete,
            config.geometry.chips_per_channel * config.timing.transfer_us +
                config.timing.program_lsb_us);
}

TEST(Controller, ReadOfUnmappedPageRetiresInstantly) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);
  ctrl::Controller controller(*ftl);
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kRead;
  cmd.lpn = 5;
  cmd.page_count = 2;
  cmd.issue = 77;
  const ctrl::CommandResult r = controller.execute(cmd);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.read_errors, 0u);
  EXPECT_EQ(r.last_complete, 77) << "zero-fill read touches no device timeline";
  EXPECT_EQ(ftl->stats().unmapped_reads, 2u);
}

TEST(Controller, PickIdleUnitSkipsBusyUnitsAndPrefersTheAnchorDie) {
  // Four dies of two planes: units 2d and 2d+1 belong to die d.
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.planes_per_chip = 2;
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);
  const std::uint32_t units = ftl->device().geometry().num_units();
  ASSERT_EQ(units, 8u);
  constexpr std::uint32_t kAny = ftl::FtlBase::kAnyDie;
  Microseconds next_free = 0;

  // An idle, empty array: the round-robin start (unit 0) wins the headroom
  // tie, unless an anchor die restricts the pick to its own planes.
  EXPECT_EQ(ftl->pick_idle_unit(0, kAny, next_free), std::optional<std::uint32_t>(0));
  EXPECT_EQ(next_free, kTimeNever);
  EXPECT_EQ(ftl->pick_idle_unit(0, 2, next_free), std::optional<std::uint32_t>(4));

  // A busy unit is never picked; with both planes of the anchor die busy
  // the pick spills to the idle set.
  ASSERT_TRUE(ftl->write_on(4, 0, 0).is_ok());
  EXPECT_EQ(ftl->pick_idle_unit(0, 2, next_free), std::optional<std::uint32_t>(5));
  ASSERT_TRUE(ftl->write_on(5, 1, 0).is_ok());
  const std::optional<std::uint32_t> spill = ftl->pick_idle_unit(0, 2, next_free);
  ASSERT_TRUE(spill.has_value());
  EXPECT_NE(*spill / 2, 2u);
  EXPECT_EQ(next_free, ftl->device().chip(4).busy_until());

  // Every unit busy: no pick, the earliest free time, and the round-robin
  // counter stays put (three picks so far).
  auto fresh = sim::make_ftl(sim::FtlKind::kPage, config);
  for (std::uint32_t u = 0; u < 3; ++u) ASSERT_TRUE(fresh->pick_idle_unit(0, kAny, next_free));
  Microseconds earliest = kTimeNever;
  Microseconds latest = 0;
  for (std::uint32_t u = 0; u < units; ++u) {
    ASSERT_TRUE(fresh->write_on(u, u, static_cast<Microseconds>(u) * 10).is_ok());
    earliest = std::min(earliest, fresh->device().chip(u).busy_until());
    latest = std::max(latest, fresh->device().chip(u).busy_until());
  }
  EXPECT_EQ(fresh->pick_idle_unit(0, kAny, next_free), std::nullopt);
  EXPECT_EQ(next_free, earliest);
  EXPECT_EQ(fresh->pick_idle_unit(0, 1, next_free), std::nullopt);
  EXPECT_EQ(fresh->pick_idle_unit(latest, kAny, next_free), std::optional<std::uint32_t>(3));
}

struct InterleavingCase {
  sim::FtlKind kind;
  nand::SequenceKind sequence;
  std::uint64_t seed;
};

class RandomInterleavings : public ::testing::TestWithParam<InterleavingCase> {};

TEST_P(RandomInterleavings, KeepsCausalityDependenciesAndProgramOrder) {
  const InterleavingCase param = GetParam();
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(param.kind, config);
  const std::uint32_t wordlines = config.geometry.wordlines_per_block;

  // Per-block legality tracking via the placement hook. Every host/GC
  // page commit is checked incrementally against the sequence scheme; a
  // failing check on a block whose history restarted (erase + reuse) is
  // retried against a fresh state, so only genuine order violations
  // fail. (The device model rejects illegal programs outright — this
  // re-derivation proves the *scheduler* never even attempts reordering
  // within a block.)
  std::unordered_map<std::uint64_t, nand::BlockProgramState> block_states;
  ftl->set_placement_observer([&](Lpn, const nand::PageAddress& addr) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(addr.chip) << 32) | addr.block;
    auto [it, inserted] = block_states.try_emplace(key, wordlines);
    nand::BlockProgramState& state = it->second;
    (void)inserted;
    if (!nand::check_program_legality(state, addr.pos, param.sequence).is_ok()) {
      state.reset();  // block was erased and reused; restart its history
      ASSERT_TRUE(
          nand::check_program_legality(state, addr.pos, param.sequence).is_ok())
          << "illegal program order at chip " << addr.chip << " block "
          << addr.block << " wl " << addr.pos.wordline;
    }
    state.mark_programmed(addr.pos);
  });

  ctrl::Controller controller(*ftl, {.stripe_writes = true, .keep_op_log = true});
  const Lpn space = ftl->exported_pages();
  ASSERT_GT(space, 16u);

  Rng rng(param.seed);
  std::map<ctrl::CommandId, bool> ordered;
  std::vector<ctrl::CommandId> ids;
  Microseconds t = 0;
  for (int i = 0; i < 400; ++i) {
    ctrl::HostCommand cmd;
    const bool is_read = rng.chance(0.3);
    cmd.kind = is_read ? ctrl::CmdKind::kRead : ctrl::CmdKind::kWrite;
    cmd.page_count = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    cmd.lpn = rng.next_below(space - 8);
    cmd.ordered = rng.chance(0.3);
    cmd.buffer_utilization = rng.next_double();
    cmd.issue = t;
    t += static_cast<Microseconds>(rng.next_below(400));
    ids.push_back(controller.submit(cmd));
    ordered[ids.back()] = cmd.ordered;
    // Partial drains interleave execution with submission — commands
    // overlap both in arrival time and in flight.
    if (rng.chance(0.5)) controller.drain(t);
  }
  controller.drain();
  EXPECT_TRUE(controller.idle());

  // Causality on every retired op.
  std::map<ctrl::CommandId, std::map<std::uint32_t, Microseconds>> completes;
  for (const ctrl::OpRecord& rec : controller.op_log()) {
    EXPECT_GE(rec.ready, rec.issue);
    EXPECT_GE(rec.start, rec.ready) << "op dispatched before it was ready";
    EXPECT_GE(rec.complete, rec.start);
    completes[rec.cmd][rec.index] = rec.complete;
  }
  // Dependency ordering: ordered commands complete page j after page j-1.
  for (const ctrl::CommandId id : ids) {
    if (!ordered.at(id)) continue;
    const auto& by_index = completes.at(id);
    Microseconds prev = 0;
    for (const auto& [index, complete] : by_index) {
      (void)index;
      EXPECT_GE(complete, prev) << "dependency chain violated in command " << id;
      prev = complete;
    }
  }
  // Every command retired with every page accounted for.
  for (const ctrl::CommandId id : ids) {
    const ctrl::CommandResult r = controller.take_result(id);
    EXPECT_TRUE(r.ok) << "command " << id;
    EXPECT_GE(r.first_complete, r.issue) << "completion precedes issue";
    EXPECT_GE(r.last_complete, r.first_complete);
    EXPECT_EQ(completes.at(id).size(), r.pages);
  }
  EXPECT_TRUE(ftl->check_consistency());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RandomInterleavings,
    ::testing::Values(
        InterleavingCase{sim::FtlKind::kPage, nand::SequenceKind::kFps, 101},
        InterleavingCase{sim::FtlKind::kPage, nand::SequenceKind::kFps, 202},
        InterleavingCase{sim::FtlKind::kFlex, nand::SequenceKind::kRps, 303},
        InterleavingCase{sim::FtlKind::kFlex, nand::SequenceKind::kRps, 404}),
    [](const ::testing::TestParamInfo<InterleavingCase>& info) {
      return std::string(sim::to_string(info.param.kind)) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace rps
