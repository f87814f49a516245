#include "src/faultsim/oracle.hpp"

#include <cstdio>
#include <cstdlib>

#include "src/util/serialize.hpp"

namespace rps::faultsim {

void ShadowOracle::attach(ftl::FtlBase& ftl) {
  ftl_ = &ftl;
  if (history_.size() < ftl.exported_pages()) {
    history_.resize(ftl.exported_pages());
  }
  ftl.set_placement_observer(
      [this](Lpn lpn, const nand::PageAddress& addr) { observe(lpn, addr); });
}

void ShadowOracle::detach() {
  if (ftl_ != nullptr) ftl_->set_placement_observer({});
  ftl_ = nullptr;
}

void ShadowOracle::observe(Lpn lpn, const nand::PageAddress& addr) {
  ++observed_commits_;
  if (lpn >= history_.size()) return;  // observer only reports host LPNs
  // The page was just programmed, so peeking at its stored record is the
  // ground truth of what the device holds for this commit (zero-copy: the
  // record is inspected in place, never duplicated).
  const nand::PageRecord* stored =
      ftl_->device().block({addr.chip, addr.block}).peek(addr.pos);
  if (stored == nullptr) return;  // never expected for a fresh commit
  const std::uint64_t version = stored->version;
  std::vector<WriteRecord>& records = history_[lpn];
  // GC relocations and parity-recovery rewrites re-commit an existing host
  // write under its original version: same logical data, not a new write.
  for (const WriteRecord& r : records) {
    if (r.version == version) return;
  }
  records.push_back(WriteRecord{version, stored->signature, kTimeNever});
}

void ShadowOracle::mark_epoch() {
  epoch_.assign(history_.size(), 0);
  for (Lpn lpn = 0; lpn < history_.size(); ++lpn) {
    epoch_[lpn] = history_[lpn].size();
  }
}

void ShadowOracle::ack_latest(Lpn lpn, Microseconds complete) {
  if (lpn >= history_.size() || history_[lpn].empty()) return;
  history_[lpn].back().acked_at = complete;
}

void ShadowOracle::finalize_from_op_log(const std::vector<ctrl::OpRecord>& log) {
  // The controller retires write ops synchronously at dispatch, so the log
  // order is the dispatch order — which is the order versions were
  // assigned and committed. Per LPN, the i-th successful host-write record
  // is the i-th post-epoch history entry.
  std::vector<std::size_t> cursor(history_.size(), 0);
  for (const ctrl::OpRecord& rec : log) {
    if (rec.kind != ctrl::OpKind::kHostWrite || !rec.ok) continue;
    if (rec.lpn >= history_.size() || history_[rec.lpn].empty()) continue;
    const std::size_t base = rec.lpn < epoch_.size() ? epoch_[rec.lpn] : 0;
    const std::size_t idx = base + cursor[rec.lpn]++;
    if (idx < history_[rec.lpn].size()) history_[rec.lpn][idx].acked_at = rec.complete;
  }
}

OracleCheck ShadowOracle::check(ftl::FtlBase& ftl, Microseconds crash_time,
                                Microseconds now) const {
  OracleCheck result;
  // LPN-ascending walk: first_failed_lpn is the smallest failing LPN,
  // deterministically (the old hash-map walk picked an arbitrary one).
  for (Lpn lpn = 0; lpn < history_.size(); ++lpn) {
    const std::vector<WriteRecord>& records = history_[lpn];
    if (records.empty()) continue;
    const auto acked = [crash_time](const WriteRecord& r) {
      return r.acked_at != kTimeNever && r.acked_at <= crash_time;
    };
    const WriteRecord& newest = records.back();
    if (!acked(newest)) {
      // The newest pre-crash write was still in flight. If an *older*
      // write was acknowledged, its copy may legitimately be gone already
      // (eager-commit overwrite hazard): skip, but never silently.
      bool any_acked = false;
      for (const WriteRecord& r : records) any_acked = any_acked || acked(r);
      if (any_acked) ++result.overwrite_hazard_skipped;
      continue;
    }
    ++result.acked_lpns_checked;
    const Result<nand::PageData> data = ftl.read_data(lpn, now);
    const bool ok = data.is_ok() && data.value().version == newest.version &&
                    data.value().signature == newest.signature;
    if (ok) continue;
    if (std::getenv("FAULTSIM_DEBUG") != nullptr) {
      std::fprintf(stderr, "[oracle] lpn=%llu expected v%llu sig=%llx; read %s",
                   (unsigned long long)lpn, (unsigned long long)newest.version,
                   (unsigned long long)newest.signature,
                   data.is_ok() ? "ok" : "FAILED");
      if (data.is_ok()) {
        std::fprintf(stderr, " v%llu sig=%llx",
                     (unsigned long long)data.value().version,
                     (unsigned long long)data.value().signature);
      }
      std::fprintf(stderr, "; history:");
      for (const WriteRecord& r : records) {
        std::fprintf(stderr, " (v%llu acked=%lld)", (unsigned long long)r.version,
                     (long long)r.acked_at);
      }
      std::fprintf(stderr, "\n");
    }
    if (data.is_ok()) {
      ++result.stale;
    } else {
      ++result.lost;
    }
    if (result.first_failed_lpn == kInvalidLpn) result.first_failed_lpn = lpn;
  }
  return result;
}

void ShadowOracle::save(ser::Writer& w) const {
  w.u64(history_.size());
  for (const std::vector<WriteRecord>& records : history_) {
    w.u64(records.size());
    for (const WriteRecord& rec : records) {
      w.u64(rec.version);
      w.u64(rec.signature);
      w.i64(rec.acked_at);
    }
  }
  w.u64(epoch_.size());
  for (const std::size_t base : epoch_) w.u64(base);
  w.u64(observed_commits_);
}

void ShadowOracle::load(ser::Reader& r) {
  const std::uint64_t lpns = r.u64();
  if (lpns > r.remaining()) {
    r.fail();
    return;
  }
  history_.assign(static_cast<std::size_t>(lpns), {});
  for (std::vector<WriteRecord>& records : history_) {
    const std::uint64_t n = r.u64();
    if (n > r.remaining()) {
      r.fail();
      return;
    }
    records.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      WriteRecord rec;
      rec.version = r.u64();
      rec.signature = r.u64();
      rec.acked_at = r.i64();
      records.push_back(rec);
    }
  }
  const std::uint64_t epochs = r.u64();
  if (epochs > r.remaining()) {
    r.fail();
    return;
  }
  epoch_.assign(static_cast<std::size_t>(epochs), 0);
  for (std::size_t& base : epoch_) base = static_cast<std::size_t>(r.u64());
  observed_commits_ = r.u64();
}

}  // namespace rps::faultsim
