// VP-level integration: construction, loading, run control, monitor mode,
// violation context, taint statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "fw/benchmarks.hpp"
#include "fw/hal.hpp"
#include "fw/immobilizer.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;

const soc::AesKey kPin = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                          0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

TEST(VpIntegration, AddressMapCoversAllPeripherals) {
  vp::Vp v;
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kRamBase), "ram0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kUartBase), "uart0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kClintBase), "clint0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kPlicBase), "plic0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kSensorBase), "sensor0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kAesBase), "aes0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kCanBase), "can0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kDmaBase), "dma0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kSysCtrlBase), "sysctrl0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kGpioBase), "gpio0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kWdtBase), "wdt0");
  EXPECT_EQ(v.bus().mapping_count(), 11u);
}

TEST(VpIntegration, TimeoutReportedWhenFirmwareHangs) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  a.label("spin");
  a.j("spin");
  vp::Vp v;
  v.load(a.assemble());
  const auto r = v.run(sysc::Time::ms(5));
  EXPECT_FALSE(r.exited());
  EXPECT_TRUE(r.timed_out());
  EXPECT_GT(r.instret, 0u);
  EXPECT_GE(r.sim_time, sysc::Time::ms(5));
}

TEST(VpIntegration, ExitCodePropagates) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.li(a0, 123);
  a.ret();
  fw::emit_stdlib(a);
  vp::Vp v;
  v.load(a.assemble());
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.exit_code, 123u);
}

TEST(VpIntegration, DefaultTrapHandlerMarksAndExits) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.insn(0xffffffff);  // illegal -> default trap handler
  a.ret();
  fw::emit_stdlib(a);
  vp::Vp v;
  v.load(a.assemble());
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.exit_code, 0xffu);
  EXPECT_EQ(r.markers, "T");
}

TEST(VpIntegration, ViolationCarriesFaultingPc) {
  // The UART raises the violation inside its transport; the core re-throws
  // with the program counter of the offending store attached.
  vp::VpDift v;
  const auto prog =
      fw::make_immobilizer(fw::ImmoVariant::kAttackDirectLeak, kPin, 1);
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.violation());
  EXPECT_EQ(r.violation_where, "uart0.tx");
  EXPECT_GE(r.violation_pc, soc::addrmap::kRamBase);  // a real firmware pc
}

TEST(VpIntegration, MonitorModeRecordsAndContinues) {
  vp::VpConfig cfg;
  cfg.with_engine_ecu = true;
  cfg.engine_pin = kPin;
  cfg.engine_period = sysc::Time::ms(2);
  vp::VpDift v(cfg);
  const auto prog =
      fw::make_immobilizer(fw::ImmoVariant::kVulnerableDump, kPin, 3);
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  v.set_monitor_mode(true);
  v.uart().feed_input("d");
  const auto r = v.run(sysc::Time::sec(5));
  EXPECT_FALSE(r.violation()) << "monitor mode must not stop the run";
  ASSERT_TRUE(r.exited());
  // The dump leaked the 16 PIN bytes (plus scratch area reads are benign):
  // one output-clearance record per confidential byte.
  std::size_t output_violations = 0;
  for (const auto& rec : r.recorded_violations)
    if (rec.kind == dift::ViolationKind::kOutputClearance) ++output_violations;
  EXPECT_GE(output_violations, 16u);
  // And the leak actually happened (monitoring, not enforcement):
  EXPECT_GT(r.uart_output.size(), 32u);
}

TEST(VpIntegration, MonitorModeCleanRunRecordsNothing) {
  vp::VpDift v;
  v.load(fw::make_primes(100));
  auto bundle = vp::scenarios::make_permissive_policy();
  v.apply_policy(bundle.policy);
  v.set_monitor_mode(true);
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.exited());
  EXPECT_TRUE(r.recorded_violations.empty());
}

TEST(VpIntegration, TagHistogramShowsClassifiedBytes) {
  vp::VpDift v;
  const auto prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump, kPin, 1);
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  const auto hist = v.ram().tag_histogram();
  const dift::Tag hchi = bundle.lattice->tag_of("(HC,HI)");
  ASSERT_TRUE(hist.count(hchi));
  EXPECT_EQ(hist.at(hchi), 16u);  // exactly the PIN bytes
}

TEST(VpIntegration, PlainVpTracksNoTags) {
  vp::Vp v;
  EXPECT_FALSE(v.ram().tracks_tags());
  EXPECT_TRUE(v.ram().tag_histogram().empty());
}

TEST(VpIntegration, SequentialRunsResumeSimulation) {
  vp::VpConfig cfg;
  cfg.sensor_period = sysc::Time::us(200);
  vp::Vp v(cfg);
  v.load(fw::make_simple_sensor(10));
  auto r1 = v.run(sysc::Time::us(700));  // not enough for 10 frames
  EXPECT_TRUE(r1.timed_out());
  auto r2 = v.run(sysc::Time::sec(10));  // resume to completion
  EXPECT_TRUE(r2.exited());
  EXPECT_EQ(r2.exit_code, 0u);
}

TEST(VpIntegration, UartInputReachableAcrossRuns) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.addi(sp, sp, -16);
  a.sw(ra, sp, 12);
  a.call("uart_getc");
  a.call("uart_putc");  // echo
  a.li(a0, 0);
  a.lw(ra, sp, 12);
  a.addi(sp, sp, 16);
  a.ret();
  fw::emit_stdlib(a);
  vp::Vp v;
  v.load(a.assemble());
  v.uart().feed_input("Q");
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.uart_output, "Q");
}

}  // namespace

namespace {

using namespace vpdift;

// Architectural checkpoint: branch a run into two futures.
TEST(VpSnapshot, RestoreReplaysToTheSameResult) {
  vp::Vp v;
  v.load(fw::make_primes(5000));
  auto r1 = v.run(sysc::Time::us(500));  // stop mid-computation
  ASSERT_TRUE(r1.timed_out());
  const auto snap = v.snapshot();
  const auto r2 = v.run(sysc::Time::sec(10));  // future A: run to completion
  ASSERT_TRUE(r2.exited());
  EXPECT_EQ(r2.exit_code, 0u);

  // Future B: a fresh VP restored from the checkpoint completes identically.
  vp::Vp w;
  w.load(fw::make_primes(5000));
  w.restore(snap);
  const auto r3 = w.run(sysc::Time::sec(10));
  ASSERT_TRUE(r3.exited());
  EXPECT_EQ(r3.exit_code, 0u);
  // Both futures retired the same number of instructions from the snapshot.
  EXPECT_EQ(w.core().instret(), v.core().instret());
}

TEST(VpSnapshot, CapturesTagsOnTheDiftVp) {
  vp::VpDift v;
  const soc::AesKey pin = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const auto prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump, pin, 1);
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  const auto snap = v.snapshot();
  const auto pin_off = prog.symbol("pin") - soc::addrmap::kRamBase;
  const auto hchi = bundle.lattice->tag_of("(HC,HI)");
  EXPECT_EQ(snap.ram_tags.at(pin_off), hchi);

  // Wipe the tag plane, restore, verify classification came back.
  v.ram().classify(pin_off, 16, dift::kBottomTag);
  EXPECT_EQ(v.ram().tag_at(pin_off), dift::kBottomTag);
  v.restore(snap);
  EXPECT_EQ(v.ram().tag_at(pin_off), hchi);
}

TEST(VpSnapshot, SizeMismatchRejected) {
  vp::Vp v;
  vp::Vp::Snapshot bogus;
  const std::uint8_t small_plane[16] = {};
  bogus.ram = vp::PageImage::capture(small_plane, sizeof small_plane);
  EXPECT_THROW(v.restore(bogus), std::invalid_argument);
}

// Bugfix regression: restore() must invalidate the translated-block cache.
// Both programs below share a bit-identical loop head; its cached
// translation carries a chain pointer to the (different) `func` body, and
// chained dispatch bypasses the raw-bytes revalidation that lookup does.
// Without the invalidation, the restored VP keeps executing the OLD func.
TEST(VpSnapshot, RestoreInvalidatesStaleTranslations) {
  auto make_looper = [](std::int64_t n) {
    rvasm::Assembler a(soc::addrmap::kRamBase);
    a.label("loop");
    a.call("func");
    a.j("loop");
    a.label("func");
    a.li(a0, n);
    a.ret();
    return a.assemble();
  };

  vp::Vp v;
  v.load(make_looper(1));
  (void)v.run(sysc::Time::us(200));  // hot, chained translations of func #1
  EXPECT_EQ(v.core().reg(10), 1u);

  vp::Vp donor;
  donor.load(make_looper(2));
  const auto snap = donor.snapshot();

  v.restore(snap);
  (void)v.run(sysc::Time::us(200));
  EXPECT_EQ(v.core().reg(10), 2u);  // a stale translation would leave 1
}

// Bugfix regression: restoring a snapshot WITHOUT a tag plane (taken on a
// plain VP) into a DIFT VP must clear every tag to kBottomTag and rebuild
// the shadow summary to match — not silently keep the old classification.
TEST(VpSnapshot, PlainSnapshotClearsDiftTagPlane) {
  const auto prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump, kPin, 1);

  vp::Vp plain;
  plain.load(prog);
  const auto snap = plain.snapshot();
  EXPECT_TRUE(snap.ram_tags.empty());

  vp::VpDift d;
  d.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  d.apply_policy(bundle.policy);
  const auto pin_off = prog.symbol("pin") - soc::addrmap::kRamBase;
  ASSERT_NE(d.ram().tag_at(pin_off), dift::kBottomTag);

  d.restore(snap);
  EXPECT_EQ(d.ram().tag_at(pin_off), dift::kBottomTag);
  // The summary must agree with the cleared plane (uniform bottom), or the
  // fast path would keep serving the stale classification.
  dift::Tag t = 0xff;
  EXPECT_TRUE(d.ram().shadow().uniform(pin_off, 16, &t));
  EXPECT_EQ(t, dift::kBottomTag);
}

// --- Sparse page images: an oracle over random planes --------------------

constexpr std::size_t kPage = vp::PageImage::kPageBytes;

/// A RAM size that is not a page multiple, so the last page is partial.
vp::VpConfig odd_ram_config() {
  vp::VpConfig cfg;
  cfg.ram_size = 10 * kPage + 1234;
  return cfg;
}

/// Writes seeded random non-zero bytes into the given pages of a plane: each
/// page's first and last byte (the plane's last byte on a partial tail page)
/// plus a few at random offsets.
void scatter(std::uint8_t* plane, std::size_t size, std::mt19937& rng,
             const std::vector<std::size_t>& pages) {
  std::uniform_int_distribution<int> value(1, 255);
  for (const std::size_t page : pages) {
    const std::size_t lo = page * kPage;
    const std::size_t hi = std::min(lo + kPage, size) - 1;
    std::uniform_int_distribution<std::size_t> offset(lo, hi);
    plane[lo] = static_cast<std::uint8_t>(value(rng));
    plane[hi] = static_cast<std::uint8_t>(value(rng));
    for (int i = 0; i < 16; ++i)
      plane[offset(rng)] = static_cast<std::uint8_t>(value(rng));
  }
}

/// Fills both planes of `v` (data on `data_pages`, tags on `tag_pages`) and
/// re-syncs the summary with the directly written tag plane.
void fill_random(vp::VpDift& v, unsigned seed,
                 const std::vector<std::size_t>& data_pages,
                 const std::vector<std::size_t>& tag_pages) {
  std::mt19937 rng(seed);
  scatter(v.ram().data(), v.ram().size(), rng, data_pages);
  scatter(v.ram().tags(), v.ram().size(), rng, tag_pages);
  v.ram().shadow().rebuild();
}

std::size_t nonzero_pages(const std::uint8_t* plane, std::size_t size) {
  std::size_t n = 0;
  for (std::size_t lo = 0; lo < size; lo += kPage) {
    const std::uint8_t* end = plane + std::min(lo + kPage, size);
    n += std::any_of(plane + lo, end, [](std::uint8_t b) { return b != 0; });
  }
  return n;
}

/// Both planes of `dst` equal `src`'s byte for byte, every block summary
/// equals a fresh rescan, and the live-block count matches.
void expect_same_planes(vp::VpDift& dst, vp::VpDift& src) {
  const std::size_t n = src.ram().size();
  ASSERT_EQ(dst.ram().size(), n);
  EXPECT_EQ(std::memcmp(dst.ram().data(), src.ram().data(), n), 0);
  EXPECT_EQ(std::memcmp(dst.ram().tags(), src.ram().tags(), n), 0);
  dift::ShadowSummary& sh = dst.ram().shadow();
  const std::size_t live = sh.live_blocks();
  for (std::size_t b = 0; b < sh.block_count(); ++b) {
    const std::uint16_t held = sh.block_summary(b);
    EXPECT_EQ(held, sh.rescan_block(b)) << "block " << b;
  }
  EXPECT_EQ(sh.live_blocks(), live);
  EXPECT_EQ(live, src.ram().shadow().live_blocks());
}

TEST(VpSnapshot, SparseImageHoldsOnlyNonZeroPages) {
  vp::VpDift src(odd_ram_config());
  const std::size_t n = src.ram().size();
  const std::size_t last = (n - 1) / kPage;
  fill_random(src, 1, {0, 3, 4, last}, {1, 3, last});
  const auto snap = src.snapshot();

  EXPECT_EQ(snap.ram.plane_size(), n);
  EXPECT_EQ(snap.ram.size(), kPage * nonzero_pages(src.ram().data(), n));
  EXPECT_EQ(snap.ram_tags.size(), kPage * nonzero_pages(src.ram().tags(), n));
  EXPECT_EQ(snap.ram.size(), 4 * kPage);
  EXPECT_EQ(snap.ram_tags.size(), 3 * kPage);
  for (const std::size_t off : {std::size_t{0}, kPage - 1, 2 * kPage, n - 1}) {
    EXPECT_EQ(snap.ram.at(off), src.ram().data()[off]) << off;
    EXPECT_EQ(snap.ram_tags.at(off), src.ram().tags()[off]) << off;
  }
  EXPECT_THROW((void)snap.ram.at(n), std::out_of_range);
}

TEST(VpSnapshot, SparseRestoreIntoFreshVpMatchesTheSource) {
  vp::VpDift src(odd_ram_config());
  const std::size_t last = (src.ram().size() - 1) / kPage;
  fill_random(src, 2, {0, 3, 4, last}, {1, 3, last});
  const auto snap = src.snapshot();

  vp::VpDift dst(odd_ram_config());
  dst.restore(snap);
  expect_same_planes(dst, src);
}

TEST(VpSnapshot, SparseRestoreIntoStartedVpDropsItsOldPlanes) {
  vp::VpDift src(odd_ram_config());
  const std::size_t last = (src.ram().size() - 1) / kPage;
  fill_random(src, 3, {0, 3, 4, last}, {1, 3, last});
  const auto snap = src.snapshot();

  rvasm::Assembler a(soc::addrmap::kRamBase);
  a.label("spin");
  a.j("spin");
  vp::VpDift dst(odd_ram_config());
  dst.load(a.assemble());
  (void)dst.run(sysc::Time::us(20));
  // Other data on other pages (and overlapping ones), which the restore
  // must not leave behind.
  fill_random(dst, 4, {2, 3, 5, 9, last}, {0, 2, 7, 9});
  ASSERT_FALSE(dst.ram().shadow().all_bottom());
  dst.restore(snap);
  expect_same_planes(dst, src);
}

TEST(VpSnapshot, ResetAfterTaintedRunZeroesBothPlanes) {
  const auto prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump, kPin, 1);
  vp::VpDift v;
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  (void)v.run(sysc::Time::ms(2));
  ASSERT_FALSE(v.ram().shadow().all_bottom());
  ASSERT_GT(v.core().instret(), 0u);

  v.reset();
  const std::vector<std::uint8_t> zero(v.ram().size(), 0);
  EXPECT_EQ(std::memcmp(v.ram().data(), zero.data(), zero.size()), 0);
  EXPECT_EQ(std::memcmp(v.ram().tags(), zero.data(), zero.size()), 0);
  EXPECT_TRUE(v.ram().shadow().all_bottom());
}

}  // namespace
