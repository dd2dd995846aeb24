// Edge-case tests for the basic-block translation cache in rv::Core:
// self-modifying code (guest stores and host pokes must force a re-decode),
// interrupts raised mid-block (taken at the next instruction boundary with an
// exact mepc), trace equivalence between block execution and single-stepping,
// code above the old 256 KiB decode-cache window, and the attribution of
// fetch-path shadow-summary hits.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "micro_vm.hpp"
#include "rv/csr.hpp"
#include "rv/trace.hpp"
#include "soc/addrmap.hpp"
#include "soc/clint.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using testutil::MicroVm;
using Vm = MicroVm<rv::PlainWord>;

Vm& run_asm(Vm& vm, const std::function<void(rvasm::Assembler&)>& emit,
            std::uint64_t steps) {
  rvasm::Assembler a(Vm::kBase);
  emit(a);
  vm.load(a.assemble());
  vm.core.run(steps);
  return vm;
}

// addi a0, zero, 99 / addi a0, a0, 5 — patch payloads for the SMC tests.
constexpr std::uint32_t kAddiA0Zero99 = 0x06300513;
constexpr std::uint32_t kAddiA0A05 = 0x00550513;

TEST(BlockEngine, CountersTrackHitsMissesChains) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.label("top");
    a.addi(a0, a0, 1);
    a.j("top");
  }, 100);
  EXPECT_EQ(vm.reg(a0), 50u);
  const auto& s = vm.core.stats();
  // One two-op block, decoded once; iteration 2 is a lookup hit, iterations
  // 3..50 ride the self-chain.
  EXPECT_EQ(s.decode_misses, 2u);
  EXPECT_EQ(s.decode_hits, 98u);
  EXPECT_EQ(s.block_misses, 1u);
  EXPECT_EQ(s.block_hits, 1u);
  EXPECT_EQ(s.chained_transfers, 48u);
  EXPECT_EQ(s.block_invalidations, 0u);
}

// A guest store into an already-cached block must invalidate it: the second
// call re-decodes the patched bytes instead of replaying stale micro-ops.
TEST(BlockEngine, GuestStoreIntoCachedBlockForcesRedecode) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.la(t0, "site_fn");
    a.li(t1, static_cast<std::int64_t>(kAddiA0Zero99));
    a.call("site_fn");
    a.mv(s2, a0);        // original body: a0 = 1
    a.sw(t1, t0, 0);     // patch the cached function body
    a.call("site_fn");
    a.mv(s3, a0);        // patched body: a0 = 99
    a.label("spin");
    a.j("spin");
    a.label("site_fn");
    a.addi(a0, zero, 1);
    a.ret();
  }, 40);
  EXPECT_EQ(vm.reg(s2), 1u);
  EXPECT_EQ(vm.reg(s3), 99u);
  EXPECT_GE(vm.core.stats().block_invalidations, 1u);
}

// A store that overwrites an instruction *later in the currently executing
// block* must take effect before that instruction runs — the engine may not
// keep executing stale micro-ops past the store.
TEST(BlockEngine, StoreIntoOwnBlockExecutesNewBytes) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.la(t0, "site");
    a.li(t1, static_cast<std::int64_t>(kAddiA0Zero99));
    a.sw(t1, t0, 0);
    a.label("site");
    a.addi(a0, zero, 1);  // overwritten before it ever executes
    a.label("spin");
    a.j("spin");
  }, 20);
  EXPECT_EQ(vm.reg(a0), 99u);
}

// Host-side pokes (debugger writes, DMA outside the bus) are caught by the
// raw-byte revalidation on the next block entry.
TEST(BlockEngine, HostPokeInvalidatesCachedBlock) {
  Vm vm;
  rvasm::Assembler a(Vm::kBase);
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  const auto p = a.assemble();
  vm.load(p);
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u);

  const std::uint64_t off = p.symbol("top") - Vm::kBase;
  std::memcpy(vm.ram.data() + off, &kAddiA0A05, 4);  // addi a0, a0, 5
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u + 50u * 5u);
  EXPECT_GE(vm.core.stats().block_invalidations, 1u);
}

// CPU + RAM + CLINT harness: the CLINT's msip register raises the machine
// software interrupt synchronously from within a store instruction.
struct IrqVm {
  static constexpr std::uint64_t kBase = 0x80000000ull;

  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram{sim, "ram", 64 * 1024, false};
  soc::Clint clint{sim, "clint"};
  rv::Core<rv::PlainWord> core;

  IrqVm() {
    bus.map(kBase, ram.size(), ram.socket(), "ram");
    bus.map(soc::addrmap::kClintBase, soc::addrmap::kClintSize, clint.socket(), "clint");
    core.bus_socket().bind(bus.target_socket());
    core.set_dmi(ram.data(), nullptr, kBase, ram.size(), nullptr);
    clint.set_soft_irq(
        [this](bool level) { core.set_irq(rv::kIrqMsoft, level); });
    core.set_pc(kBase);
  }
};

// An interrupt raised by a store in the middle of a straight-line block must
// be taken before the next instruction of that block retires, with mepc
// pointing exactly at the not-yet-executed successor.
TEST(BlockEngine, MidBlockInterruptTakenWithExactMepc) {
  IrqVm vm;
  rvasm::Assembler a(IrqVm::kBase);
  a.la(t0, "handler");
  a.csrrw(zero, rv::csr::kMtvec, t0);
  a.li(t1, rv::kIrqMsoft);
  a.csrrs(zero, rv::csr::kMie, t1);
  a.li(t2, static_cast<std::int64_t>(soc::addrmap::kClintBase));
  a.li(t3, 1);
  a.csrrsi(zero, rv::csr::kMstatus, 8);  // MIE on (CSR op: block boundary)
  // Straight-line block: marker, msip store, two instructions that must NOT
  // retire before the trap.
  a.addi(a0, zero, 1);
  a.sw(t3, t2, 0);  // msip = 1 -> M-soft IRQ pending mid-block
  a.label("after");
  a.addi(a1, zero, 1);
  a.addi(a2, zero, 1);
  a.label("spin");
  a.j("spin");
  a.label("handler");
  a.csrrs(s0, rv::csr::kMepc, zero);
  a.csrrs(s1, rv::csr::kMcause, zero);
  a.label("hspin");
  a.j("hspin");
  const auto p = a.assemble();
  vm.ram.load_image(p, IrqVm::kBase);
  vm.core.set_pc(static_cast<std::uint32_t>(p.entry));
  vm.core.run(40);

  EXPECT_EQ(vm.core.reg(10), 1u);  // a0: executed before the store
  EXPECT_EQ(vm.core.reg(11), 0u);  // a1: preempted by the trap
  EXPECT_EQ(vm.core.reg(12), 0u);  // a2: preempted by the trap
  EXPECT_EQ(vm.core.reg(8), static_cast<std::uint32_t>(p.symbol("after")));
  EXPECT_EQ(vm.core.reg(9), 0x80000003u);  // machine software interrupt
}

// run(N) through the block engine and N x run(1) single-stepping must produce
// bit-identical traces (and identical architectural state).
TEST(BlockEngine, TraceBitIdenticalToSingleStep) {
  const auto emit = [](rvasm::Assembler& a) {
    a.li(s0, 12);
    a.li(a0, 0);
    a.li(t0, static_cast<std::int64_t>(Vm::kBase + 0x8000));
    a.label("loop");
    a.add(a0, a0, s0);
    a.sw(a0, t0, 0);
    a.lw(a1, t0, 0);
    a.xor_(a2, a1, s0);
    a.addi(s0, s0, -1);
    a.bnez(s0, "loop");
    a.label("spin");
    a.j("spin");
  };
  constexpr std::uint64_t kSteps = 90;

  Vm block_vm, step_vm;
  rv::TraceBuffer block_trace(256), step_trace(256);
  block_vm.core.set_trace(&block_trace);
  step_vm.core.set_trace(&step_trace);
  rvasm::Assembler a(Vm::kBase);
  emit(a);
  const auto p = a.assemble();
  block_vm.load(p);
  step_vm.load(p);

  block_vm.core.run(kSteps);
  for (std::uint64_t i = 0; i < kSteps; ++i) step_vm.core.run(1);

  for (int r = 0; r < 32; ++r)
    EXPECT_EQ(block_vm.reg(static_cast<std::uint8_t>(r)),
              step_vm.reg(static_cast<std::uint8_t>(r)))
        << "x" << r;
  const auto sb = block_trace.snapshot();
  const auto ss = step_trace.snapshot();
  ASSERT_EQ(sb.size(), ss.size());
  for (std::size_t i = 0; i < sb.size(); ++i) {
    EXPECT_EQ(sb[i].instret, ss[i].instret) << i;
    EXPECT_EQ(sb[i].pc, ss[i].pc) << i;
    EXPECT_EQ(sb[i].raw, ss[i].raw) << i;
    EXPECT_EQ(sb[i].rd, ss[i].rd) << i;
    EXPECT_EQ(sb[i].rd_value, ss[i].rd_value) << i;
    EXPECT_EQ(sb[i].rd_tag, ss[i].rd_tag) << i;
  }
}

// The old decode cache stopped at a fixed 256 KiB window; the block cache
// sizes itself to the DMI region, so code high in a large RAM still hits.
struct BigVm {
  static constexpr std::uint64_t kBase = 0x80000000ull;

  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram{sim, "ram", 1u << 20, false};  // 1 MiB
  rv::Core<rv::PlainWord> core;

  BigVm() {
    bus.map(kBase, ram.size(), ram.socket(), "ram");
    core.bus_socket().bind(bus.target_socket());
    core.set_dmi(ram.data(), nullptr, kBase, ram.size(), nullptr);
    core.set_pc(kBase);
  }
};

TEST(BlockEngine, CachesCodeBeyond256KiB) {
  BigVm vm;
  rvasm::Assembler a(BigVm::kBase + 0x50000);  // 320 KiB into RAM
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  const auto p = a.assemble();
  vm.ram.load_image(p, BigVm::kBase);
  vm.core.set_pc(static_cast<std::uint32_t>(p.entry));
  vm.core.run(200);

  EXPECT_EQ(vm.core.reg(10), 100u);
  const auto& s = vm.core.stats();
  EXPECT_GT(s.block_hits + s.chained_transfers, 0u);
  EXPECT_GT(s.decode_hits, 0u);
}

// fetch32's shadow-summary hit is a *fetch*-path hit and must be attributed
// to fetch_summary_hits, not load_summary_hits.
TEST(BlockEngine, Fetch32AttributesShadowHitToFetchCounter) {
  MicroVm<rv::TaintedWord> vm;  // tainted RAM -> shadow summary attached
  const auto m = vm.core.fetch32(static_cast<std::uint32_t>(Vm::kBase));
  EXPECT_FALSE(m.fault);
  const auto& s = vm.core.stats();
  EXPECT_EQ(s.fetch_summary_hits, 1u);
  EXPECT_EQ(s.load_summary_hits, 0u);
}

// ---------------------------------------------------------------------------
// Taint-liveness variant gate (dual block variants on the VP+ core).
// ---------------------------------------------------------------------------

using TaintVm = MicroVm<rv::TaintedWord>;

// With a uniformly-bottom tag plane and clean registers, every dispatch must
// take the plain-word variant: zero tag work, no promotions.
TEST(BlockEngine, CleanPlaneRunsPlainVariant) {
  TaintVm vm;
  rvasm::Assembler a(TaintVm::kBase);
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  vm.load(a.assemble());
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u);
  const auto& s = vm.core.stats();
  EXPECT_GT(s.plain_variant_hits, 0u);
  EXPECT_EQ(s.tainted_variant_hits, 0u);
  EXPECT_EQ(s.variant_promotions, 0u);
}

// A live tag — in the plane and then also in a register — must force the
// tainted variant; after the classification is withdrawn and the register
// overwritten, the sticky register-tag OR is re-verified by the rescan and
// the plain variant re-engages. (A guest's partial ⊥ store over a mixed
// summary block conservatively stays mixed, so the plane is cleaned the
// way snapshot restore does it: reclassify + summary update.)
TEST(BlockEngine, LiveTaintDisablesPlainVariantUntilCleared) {
  TaintVm vm;
  constexpr std::uint64_t kDataOff = 0x8000;
  rvasm::Assembler a(TaintVm::kBase);
  a.li(t0, static_cast<std::int64_t>(TaintVm::kBase + kDataOff));
  a.li(t2, 20);
  a.lw(s0, t0, 0);  // tagged load: plane live, then s0 carries the tag
  a.label("loop1");
  a.addi(a0, a0, 1);
  a.bne(a0, t2, "loop1");
  a.li(s0, 0);  // overwrite the tagged register (sticky OR stays set)
  a.label("spin");
  a.j("spin");
  const auto p = a.assemble();
  vm.ram.write_u32(kDataOff, 0x1234);
  vm.ram.classify(kDataOff, 4, dift::Tag{1});
  vm.load(p);
  vm.core.run(60);

  EXPECT_EQ(vm.reg(a0), 20u);
  EXPECT_EQ(vm.tag(s0), dift::kBottomTag);
  const auto& s = vm.core.stats();
  EXPECT_GT(s.tainted_variant_hits, 0u);  // plane live the whole phase
  EXPECT_EQ(s.plain_variant_hits, 0u);
  EXPECT_EQ(s.variant_promotions, 0u);  // taint never appeared mid-plain

  // Withdraw the classification. A partial ⊥ fill over a mixed summary
  // block conservatively stays mixed, so re-uniform the whole block —
  // kDataOff is block-aligned, and bytes past the word were ⊥ already.
  vm.ram.classify(kDataOff, dift::ShadowSummary::kBlockBytes,
                  dift::kBottomTag);
  const auto tainted_before = s.tainted_variant_hits;
  vm.core.run(60);
  EXPECT_GT(s.plain_variant_hits, 0u);
  EXPECT_EQ(s.tainted_variant_hits, tainted_before);
}

// CPU + two memories: the DMI-backed RAM (clean) plus a second tainted
// memory reachable only over the bus — the source of mid-block taint.
struct TaintIoVm {
  static constexpr std::uint64_t kBase = 0x80000000ull;
  static constexpr std::uint64_t kIoBase = 0x90000000ull;

  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram{sim, "ram", 64 * 1024, true};
  soc::Memory io{sim, "io", 4 * 1024, true};
  rv::Core<rv::TaintedWord> core;

  TaintIoVm() {
    bus.map(kBase, ram.size(), ram.socket(), "ram");
    bus.map(kIoBase, io.size(), io.socket(), "io");
    core.bus_socket().bind(bus.target_socket());
    core.set_dmi(ram.data(), ram.tags(), kBase, ram.size(), &ram.shadow());
    core.set_pc(kBase);
  }
};

// The promotion edge: a block starts on the plain variant, then a bus load
// pulls in a tagged word mid-block. The plain variant must fall back BEFORE
// the next op runs plainly — the loaded tag is preserved and propagates
// through the ops that follow.
TEST(BlockEngine, MidBlockTaintedLoadPromotesBeforeNextOp) {
  TaintIoVm vm;
  vm.io.write_u32(0, 0x1234);
  vm.io.classify(0, 4, dift::Tag{1});
  rvasm::Assembler a(TaintIoVm::kBase);
  a.li(t0, static_cast<std::int64_t>(TaintIoVm::kIoBase));
  a.addi(a0, zero, 7);  // plain-variant op in the same block as the load
  a.lw(s0, t0, 0);      // bus load of the tagged word -> promotion point
  a.addi(s1, s0, 1);    // must run on the tainted variant: tag propagates
  a.label("spin");
  a.j("spin");
  vm.ram.load_image(a.assemble(), TaintIoVm::kBase);
  vm.core.run(20);

  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::value(vm.core.reg(8)), 0x1234u);
  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::tag(vm.core.reg(8)), dift::Tag{1});
  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::value(vm.core.reg(9)), 0x1235u);
  // The load's tag reached s1: the op after the promotion point did NOT
  // execute on the plain variant.
  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::tag(vm.core.reg(9)), dift::Tag{1});
  const auto& s = vm.core.stats();
  EXPECT_GE(s.variant_promotions, 1u);
  EXPECT_GT(s.plain_variant_hits, 0u);
  EXPECT_GT(s.tainted_variant_hits, 0u);
}

// ---------------------------------------------------------------------------
// Chained dispatch across a hot call loop.
// ---------------------------------------------------------------------------

// A hot call loop (head -> callee -> loop body -> back to head) rides the
// terminator chain, and its execution is bit-identical to the careful
// per-instruction path.
TEST(BlockEngine, CallLoopChainsAndMatchesCarefulPath) {
  const auto emit = [](rvasm::Assembler& a) {
    a.li(s0, 0);
    a.li(t2, 60);
    a.label("top");
    a.call("fn");
    a.addi(s0, s0, 1);
    a.beq(s0, t2, "done");
    a.j("top");
    a.label("done");
    a.label("spin");
    a.j("spin");
    a.label("fn");
    a.addi(a0, a0, 3);
    a.ret();
  };
  constexpr std::uint64_t kSteps = 400;

  Vm fast_vm;           // no trace buffer: fast block path
  Vm careful_vm;        // trace buffer attached: per-instruction path
  rv::TraceBuffer careful_trace(16);
  careful_vm.core.set_trace(&careful_trace);
  rvasm::Assembler a(Vm::kBase);
  emit(a);
  const auto p = a.assemble();
  fast_vm.load(p);
  careful_vm.load(p);
  fast_vm.core.run(kSteps);
  careful_vm.core.run(kSteps);

  for (int r = 0; r < 32; ++r)
    EXPECT_EQ(fast_vm.reg(static_cast<std::uint8_t>(r)),
              careful_vm.reg(static_cast<std::uint8_t>(r)))
        << "x" << r;
  EXPECT_EQ(fast_vm.reg(a0), 180u);
  EXPECT_EQ(fast_vm.reg(s0), 60u);
  EXPECT_EQ(fast_vm.core.pc(), careful_vm.core.pc());
  EXPECT_EQ(fast_vm.core.instret(), careful_vm.core.instret());
  EXPECT_GT(fast_vm.core.stats().chained_transfers, 0u);
}

// A guest store into a callee block that is entered through the caller's
// chain (not a cache lookup) must be caught by the chained entry's raw-byte
// revalidation: every later call runs the patched bytes.
TEST(BlockEngine, SmcStoreIntoChainedCalleeRevalidates) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.li(s0, 0);
    a.li(t2, 80);
    a.li(t3, 40);
    a.la(t0, "fn");
    a.li(t1, static_cast<std::int64_t>(kAddiA0Zero99));
    a.label("top");
    a.call("fn");
    a.addi(s0, s0, 1);
    a.beq(s0, t3, "dopatch");
    a.label("cont");
    a.beq(s0, t2, "done");
    a.j("top");
    a.label("dopatch");
    a.sw(t1, t0, 0);  // patch the callee: addi a0, a0, 3 -> addi a0, zero, 99
    a.j("cont");
    a.label("done");
    a.label("spin");
    a.j("spin");
    a.label("fn");
    a.addi(a0, a0, 3);
    a.ret();
  }, 800);
  EXPECT_EQ(vm.reg(s0), 80u);
  // Calls 1..40 accumulate 3 each; calls 41..80 run the patched body.
  EXPECT_EQ(vm.reg(a0), 99u);
  const auto& s = vm.core.stats();
  EXPECT_GT(s.chained_transfers, 0u);
  EXPECT_GE(s.block_invalidations, 1u);
}

// An interrupt raised by a store inside a callee block entered through the
// chain must be taken at the next instruction boundary with an exact mepc,
// without retiring the rest of the callee.
TEST(BlockEngine, InterruptInChainedCalleeTakenWithExactMepc) {
  IrqVm vm;
  rvasm::Assembler a(IrqVm::kBase);
  a.la(t0, "handler");
  a.csrrw(zero, rv::csr::kMtvec, t0);
  a.li(t1, rv::kIrqMsoft);
  a.csrrs(zero, rv::csr::kMie, t1);
  a.csrrsi(zero, rv::csr::kMstatus, 8);  // MIE on
  a.li(s2, static_cast<std::int64_t>(soc::addrmap::kClintBase));  // msip
  a.li(s3, static_cast<std::int64_t>(IrqVm::kBase + 0x8000));     // dummy
  a.sub(s5, s2, s3);
  a.li(s4, 30);  // fire on the 31st call — well after the chain forms
  a.li(s0, 0);
  a.li(t6, 1);
  a.label("top");
  a.call("fn");
  a.addi(s0, s0, 1);
  a.j("top");
  a.label("fn");
  // Branchless target select: iterations 0..29 store to the dummy word,
  // iteration 30 stores to CLINT msip — raising the IRQ mid-callee.
  a.xor_(t4, s0, s4);
  a.sltiu(t4, t4, 1);
  a.sub(t5, zero, t4);
  a.and_(t5, t5, s5);
  a.add(t5, t5, s3);
  a.sw(t6, t5, 0);
  a.label("after_store");
  a.addi(a3, a3, 1);  // must NOT retire on the IRQ iteration
  a.ret();
  a.label("handler");
  a.csrrs(s6, rv::csr::kMepc, zero);
  a.csrrs(s7, rv::csr::kMcause, zero);
  a.label("hspin");
  a.j("hspin");
  const auto p = a.assemble();
  vm.ram.load_image(p, IrqVm::kBase);
  vm.core.set_pc(static_cast<std::uint32_t>(p.entry));
  vm.core.run(600);

  EXPECT_EQ(vm.core.reg(13), 30u);  // a3: one per completed call, none after
  EXPECT_EQ(vm.core.reg(22), static_cast<std::uint32_t>(p.symbol("after_store")));
  EXPECT_EQ(vm.core.reg(23), 0x80000003u);  // machine software interrupt
  // The loop rode the chain (three transfers per call iteration), so the
  // IRQ iteration's callee was a chained entry, not a cache lookup.
  EXPECT_GT(vm.core.stats().chained_transfers, 60u);
}

// reset(pc, keep_translations=true) must keep the translated blocks (the
// warm re-arm path): a byte-identical second run re-decodes nothing.
TEST(BlockEngine, WarmResetKeepsTranslations) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.label("top");
    a.addi(a0, a0, 1);
    a.j("top");
  }, 100);
  EXPECT_EQ(vm.reg(a0), 50u);
  const auto misses_cold = vm.core.stats().decode_misses;
  EXPECT_GT(misses_cold, 0u);

  vm.core.reset(static_cast<std::uint32_t>(Vm::kBase), true);
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u);  // registers were reset; semantics identical
  EXPECT_EQ(vm.core.stats().decode_misses, misses_cold);  // no re-decode

  vm.core.reset(static_cast<std::uint32_t>(Vm::kBase), false);
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u);
  EXPECT_GT(vm.core.stats().decode_misses, misses_cold);  // cold re-decodes
}

}  // namespace
