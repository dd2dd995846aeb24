// Gap-closing tests: powerset lattices, peripheral register read-back paths,
// GPIO under a full-VP policy, flash edge cases, CSR file units.
#include <gtest/gtest.h>

#include <cstring>

#include "dift/context.hpp"
#include "dift/lattice.hpp"
#include "fw/hal.hpp"
#include "rv/csr.hpp"
#include "rvasm/assembler.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using dift::Lattice;
using dift::Tag;

// ---- powerset (compartment) lattice ----

TEST(PowersetLattice, SubsetOrderAndUnionLub) {
  const Lattice l = Lattice::powerset({"KEY", "BIO"});
  ASSERT_EQ(l.size(), 4u);
  const Tag none = l.tag_of("{}");
  const Tag key = l.tag_of("{KEY}");
  const Tag bio = l.tag_of("{BIO}");
  const Tag both = l.tag_of("{KEY,BIO}");
  // Subset inclusion.
  EXPECT_TRUE(l.allowed_flow(none, key));
  EXPECT_TRUE(l.allowed_flow(key, both));
  EXPECT_TRUE(l.allowed_flow(bio, both));
  // Independent compartments never flow into each other.
  EXPECT_FALSE(l.allowed_flow(key, bio));
  EXPECT_FALSE(l.allowed_flow(bio, key));
  EXPECT_FALSE(l.allowed_flow(both, key));
  // LUB = union.
  EXPECT_EQ(l.lub(key, bio), both);
  EXPECT_EQ(l.lub(none, key), key);
  EXPECT_EQ(l.lub(both, key), both);
}

TEST(PowersetLattice, ThreeCategoriesAxiomsHold) {
  const Lattice l = Lattice::powerset({"A", "B", "C"});
  ASSERT_EQ(l.size(), 8u);
  // Spot-check the lattice axioms (the full axioms suite covers families).
  for (Tag a = 0; a < 8; ++a)
    for (Tag b = 0; b < 8; ++b) {
      EXPECT_EQ(l.lub(a, b), a | b);  // union == bitwise or of masks
      EXPECT_EQ(l.allowed_flow(a, b), (a & ~b) == 0);
    }
}

TEST(PowersetLattice, TooManyCategoriesRejected) {
  std::vector<std::string> cats(9, "x");
  for (int i = 0; i < 9; ++i) {
    cats[i] = "C";
    cats[i] += std::to_string(i);
  }
  EXPECT_THROW(Lattice::powerset(cats), dift::LatticeError);
  EXPECT_EQ(Lattice::powerset({}).size(), 1u);  // degenerate: just "{}"
}

TEST(PowersetLattice, CompartmentsIsolateSecretsInTheVp) {
  // Two secrets in different compartments; the policy clears the UART for
  // {KEY} only — KEY data passes, BIO data is blocked.
  const Lattice l = Lattice::powerset({"KEY", "BIO"});
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.la(t0, "key_data");
  a.lbu(t1, t0, 0);
  a.li(t2, fw::mmio::kUartTx);
  a.sb(t1, t2, 0);  // allowed: {KEY} flows to the {KEY}-cleared UART
  a.la(t0, "bio_data");
  a.lbu(t1, t0, 0);
  a.sb(t1, t2, 0);  // blocked: {BIO} does not flow to {KEY}
  a.li(a0, 0);
  a.ret();
  fw::emit_stdlib(a);
  a.align(4);
  a.label("key_data");
  a.word(0x4b);
  a.label("bio_data");
  a.word(0x42);
  const auto prog = a.assemble();

  dift::SecurityPolicy policy(l);
  policy.classify_memory(prog.symbol("key_data"), 4, l.tag_of("{KEY}"))
      .classify_memory(prog.symbol("bio_data"), 4, l.tag_of("{BIO}"))
      .clear_output("uart0.tx", l.tag_of("{KEY}"));
  vp::VpDift v;
  v.load(prog);
  v.apply_policy(policy);
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.violation());
  EXPECT_EQ(r.violation_kind, dift::ViolationKind::kOutputClearance);
  EXPECT_EQ(r.uart_output, "K");  // the KEY byte made it out, BIO did not
}

// ---- firmware-visible GPIO under a policy ----

TEST(GpioVp, FirmwareDebugPinLeakBlocked) {
  const Lattice l = Lattice::ifp1();
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.la(t0, "secret");
  a.lw(t1, t0, 0);
  a.li(t2, soc::addrmap::kGpioBase);
  a.sw(t1, t2, 0);  // bit-bang the secret onto debug pins
  a.li(a0, 0);
  a.ret();
  fw::emit_stdlib(a);
  a.align(4);
  a.label("secret");
  a.word(0xff);
  const auto prog = a.assemble();
  dift::SecurityPolicy policy(l);
  policy.classify_memory(prog.symbol("secret"), 4, l.tag_of("HC"))
      .clear_output("gpio0.out", l.tag_of("LC"));
  vp::VpDift v;
  v.load(prog);
  v.apply_policy(policy);
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.violation());
  EXPECT_EQ(r.violation_where, "gpio0.out");
  EXPECT_GE(r.violation_pc, soc::addrmap::kRamBase);
}

TEST(GpioVp, FirmwareReadsClassifiedInputPins) {
  const Lattice l = Lattice::ifp1();
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.li(t0, soc::addrmap::kGpioBase);
  a.lw(t1, t0, 4);  // IN register
  a.li(t2, fw::mmio::kUartTx);
  a.sb(t1, t2, 0);  // echoing classified pins to a LC console: blocked
  a.li(a0, 0);
  a.ret();
  fw::emit_stdlib(a);
  const auto prog = a.assemble();
  dift::SecurityPolicy policy(l);
  policy.classify_input("gpio0.in", l.tag_of("HC"))
      .clear_output("uart0.tx", l.tag_of("LC"));
  vp::VpDift v;
  v.gpio().set_input_pins(0x55);
  v.load(prog);
  v.apply_policy(policy);
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.violation());
  EXPECT_EQ(r.violation_kind, dift::ViolationKind::kOutputClearance);
}

// ---- flash edge cases ----

TEST(SpiFlashEdge, OutOfRangeReadIsAddressError) {
  sysc::Simulation sim;
  soc::SpiFlash flash(sim, "flash0", {1, 2, 3, 4});
  std::uint8_t buf[4];
  tlmlite::Payload p;
  p.command = tlmlite::Command::kRead;
  p.address = 2;
  p.data = buf;
  p.length = 4;  // straddles the end
  sysc::Time d;
  flash.socket().b_transport(p, d);
  EXPECT_EQ(p.response, tlmlite::Response::kAddressError);
}

TEST(SpiFlashEdge, TagReconfigurable) {
  sysc::Simulation sim;
  soc::SpiFlash flash(sim, "flash0", {9}, 3);
  EXPECT_EQ(flash.image_tag(), 3);
  flash.set_image_tag(1);
  std::uint8_t buf[1];
  dift::Tag tag[1];
  tlmlite::Payload p;
  p.command = tlmlite::Command::kRead;
  p.address = 0;
  p.data = buf;
  p.tags = tag;
  p.length = 1;
  sysc::Time d;
  flash.socket().b_transport(p, d);
  EXPECT_EQ(buf[0], 9);
  EXPECT_EQ(tag[0], 1);
}

// ---- CSR file units ----

TEST(CsrFileUnit, ExistsCoversImplementedSet) {
  rv::CsrFile f;
  for (std::uint32_t n : {rv::csr::kMstatus, rv::csr::kMie, rv::csr::kMtvec,
                          rv::csr::kMscratch, rv::csr::kMepc, rv::csr::kMcause,
                          rv::csr::kMtval, rv::csr::kMip, rv::csr::kCycle,
                          rv::csr::kTime, rv::csr::kInstret, rv::csr::kMhartid})
    EXPECT_TRUE(f.exists(n)) << std::hex << n;
  EXPECT_FALSE(f.exists(0x123));
  EXPECT_FALSE(f.exists(0x7c0));
}

TEST(CsrFileUnit, MstatusWritableBitsMasked) {
  rv::CsrFile f;
  f.write(rv::csr::kMstatus, {0xffffffff, 5});
  EXPECT_EQ(f.mstatus.value,
            rv::kMstatusMie | rv::kMstatusMpie | rv::kMstatusMpp);
  EXPECT_EQ(f.mstatus.tag, 5);
}

TEST(CsrFileUnit, MepcAlignmentAndCounters) {
  rv::CsrFile f;
  f.write(rv::csr::kMepc, {0x80000003, 0});
  EXPECT_EQ(f.mepc.value, 0x80000002u);  // bit 0 cleared
  EXPECT_EQ(f.read(rv::csr::kCycle, 1234, 0, 0).value, 1234u);
  EXPECT_EQ(f.read(rv::csr::kInstret, 0, 0, 0).value, 0u);
  EXPECT_EQ(f.read(rv::csr::kTime, 0, 0, 77).value, 77u);
  EXPECT_EQ(f.read(rv::csr::kMisa, 0, 0, 0).value & 0x100u, 0x100u);  // 'I'
}

// ---- watchdog register read-back ----

TEST(WatchdogRegs, LoadAndCtrlReadBack) {
  sysc::Simulation sim;
  soc::Watchdog wdt(sim, "wdt0");
  auto rw32 = [&](tlmlite::Command cmd, std::uint64_t addr, std::uint32_t v = 0) {
    std::uint8_t buf[4];
    std::memcpy(buf, &v, 4);
    tlmlite::Payload p;
    p.command = cmd;
    p.address = addr;
    p.data = buf;
    p.length = 4;
    sysc::Time d;
    wdt.socket().b_transport(p, d);
    std::uint32_t out;
    std::memcpy(&out, buf, 4);
    return out;
  };
  rw32(tlmlite::Command::kWrite, soc::Watchdog::kLoad, 750);
  EXPECT_EQ(rw32(tlmlite::Command::kRead, soc::Watchdog::kLoad), 750u);
  EXPECT_EQ(rw32(tlmlite::Command::kRead, soc::Watchdog::kCtrl), 0u);
  rw32(tlmlite::Command::kWrite, soc::Watchdog::kCtrl, 1);
  EXPECT_EQ(rw32(tlmlite::Command::kRead, soc::Watchdog::kCtrl), 1u);
  EXPECT_TRUE(wdt.enabled());
  EXPECT_EQ(rw32(tlmlite::Command::kRead, soc::Watchdog::kStatus), 0u);
}

}  // namespace
