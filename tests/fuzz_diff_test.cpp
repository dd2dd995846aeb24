// Differential + taint-soundness fuzzing of the two core instantiations.
//
// 1. Differential: random straight-line-with-branches programs must produce
//    bit-identical architectural state on Core<uint32_t> (VP) and
//    Core<Taint<uint32_t>> (VP+) — the DIFT machinery must never perturb
//    values.
// 2. Taint soundness (dynamic approximation): taint one input register; run
//    twice with two different input *values*; every register whose final
//    value differs between the runs is data-dependent on the input and must
//    therefore carry a non-bottom tag in the tainted run.
// 3. Register-access width fuzzing: randomized 1..8-byte reads/writes at the
//    DMA and UART register files — oversized accesses must clamp to the
//    4-byte register width (never shift past it: UB) and reads must always
//    fill the whole payload (bytes beyond the register read as zero).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "campaign/thread_pool.hpp"
#include "dift/context.hpp"
#include "micro_vm.hpp"
#include "soc/dma.hpp"
#include "soc/uart.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using testutil::MicroVm;

// Random program generator: ALU ops, loads/stores into a scratch window,
// and short forward branches. Deterministic per seed.
class ProgramFuzzer {
 public:
  // `branches=false` generates straight-line programs: the dynamic taint-
  // soundness check below is only valid without control-flow-dependent
  // (implicit) flows, which data-flow DIFT deliberately does not propagate —
  // the paper handles those via the branch execution clearance instead.
  explicit ProgramFuzzer(std::uint32_t seed, bool branches = true)
      : rng_(seed), branches_(branches) {}

  rvasm::Program generate(int instructions) {
    rvasm::Assembler a(MicroVm<rv::PlainWord>::kBase);
    int label_counter = 0;
    std::vector<std::string> open_labels;
    for (int i = 0; i < instructions; ++i) {
      // Close a pending forward branch target occasionally.
      if (!open_labels.empty() && rng_() % 4 == 0) {
        a.label(open_labels.back());
        open_labels.pop_back();
      }
      emit_random(a, label_counter, open_labels);
    }
    for (auto it = open_labels.rbegin(); it != open_labels.rend(); ++it)
      a.label(*it);
    a.label("fuzz_end");
    a.j("fuzz_end");  // park
    a.align(16);
    a.label("scratch");
    a.zero_fill(256);
    return a.assemble();
  }

 private:
  rvasm::Reg reg_gp() {  // general-purpose registers only (x5..x15)
    return static_cast<rvasm::Reg>(5 + rng_() % 11);
  }

  void emit_random(rvasm::Assembler& a, int& label_counter,
                   std::vector<std::string>& open_labels) {
    const rvasm::Reg rd = reg_gp(), rs1 = reg_gp(), rs2 = reg_gp();
    switch (rng_() % 16) {
      case 0: a.add(rd, rs1, rs2); break;
      case 1: a.sub(rd, rs1, rs2); break;
      case 2: a.xor_(rd, rs1, rs2); break;
      case 3: a.and_(rd, rs1, rs2); break;
      case 4: a.or_(rd, rs1, rs2); break;
      case 5: a.mul(rd, rs1, rs2); break;
      case 6: a.divu(rd, rs1, rs2); break;
      case 7: a.sltu(rd, rs1, rs2); break;
      case 8: a.sll(rd, rs1, rs2); break;
      case 9: a.sra(rd, rs1, rs2); break;
      case 10: a.addi(rd, rs1, static_cast<std::int32_t>(rng_() % 4096) - 2048); break;
      case 11: {  // store to scratch
        a.la(t6, "scratch");
        a.sw(rs1, t6, static_cast<std::int32_t>((rng_() % 60) & ~3u));
        break;
      }
      case 12: {  // load from scratch
        a.la(t6, "scratch");
        a.lw(rd, t6, static_cast<std::int32_t>((rng_() % 60) & ~3u));
        break;
      }
      case 13: {  // byte store/load pair
        a.la(t6, "scratch");
        a.sb(rs1, t6, static_cast<std::int32_t>(rng_() % 64));
        a.lbu(rd, t6, static_cast<std::int32_t>(rng_() % 64));
        break;
      }
      case 14: {  // short forward branch (never taken backwards: no loops)
        if (!branches_) { a.add(rd, rs1, rs2); break; }
        const std::string lbl = "fz" + std::to_string(label_counter++);
        switch (rng_() % 3) {
          case 0: a.beq(rs1, rs2, lbl); break;
          case 1: a.bltu(rs1, rs2, lbl); break;
          default: a.bne(rs1, rs2, lbl); break;
        }
        open_labels.push_back(lbl);
        break;
      }
      default:
        a.li(rd, static_cast<std::int64_t>(rng_()));
        break;
    }
  }

  std::mt19937 rng_;
  bool branches_;
};

template <typename W>
std::array<std::uint32_t, 32> run_fuzz(const rvasm::Program& p,
                                       const std::array<std::uint32_t, 8>& inputs,
                                       dift::Tag input_tag) {
  MicroVm<W> vm;
  vm.load(p);
  for (int i = 0; i < 8; ++i)
    vm.core.set_reg(static_cast<std::uint8_t>(5 + i),
                    rv::WordOps<W>::make(inputs[i], input_tag));
  vm.core.run(4000);
  std::array<std::uint32_t, 32> out{};
  for (int r = 0; r < 32; ++r) out[r] = rv::WordOps<W>::value(vm.core.reg(r));
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuzzSeeds, PlainAndTaintedCoresAgreeBitExactly) {
  const dift::Lattice l = dift::Lattice::ifp1();
  dift::DiftContext ctx(l);
  ProgramFuzzer fuzzer(GetParam());
  const auto prog = fuzzer.generate(300);
  std::mt19937 vals(GetParam() ^ 0xabcdef);
  std::array<std::uint32_t, 8> inputs;
  for (auto& v : inputs) v = vals();
  const auto plain = run_fuzz<rv::PlainWord>(prog, inputs, 0);
  const auto tainted = run_fuzz<rv::TaintedWord>(prog, inputs, l.tag_of("HC"));
  for (int r = 0; r < 32; ++r)
    ASSERT_EQ(plain[r], tainted[r]) << "x" << r << " diverged, seed " << GetParam();
}

TEST_P(FuzzSeeds, DynamicTaintSoundness) {
  // Any register whose final value depends on the (tainted) input value must
  // carry a non-bottom tag.
  const dift::Lattice l = dift::Lattice::ifp1();
  dift::DiftContext ctx(l);
  const dift::Tag hc = l.tag_of("HC");
  ProgramFuzzer fuzzer(GetParam() + 1000, /*branches=*/false);
  const auto prog = fuzzer.generate(250);

  std::mt19937 vals(GetParam() ^ 0x55aa);
  std::array<std::uint32_t, 8> inputs_a, inputs_b;
  for (auto& v : inputs_a) v = vals();
  inputs_b = inputs_a;
  inputs_b[0] = ~inputs_a[0];  // perturb the tainted input (x5)

  // Reference pair on the plain core to find value-dependent registers.
  const auto ref_a = run_fuzz<rv::PlainWord>(prog, inputs_a, 0);
  const auto ref_b = run_fuzz<rv::PlainWord>(prog, inputs_b, 0);

  // Tainted run: only x5 carries HC.
  MicroVm<rv::TaintedWord> vm;
  vm.load(prog);
  for (int i = 0; i < 8; ++i)
    vm.core.set_reg(static_cast<std::uint8_t>(5 + i),
                    rv::WordOps<rv::TaintedWord>::make(inputs_a[i],
                                                       i == 0 ? hc : 0));
  vm.core.run(4000);

  for (int r = 1; r < 32; ++r) {
    if (ref_a[r] == ref_b[r]) continue;  // not (observably) input-dependent
    EXPECT_EQ(rv::WordOps<rv::TaintedWord>::tag(vm.core.reg(static_cast<std::uint8_t>(r))), hc)
        << "x" << r << " is input-dependent but untagged (seed " << GetParam()
        << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, FuzzSeeds,
                         ::testing::Range(0u, 25u));

// The same differential sweep through the campaign engine: every seed is an
// independent job on the work-stealing pool (worker count from VPDIFT_JOBS,
// default 4), and the parallel results must be bit-identical to a serial
// run of the very same computation — the archetypal guard for the
// thread_local active-context refactor, since each worker installs its own
// DiftContext while the others are mid-simulation.
TEST(FuzzCampaign, ParallelSeedsBitIdenticalToSerial) {
  constexpr std::uint32_t kSeeds = 25;
  struct SeedOutcome {
    std::array<std::uint32_t, 32> plain{};
    std::array<std::uint32_t, 32> tainted{};
  };
  const auto fuzz_one = [](std::uint32_t seed) {
    const dift::Lattice l = dift::Lattice::ifp1();
    dift::DiftContext ctx(l);
    ProgramFuzzer fuzzer(seed);
    const auto prog = fuzzer.generate(300);
    std::mt19937 vals(seed ^ 0xabcdef);
    std::array<std::uint32_t, 8> inputs;
    for (auto& v : inputs) v = vals();
    SeedOutcome out;
    out.plain = run_fuzz<rv::PlainWord>(prog, inputs, 0);
    out.tainted = run_fuzz<rv::TaintedWord>(prog, inputs, l.tag_of("HC"));
    return out;
  };

  std::vector<SeedOutcome> serial(kSeeds);
  for (std::uint32_t s = 0; s < kSeeds; ++s) serial[s] = fuzz_one(s);

  std::vector<SeedOutcome> parallel(kSeeds);
  campaign::ThreadPool pool(campaign::ThreadPool::jobs_from_env(4));
  pool.parallel_for(kSeeds, [&](std::size_t s) {
    parallel[s] = fuzz_one(static_cast<std::uint32_t>(s));
  });

  for (std::uint32_t s = 0; s < kSeeds; ++s) {
    ASSERT_EQ(serial[s].plain, parallel[s].plain) << "seed " << s;
    ASSERT_EQ(serial[s].tainted, parallel[s].tainted) << "seed " << s;
  }
}

// Regression fuzz for the register-width clamp: before the fix, a payload
// longer than 4 bytes made the peripherals' rd_u32/wr_u32 helpers evaluate
// `v >> (8*i)` for i >= 4 — undefined behaviour — and left the tail of a
// read payload untouched. Randomized widths at every register must yield
// zero-filled tails, bottom tags, and (under UBSan) no shift UB.
TEST(RegisterWidthFuzz, OversizedDmaAndUartAccessesClamp) {
  dift::Lattice l = dift::Lattice::ifp1();
  dift::DiftContext ctx(l);
  sysc::Simulation sim;
  soc::Dma dma(sim, "dma0", /*tainted_mode=*/true);
  soc::Uart uart(sim, "uart0");

  const std::uint64_t dma_regs[] = {soc::Dma::kSrc, soc::Dma::kDst,
                                    soc::Dma::kLen, soc::Dma::kCtrl,
                                    soc::Dma::kStatus};
  const std::uint64_t uart_regs[] = {soc::Uart::kTxData, soc::Uart::kRxData,
                                     soc::Uart::kStatus, soc::Uart::kIe};

  std::mt19937 rng(0xd1f7);
  for (int iter = 0; iter < 400; ++iter) {
    const bool use_dma = rng() % 2 == 0;
    tlmlite::TargetSocket& sock = use_dma ? dma.socket() : uart.socket();
    const std::uint64_t addr = use_dma ? dma_regs[rng() % 5]
                                       : uart_regs[rng() % 4];
    const std::uint32_t n = 1 + rng() % 8;

    std::uint8_t buf[8];
    dift::Tag tags[8];
    for (std::uint32_t i = 0; i < n; ++i) {
      buf[i] = static_cast<std::uint8_t>(rng());
      tags[i] = dift::kBottomTag;
    }
    tlmlite::Payload p;
    p.command = rng() % 2 ? tlmlite::Command::kRead : tlmlite::Command::kWrite;
    p.address = addr;
    p.data = buf;
    p.tags = rng() % 2 ? tags : nullptr;
    p.length = n;
    sysc::Time d;
    sock.b_transport(p, d);
    ASSERT_TRUE(p.ok()) << "addr=" << std::hex << addr << " len=" << n;

    if (p.command == tlmlite::Command::kRead) {
      for (std::uint32_t i = 4; i < n; ++i)
        ASSERT_EQ(buf[i], 0u) << "tail byte " << i << " of read @" << std::hex
                              << addr << " not clamped to zero";
      if (p.tainted()) {
        for (std::uint32_t i = 0; i < n; ++i)
          ASSERT_EQ(tags[i], dift::kBottomTag);
      }
    }
  }
}

}  // namespace
