// Unit + round-trip tests for the assembler: every encoder is verified by
// decoding the emitted word and comparing fields.
#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "rv/decode.hpp"
#include "rvasm/assembler.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using rvasm::Assembler;
using rvasm::AsmError;

std::uint32_t first_word(const rvasm::Program& p) {
  const auto& b = p.segments.front().bytes;
  return std::uint32_t(b[0]) | (std::uint32_t(b[1]) << 8) |
         (std::uint32_t(b[2]) << 16) | (std::uint32_t(b[3]) << 24);
}

rv::Insn encode_one(const std::function<void(Assembler&)>& emit) {
  Assembler a(0x80000000);
  emit(a);
  return rv::decode(first_word(a.assemble()));
}

TEST(Encode, RTypeFields) {
  const auto d = encode_one([](Assembler& a) { a.add(a0, a1, a2); });
  EXPECT_EQ(d.op, rv::Op::kAdd);
  EXPECT_EQ(d.rd, a0);
  EXPECT_EQ(d.rs1, a1);
  EXPECT_EQ(d.rs2, a2);
}

TEST(Encode, ITypeSignedImmediate) {
  const auto d = encode_one([](Assembler& a) { a.addi(t0, t1, -1024); });
  EXPECT_EQ(d.op, rv::Op::kAddi);
  EXPECT_EQ(d.imm, -1024);
}

TEST(Encode, LoadsAndStores) {
  auto d = encode_one([](Assembler& a) { a.lw(s0, sp, 2047); });
  EXPECT_EQ(d.op, rv::Op::kLw);
  EXPECT_EQ(d.imm, 2047);
  d = encode_one([](Assembler& a) { a.sb(s1, gp, -2048); });
  EXPECT_EQ(d.op, rv::Op::kSb);
  EXPECT_EQ(d.rs2, s1);
  EXPECT_EQ(d.rs1, gp);
  EXPECT_EQ(d.imm, -2048);
}

TEST(Encode, UTypeAndShifts) {
  auto d = encode_one([](Assembler& a) { a.lui(a0, 0xfffff); });
  EXPECT_EQ(d.op, rv::Op::kLui);
  EXPECT_EQ(static_cast<std::uint32_t>(d.imm), 0xfffff000u);
  d = encode_one([](Assembler& a) { a.srai(a0, a0, 31); });
  EXPECT_EQ(d.op, rv::Op::kSrai);
  EXPECT_EQ(d.imm, 31);
}

TEST(Encode, SystemInstructions) {
  EXPECT_EQ(encode_one([](Assembler& a) { a.ecall(); }).op, rv::Op::kEcall);
  EXPECT_EQ(encode_one([](Assembler& a) { a.ebreak(); }).op, rv::Op::kEbreak);
  EXPECT_EQ(encode_one([](Assembler& a) { a.mret(); }).op, rv::Op::kMret);
  EXPECT_EQ(encode_one([](Assembler& a) { a.wfi(); }).op, rv::Op::kWfi);
  EXPECT_EQ(encode_one([](Assembler& a) { a.fence(); }).op, rv::Op::kFence);
  const auto d = encode_one([](Assembler& a) { a.csrrw(t0, 0x305, t1); });
  EXPECT_EQ(d.op, rv::Op::kCsrrw);
  EXPECT_EQ(d.imm, 0x305);
}

// Round-trip property: every R-type op, all register fields.
struct RTypeCase {
  const char* name;
  void (Assembler::*emit)(rvasm::Reg, rvasm::Reg, rvasm::Reg);
  rv::Op op;
};

// Readable ctest names: print the case name instead of the struct's bytes,
// which hold load addresses and padding that differ on every run.
void PrintTo(const RTypeCase& c, std::ostream* os) { *os << c.name; }

class RTypeRoundTrip : public ::testing::TestWithParam<RTypeCase> {};

TEST_P(RTypeRoundTrip, AllRegisterCombos) {
  std::mt19937 rng(5);
  for (int i = 0; i < 64; ++i) {
    const auto rd = static_cast<rvasm::Reg>(rng() % 32);
    const auto rs1 = static_cast<rvasm::Reg>(rng() % 32);
    const auto rs2 = static_cast<rvasm::Reg>(rng() % 32);
    Assembler a(0x80000000);
    (a.*GetParam().emit)(rd, rs1, rs2);
    const auto d = rv::decode(first_word(a.assemble()));
    EXPECT_EQ(d.op, GetParam().op) << GetParam().name;
    EXPECT_EQ(d.rd, rd);
    EXPECT_EQ(d.rs1, rs1);
    EXPECT_EQ(d.rs2, rs2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRType, RTypeRoundTrip,
    ::testing::Values(
        RTypeCase{"add", &Assembler::add, rv::Op::kAdd},
        RTypeCase{"sub", &Assembler::sub, rv::Op::kSub},
        RTypeCase{"sll", &Assembler::sll, rv::Op::kSll},
        RTypeCase{"slt", &Assembler::slt, rv::Op::kSlt},
        RTypeCase{"sltu", &Assembler::sltu, rv::Op::kSltu},
        RTypeCase{"xor", &Assembler::xor_, rv::Op::kXor},
        RTypeCase{"srl", &Assembler::srl, rv::Op::kSrl},
        RTypeCase{"sra", &Assembler::sra, rv::Op::kSra},
        RTypeCase{"or", &Assembler::or_, rv::Op::kOr},
        RTypeCase{"and", &Assembler::and_, rv::Op::kAnd},
        RTypeCase{"mul", &Assembler::mul, rv::Op::kMul},
        RTypeCase{"mulh", &Assembler::mulh, rv::Op::kMulh},
        RTypeCase{"mulhsu", &Assembler::mulhsu, rv::Op::kMulhsu},
        RTypeCase{"mulhu", &Assembler::mulhu, rv::Op::kMulhu},
        RTypeCase{"div", &Assembler::div_, rv::Op::kDiv},
        RTypeCase{"divu", &Assembler::divu, rv::Op::kDivu},
        RTypeCase{"rem", &Assembler::rem, rv::Op::kRem},
        RTypeCase{"remu", &Assembler::remu, rv::Op::kRemu}),
    [](const auto& info) { return info.param.name; });

// Round-trip property: forward branch displacements across the encodable
// range (every displacement mod pattern exercises different imm bits).
TEST(BranchRoundTrip, DisplacementField) {
  for (int disp = 4; disp <= 4094; disp += 6) {
    Assembler b(0x80000000);
    b.beq(a0, a1, "t");
    b.zero_fill(static_cast<std::size_t>(disp) - 4);
    b.label("t");
    const auto prog = b.assemble();
    const auto& bytes = prog.segments.front().bytes;
    const std::uint32_t w = std::uint32_t(bytes[0]) | (std::uint32_t(bytes[1]) << 8) |
                            (std::uint32_t(bytes[2]) << 16) |
                            (std::uint32_t(bytes[3]) << 24);
    ASSERT_EQ(rv::decode(w).imm, disp) << disp;
  }
}

TEST(BranchRoundTrip, NegativeDisplacement) {
  Assembler a(0x80000000);
  a.label("top");
  a.nop();
  a.nop();
  a.bne(a0, a1, "top");
  const auto p = a.assemble();
  const auto& bytes = p.segments.front().bytes;
  const std::uint32_t w = std::uint32_t(bytes[8]) | (std::uint32_t(bytes[9]) << 8) |
                          (std::uint32_t(bytes[10]) << 16) |
                          (std::uint32_t(bytes[11]) << 24);
  EXPECT_EQ(rv::decode(w).imm, -8);
}

TEST(JalRoundTrip, ForwardAndBackward) {
  Assembler a(0x80000000);
  a.label("back");
  a.nop();
  a.jal(ra, "back");
  a.jal(x0, "fwd");
  a.nop();
  a.label("fwd");
  const auto p = a.assemble();
  const auto& bytes = p.segments.front().bytes;
  auto word_at = [&](std::size_t off) {
    return std::uint32_t(bytes[off]) | (std::uint32_t(bytes[off + 1]) << 8) |
           (std::uint32_t(bytes[off + 2]) << 16) |
           (std::uint32_t(bytes[off + 3]) << 24);
  };
  EXPECT_EQ(rv::decode(word_at(4)).imm, -4);
  EXPECT_EQ(rv::decode(word_at(8)).imm, 8);
}

TEST(Pseudo, LiSmallAndLarge) {
  {
    Assembler a(0x80000000);
    a.li(a0, 42);
    EXPECT_EQ(a.here(), 0x80000004u);  // single addi
  }
  {
    Assembler a(0x80000000);
    a.li(a0, 0x12345678);
    EXPECT_EQ(a.here(), 0x80000008u);  // lui + addi
  }
  {
    Assembler a(0x80000000);
    a.li(a0, 0x12345000);
    EXPECT_EQ(a.here(), 0x80000004u);  // lui only (lo12 == 0)
  }
  Assembler bad(0x80000000);
  EXPECT_THROW(bad.li(a0, 0x1'0000'0000ll), AsmError);
}

TEST(Pseudo, HiLoSplitCoversSignBoundary) {
  for (std::uint32_t v : {0u, 1u, 0x7ffu, 0x800u, 0xfffu, 0x1000u, 0x12345678u,
                          0x80000000u, 0xffffffffu, 0xfffff7ffu}) {
    const auto hl = rvasm::split_hi_lo(v);
    EXPECT_EQ(static_cast<std::uint32_t>((hl.hi20 << 12) + hl.lo12), v) << v;
    EXPECT_GE(hl.lo12, -2048);
    EXPECT_LE(hl.lo12, 2047);
  }
}

TEST(Labels, LaResolvesAbsoluteAddress) {
  Assembler a(0x80000000);
  a.la(a0, "data");
  a.zero_fill(100);
  a.align(4);
  a.label("data");
  a.word(0xdeadbeef);
  const auto p = a.assemble();
  EXPECT_EQ(p.symbol("data"), 0x8000006cu);
  // Execute the lui+addi pair mentally: decode and combine.
  const auto& bytes = p.segments.front().bytes;
  const std::uint32_t lui_w = std::uint32_t(bytes[0]) | (std::uint32_t(bytes[1]) << 8) |
                              (std::uint32_t(bytes[2]) << 16) |
                              (std::uint32_t(bytes[3]) << 24);
  const std::uint32_t addi_w = std::uint32_t(bytes[4]) | (std::uint32_t(bytes[5]) << 8) |
                               (std::uint32_t(bytes[6]) << 16) |
                               (std::uint32_t(bytes[7]) << 24);
  const auto lui_d = rv::decode(lui_w);
  const auto addi_d = rv::decode(addi_w);
  EXPECT_EQ(static_cast<std::uint32_t>(lui_d.imm) + addi_d.imm, 0x8000006cu);
}

TEST(Labels, UndefinedLabelThrowsAtAssemble) {
  Assembler a(0x80000000);
  a.j("nowhere");
  EXPECT_THROW(a.assemble(), AsmError);
}

TEST(Labels, DuplicateLabelThrows) {
  Assembler a(0x80000000);
  a.label("x");
  EXPECT_THROW(a.label("x"), AsmError);
}

TEST(Labels, WordOfEmbedsSymbolAddress) {
  Assembler a(0x80000000);
  a.word_of("f");
  a.label("f");
  const auto p = a.assemble();
  const auto& bytes = p.segments.front().bytes;
  const std::uint32_t w = std::uint32_t(bytes[0]) | (std::uint32_t(bytes[1]) << 8) |
                          (std::uint32_t(bytes[2]) << 16) |
                          (std::uint32_t(bytes[3]) << 24);
  EXPECT_EQ(w, 0x80000004u);
}

TEST(Directives, OrgStartsNewSegment) {
  Assembler a(0x80000000);
  a.word(1);  // data: not counted as an instruction
  a.org(0x80010000);
  a.nop();
  const auto p = a.assemble();
  ASSERT_EQ(p.segments.size(), 2u);
  EXPECT_EQ(p.segments[1].base, 0x80010000u);
  EXPECT_EQ(p.size(), 8u);
  EXPECT_EQ(p.instruction_slots(), 1u);  // only the nop is text
}

TEST(Directives, AlignPadsWithZeros) {
  Assembler a(0x80000000);
  a.byte(1);
  a.align(4);
  EXPECT_EQ(a.here() % 4, 0u);
  EXPECT_EQ(a.here(), 0x80000004u);
  EXPECT_THROW(a.align(3), AsmError);
}

TEST(Directives, AsciiAndAsciiz) {
  Assembler a(0x80000000);
  a.ascii("ab");
  a.asciiz("cd");
  const auto p = a.assemble();
  const auto& b = p.segments.front().bytes;
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 'a');
  EXPECT_EQ(b[4], 0u);
}

TEST(Errors, OutOfRangeImmediates) {
  Assembler a(0x80000000);
  EXPECT_THROW(a.addi(a0, a0, 2048), AsmError);
  EXPECT_THROW(a.addi(a0, a0, -2049), AsmError);
  EXPECT_THROW(a.slli(a0, a0, 32), AsmError);
  EXPECT_THROW(a.lui(a0, 1 << 20), AsmError);
}

TEST(Errors, BranchOutOfRange) {
  Assembler a(0x80000000);
  a.beq(a0, a1, "far");
  a.zero_fill(8192);
  a.label("far");
  EXPECT_THROW(a.assemble(), AsmError);
}

TEST(Disassembler, RendersCommonForms) {
  EXPECT_EQ(rv::disassemble(encode_one([](Assembler& a) { a.addi(a0, a0, -1); })),
            "addi a0, a0, -1");
  EXPECT_EQ(rv::disassemble(encode_one([](Assembler& a) { a.lw(s0, sp, 8); })),
            "lw s0, 8(sp)");
  EXPECT_EQ(rv::disassemble(encode_one([](Assembler& a) { a.add(t0, t1, t2); })),
            "add t0, t1, t2");
  EXPECT_EQ(rv::disassemble(0xffffffffu), "illegal");
}

TEST(RegNames, AbiNames) {
  EXPECT_STREQ(rvasm::reg_name(0), "zero");
  EXPECT_STREQ(rvasm::reg_name(2), "sp");
  EXPECT_STREQ(rvasm::reg_name(10), "a0");
  EXPECT_STREQ(rvasm::reg_name(31), "t6");
  EXPECT_STREQ(rvasm::reg_name(32), "??");
}

}  // namespace

namespace {

// Decoder totality: any 32-bit word decodes without crashing, and every
// decoded instruction disassembles to a non-empty string. Illegal encodings
// must decode to kIllegal (never to a bogus valid op).
TEST(DecoderFuzz, TotalOverRandomWords) {
  std::mt19937 rng(0xfeedface);
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t raw = rng();
    const auto d = vpdift::rv::decode(raw);
    ASSERT_FALSE(vpdift::rv::disassemble(d).empty());
    if (d.op != vpdift::rv::Op::kIllegal) {
      EXPECT_LT(d.rd, 32);
      EXPECT_LT(d.rs1, 32);
      EXPECT_LT(d.rs2, 32);
    }
  }
}

// Encode-decode closure: everything the assembler can emit decodes to a
// non-illegal op (spot-check via a program that uses one of each form).
TEST(DecoderFuzz, AssemblerOutputNeverDecodesIllegal) {
  using namespace vpdift::rvasm::reg;
  vpdift::rvasm::Assembler a(0x80000000);
  a.lui(a0, 1); a.auipc(a1, 2); a.jalr(ra, a0, 4);
  a.lb(a0, sp, 0); a.lh(a0, sp, 0); a.lw(a0, sp, 0);
  a.lbu(a0, sp, 0); a.lhu(a0, sp, 0);
  a.sb(a0, sp, 0); a.sh(a0, sp, 0); a.sw(a0, sp, 0);
  a.addi(a0, a0, 1); a.slti(a0, a0, 1); a.sltiu(a0, a0, 1);
  a.xori(a0, a0, 1); a.ori(a0, a0, 1); a.andi(a0, a0, 1);
  a.slli(a0, a0, 1); a.srli(a0, a0, 1); a.srai(a0, a0, 1);
  a.add(a0, a0, a1); a.sub(a0, a0, a1); a.sll(a0, a0, a1);
  a.slt(a0, a0, a1); a.sltu(a0, a0, a1); a.xor_(a0, a0, a1);
  a.srl(a0, a0, a1); a.sra(a0, a0, a1); a.or_(a0, a0, a1); a.and_(a0, a0, a1);
  a.fence(); a.ecall(); a.ebreak(); a.mret(); a.wfi();
  a.mul(a0, a0, a1); a.mulh(a0, a0, a1); a.mulhsu(a0, a0, a1);
  a.mulhu(a0, a0, a1); a.div_(a0, a0, a1); a.divu(a0, a0, a1);
  a.rem(a0, a0, a1); a.remu(a0, a0, a1);
  a.csrrw(a0, 0x300, a1); a.csrrs(a0, 0x300, a1); a.csrrc(a0, 0x300, a1);
  a.csrrwi(a0, 0x300, 1); a.csrrsi(a0, 0x300, 1); a.csrrci(a0, 0x300, 1);
  const auto p = a.assemble();
  const auto& bytes = p.segments.front().bytes;
  for (std::size_t off = 0; off < bytes.size(); off += 4) {
    const std::uint32_t w = std::uint32_t(bytes[off]) |
                            (std::uint32_t(bytes[off + 1]) << 8) |
                            (std::uint32_t(bytes[off + 2]) << 16) |
                            (std::uint32_t(bytes[off + 3]) << 24);
    EXPECT_NE(vpdift::rv::decode(w).op, vpdift::rv::Op::kIllegal)
        << "offset " << off << ": " << std::hex << w;
  }
}

}  // namespace
