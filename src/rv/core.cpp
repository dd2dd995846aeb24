#include "rv/core.hpp"
#include <algorithm>
#include <cstring>

#include "dift/context.hpp"
#include "tlmlite/payload.hpp"

namespace vpdift::rv {

using dift::Tag;
using dift::ViolationKind;

// ---------------------------------------------------------------------------
// Per-instruction handlers.
//
// Every Op has one handler function per Core instantiation; the block engine
// stores the resolved function pointer in each micro-op so the dispatch loop
// is just `op.fn(core, op.insn)`. execute() routes through the same table, so
// the slow (bus-fetch) path and the block path share semantics by
// construction. Handlers read the current instruction pc from `c.pc_` and
// leave the successor pc in `c.next_pc_` (pre-set to pc + len by the caller).
//
// Taint semantics mirror the Taint<T> operators (paper Fig. 3): reg-reg ALU
// results take the LUB of the operand tags — with an untainted-operand fast
// path that skips the LUB machinery when both tags are ⊥ — while reg-imm
// forms propagate rs1's tag (immediates are untagged). In the plain
// instantiation all tag code compiles away.
// ---------------------------------------------------------------------------

template <typename W>
struct CoreOps {
  using C = Core<W>;
  using Ops = WordOps<W>;
  static constexpr bool kT = Ops::kTainted;
  using Fn = typename C::ExecFn;

  struct OpInfo {
    Fn fn;            ///< full (tainted) handler
    Fn fast;          ///< plain-variant handler (aliases fn for terminators)
    bool mem;         ///< load/store: can raise IRQs / modify code mid-block
    bool cf;          ///< conditional branch: exits the block only when taken
    bool terminator;  ///< ends a translated block
  };

  // ---- ALU value functions ----
  static constexpr std::uint32_t f_add(std::uint32_t a, std::uint32_t b) { return a + b; }
  static constexpr std::uint32_t f_sub(std::uint32_t a, std::uint32_t b) { return a - b; }
  static constexpr std::uint32_t f_xor(std::uint32_t a, std::uint32_t b) { return a ^ b; }
  static constexpr std::uint32_t f_or(std::uint32_t a, std::uint32_t b) { return a | b; }
  static constexpr std::uint32_t f_and(std::uint32_t a, std::uint32_t b) { return a & b; }
  static constexpr std::uint32_t f_sll(std::uint32_t a, std::uint32_t b) { return a << (b & 31); }
  static constexpr std::uint32_t f_srl(std::uint32_t a, std::uint32_t b) { return a >> (b & 31); }
  static constexpr std::uint32_t f_sra(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31));
  }
  static constexpr std::uint32_t f_slt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b) ? 1u : 0u;
  }
  static constexpr std::uint32_t f_sltu(std::uint32_t a, std::uint32_t b) {
    return a < b ? 1u : 0u;
  }
  static constexpr std::uint32_t f_mul(std::uint32_t a, std::uint32_t b) { return a * b; }
  static constexpr std::uint32_t f_mulh(std::uint32_t a, std::uint32_t b) {
    const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                           static_cast<std::int64_t>(static_cast<std::int32_t>(b));
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(p) >> 32);
  }
  static constexpr std::uint32_t f_mulhsu(std::uint32_t a, std::uint32_t b) {
    const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                           static_cast<std::int64_t>(std::uint64_t(b));
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(p) >> 32);
  }
  static constexpr std::uint32_t f_mulhu(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::uint32_t>((std::uint64_t(a) * std::uint64_t(b)) >> 32);
  }
  static constexpr std::uint32_t f_div(std::uint32_t a, std::uint32_t b) {
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    if (sb == 0) return 0xffffffffu;
    if (sa == INT32_MIN && sb == -1) return static_cast<std::uint32_t>(INT32_MIN);
    return static_cast<std::uint32_t>(sa / sb);
  }
  static constexpr std::uint32_t f_divu(std::uint32_t a, std::uint32_t b) {
    return b == 0 ? 0xffffffffu : a / b;
  }
  static constexpr std::uint32_t f_rem(std::uint32_t a, std::uint32_t b) {
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    if (sb == 0) return a;
    if (sa == INT32_MIN && sb == -1) return 0;
    return static_cast<std::uint32_t>(sa % sb);
  }
  static constexpr std::uint32_t f_remu(std::uint32_t a, std::uint32_t b) {
    return b == 0 ? a : a % b;
  }

  // ---- branch predicates ----
  static constexpr bool p_eq(std::uint32_t a, std::uint32_t b) { return a == b; }
  static constexpr bool p_ne(std::uint32_t a, std::uint32_t b) { return a != b; }
  static constexpr bool p_lt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
  }
  static constexpr bool p_ge(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
  }
  static constexpr bool p_ltu(std::uint32_t a, std::uint32_t b) { return a < b; }
  static constexpr bool p_geu(std::uint32_t a, std::uint32_t b) { return a >= b; }

  // ---- handler templates ----
  //
  // The PLAIN=true instantiations are the taint-liveness-specialized
  // variants: valid only while Core::plain_state() holds (whole shadow plane
  // uniformly ⊥, all register tags ⊥, every clearance admits ⊥-tagged
  // execution), where each tag-related check is statically known to pass and
  // each produced tag is statically known to be ⊥ — so dropping them keeps
  // enforcement throws and monitor records exact (only the flow_checks
  // counter stops ticking for the elided always-allowed checks). Ops that
  // can *introduce* taint (bus loads: tagged peripheral data, DMA side
  // effects) run the full semantics and raise taint_break_ so no later op
  // of the block executes plainly. For the plain instantiation both
  // variants compile to the same code.

  template <std::uint32_t (*F)(std::uint32_t, std::uint32_t), bool PLAIN = false>
  static void h_rr(C& c, const Insn& d) {
    const std::uint32_t v = F(c.rv(d.rs1), c.rv(d.rs2));
    if constexpr (kT && !PLAIN) {
      const Tag t1 = c.rt(d.rs1), t2 = c.rt(d.rs2);
      if ((t1 | t2) == 0)  // untainted fast path: no LUB needed
        c.wr(d.rd, v, dift::kBottomTag);
      else
        c.wr(d.rd, v, dift::lub(t1, t2));
    } else {
      c.wr(d.rd, v, dift::kBottomTag);
    }
  }

  template <std::uint32_t (*F)(std::uint32_t, std::uint32_t), bool PLAIN = false>
  static void h_ri(C& c, const Insn& d) {
    if constexpr (kT && !PLAIN)
      c.wr(d.rd, F(c.rv(d.rs1), static_cast<std::uint32_t>(d.imm)), c.rt(d.rs1));
    else
      c.wr(d.rd, F(c.rv(d.rs1), static_cast<std::uint32_t>(d.imm)),
           dift::kBottomTag);
  }

  template <bool (*P)(std::uint32_t, std::uint32_t), bool PLAIN = false>
  static void h_br(C& c, const Insn& d) {
    const bool taken = P(c.rv(d.rs1), c.rv(d.rs2));
    if constexpr (kT && !PLAIN) {
      const Tag cond = Ops::combine(c.rt(d.rs1), c.rt(d.rs2));
      if (c.exec_.branch)
        dift::check_flow(cond, *c.exec_.branch, ViolationKind::kBranchClearance,
                         c.pc_, 0, "core.branch");
    }
    if (taken) {
      const std::uint32_t target = c.pc_ + static_cast<std::uint32_t>(d.imm);
      if (target & 1) c.take_trap(kCauseInsnMisaligned, target);
      else c.next_pc_ = target;
    }
  }

  template <std::uint32_t SZ, bool SIGN, bool PLAIN = false>
  static void h_load(C& c, const Insn& d) {
    const std::uint32_t addr = c.rv(d.rs1) + static_cast<std::uint32_t>(d.imm);
    if constexpr (kT && PLAIN) {
      if (addr >= c.dmi_base_ &&
          std::uint64_t(addr) - c.dmi_base_ + SZ <= c.dmi_size_) {
        // DMI fast path: the plane is uniformly ⊥ (plain-state invariant),
        // so the result tag is ⊥ and the summary hit is unconditional —
        // the counter stays in lockstep with the tainted variant.
        const std::uint64_t off = addr - c.dmi_base_;
        std::uint32_t value = 0;
        for (std::uint32_t i = 0; i < SZ; ++i)
          value |= std::uint32_t(c.dmi_data_[off + i]) << (8 * i);
        ++c.stats_.load_summary_hits;
        if constexpr (SIGN) {
          if constexpr (SZ == 1)
            value = static_cast<std::uint32_t>(static_cast<std::int8_t>(value));
          else if constexpr (SZ == 2)
            value = static_cast<std::uint32_t>(static_cast<std::int16_t>(value));
        }
        c.wr(d.rd, value, dift::kBottomTag);
        return;
      }
      // Bus/MMIO load: full tag semantics (the device may hand back tagged
      // data, or DMA behind our back) and promotion before the next op.
      const auto m = c.load(addr, SZ, SIGN);
      if (m.fault) {
        c.take_trap(kCauseLoadAccessFault, addr);
        return;
      }
      c.wr(d.rd, m.value, m.tag);
      if (m.tag != dift::kBottomTag || (c.shadow_ && !c.shadow_->all_bottom()))
        c.taint_break_ = true;
      return;
    } else {
      if constexpr (kT) {
        if (c.exec_.mem_addr)
          dift::check_flow(c.rt(d.rs1), *c.exec_.mem_addr,
                           ViolationKind::kMemAddrClearance, c.pc_, addr,
                           "core.lsu");
      }
      const auto m = c.load(addr, SZ, SIGN);
      if (m.fault) c.take_trap(kCauseLoadAccessFault, addr);
      else c.wr(d.rd, m.value, m.tag);
    }
  }

  template <std::uint32_t SZ, bool PLAIN = false>
  static void h_store(C& c, const Insn& d) {
    const std::uint32_t addr = c.rv(d.rs1) + static_cast<std::uint32_t>(d.imm);
    if constexpr (kT && PLAIN) {
      if (addr >= c.dmi_base_ &&
          std::uint64_t(addr) - c.dmi_base_ + SZ <= c.dmi_size_) {
        // DMI fast path: storing ⊥-tagged data over a ⊥ plane leaves both
        // the plane and the summary untouched, and plain_state() verified
        // every store-protection clearance admits ⊥ — no checks needed.
        const std::uint64_t off = addr - c.dmi_base_;
        if (off < c.cur_block_hi_ && off + SZ > c.cur_block_lo_)
          c.smc_break_ = true;
        const std::uint32_t value = c.rv(d.rs2);
        for (std::uint32_t i = 0; i < SZ; ++i)
          c.dmi_data_[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
        return;
      }
      // MMIO store: full path (peripheral clearances, smc_break_).
      if (c.store(addr, c.rv(d.rs2), dift::kBottomTag, SZ))
        c.take_trap(kCauseStoreAccessFault, addr);
      return;
    } else {
      if constexpr (kT) {
        if (c.exec_.mem_addr)
          dift::check_flow(c.rt(d.rs1), *c.exec_.mem_addr,
                           ViolationKind::kMemAddrClearance, c.pc_, addr,
                           "core.lsu");
      }
      if (c.store(addr, c.rv(d.rs2), c.rt(d.rs2), SZ))
        c.take_trap(kCauseStoreAccessFault, addr);
    }
  }

  static void h_lui(C& c, const Insn& d) {
    c.wr(d.rd, static_cast<std::uint32_t>(d.imm), dift::kBottomTag);
  }
  static void h_auipc(C& c, const Insn& d) {
    c.wr(d.rd, c.pc_ + static_cast<std::uint32_t>(d.imm), dift::kBottomTag);
  }
  static void h_jal(C& c, const Insn& d) {
    const std::uint32_t target = c.pc_ + static_cast<std::uint32_t>(d.imm);
    if (target & 1) { c.take_trap(kCauseInsnMisaligned, target); return; }
    c.wr(d.rd, c.pc_ + d.len, dift::kBottomTag);
    c.next_pc_ = target;
  }
  static void h_jalr(C& c, const Insn& d) {
    const std::uint32_t target =
        (c.rv(d.rs1) + static_cast<std::uint32_t>(d.imm)) & ~1u;
    if constexpr (kT) {
      // Indirect jump: the target address acts as the "branch condition".
      if (c.exec_.branch)
        dift::check_flow(c.rt(d.rs1), *c.exec_.branch, ViolationKind::kBranchClearance,
                         c.pc_, target, "core.jalr");
    }
    if (target & 1) { c.take_trap(kCauseInsnMisaligned, target); return; }
    c.wr(d.rd, c.pc_ + d.len, dift::kBottomTag);
    c.next_pc_ = target;
  }
  static void h_fence(C&, const Insn&) {}  // single hart, loosely timed: no-op
  static void h_ecall(C& c, const Insn&) { c.take_trap(kCauseEcallM, 0); }
  static void h_ebreak(C& c, const Insn&) { c.take_trap(kCauseBreakpoint, c.pc_); }
  static void h_csr(C& c, const Insn& d) { c.do_csr(d); }
  static void h_mret(C& c, const Insn&) {
    auto& s = c.csrs_;
    std::uint32_t m = s.mstatus.value;
    const bool mpie = (m & kMstatusMpie) != 0;
    m &= ~kMstatusMie;
    if (mpie) m |= kMstatusMie;
    m |= kMstatusMpie;
    s.mstatus.value = m;
    if constexpr (kT) {
      if (c.exec_.branch)
        dift::check_flow(s.mepc.tag, *c.exec_.branch, ViolationKind::kBranchClearance,
                         c.pc_, s.mepc.value, "core.mret");
    }
    c.next_pc_ = s.mepc.value;
  }
  static void h_wfi(C& c, const Insn&) {
    if ((c.csrs_.mip & c.csrs_.mie) == 0) c.wfi_ = true;
  }
  static void h_illegal(C& c, const Insn& d) { c.take_trap(kCauseIllegalInsn, d.raw); }

  // ---- dispatch table, indexed by Op ----
  //
  // Terminators (jal/jalr/mret/csr/fence/ecall/ebreak/wfi/illegal) keep the
  // full handler in the fast slot: they run at most once per block, and
  // their tag checks (mepc/mtvec tags, CSR tag propagation into rd) depend
  // on CSR state the plain-state gate does not track.
  static constexpr std::array<OpInfo, kNumOps> make_table() {
    std::array<OpInfo, kNumOps> t{};
    for (auto& e : t) e = {&h_illegal, &h_illegal, false, false, true};
    // The terminator flag is derived from rv::is_block_terminator so the
    // block builder and the static analyzer's window replication can never
    // disagree about where a translated block ends.
    auto set = [&](Op op, Fn fn, Fn fast, bool mem, bool cf = false) {
      t[static_cast<std::size_t>(op)] = {fn, fast, mem, cf,
                                         is_block_terminator(op)};
    };
    auto set1 = [&](Op op, Fn fn, bool mem) { set(op, fn, fn, mem); };
    set1(Op::kLui, &h_lui, false);
    set1(Op::kAuipc, &h_auipc, false);
    set1(Op::kJal, &h_jal, false);
    set1(Op::kJalr, &h_jalr, false);
    set(Op::kBeq, &h_br<&p_eq>, &h_br<&p_eq, true>, false, true);
    set(Op::kBne, &h_br<&p_ne>, &h_br<&p_ne, true>, false, true);
    set(Op::kBlt, &h_br<&p_lt>, &h_br<&p_lt, true>, false, true);
    set(Op::kBge, &h_br<&p_ge>, &h_br<&p_ge, true>, false, true);
    set(Op::kBltu, &h_br<&p_ltu>, &h_br<&p_ltu, true>, false, true);
    set(Op::kBgeu, &h_br<&p_geu>, &h_br<&p_geu, true>, false, true);
    set(Op::kLb, &h_load<1, true>, &h_load<1, true, true>, true);
    set(Op::kLh, &h_load<2, true>, &h_load<2, true, true>, true);
    set(Op::kLw, &h_load<4, false>, &h_load<4, false, true>, true);
    set(Op::kLbu, &h_load<1, false>, &h_load<1, false, true>, true);
    set(Op::kLhu, &h_load<2, false>, &h_load<2, false, true>, true);
    set(Op::kSb, &h_store<1>, &h_store<1, true>, true);
    set(Op::kSh, &h_store<2>, &h_store<2, true>, true);
    set(Op::kSw, &h_store<4>, &h_store<4, true>, true);
    set(Op::kAddi, &h_ri<&f_add>, &h_ri<&f_add, true>, false);
    set(Op::kSlti, &h_ri<&f_slt>, &h_ri<&f_slt, true>, false);
    set(Op::kSltiu, &h_ri<&f_sltu>, &h_ri<&f_sltu, true>, false);
    set(Op::kXori, &h_ri<&f_xor>, &h_ri<&f_xor, true>, false);
    set(Op::kOri, &h_ri<&f_or>, &h_ri<&f_or, true>, false);
    set(Op::kAndi, &h_ri<&f_and>, &h_ri<&f_and, true>, false);
    set(Op::kSlli, &h_ri<&f_sll>, &h_ri<&f_sll, true>, false);
    set(Op::kSrli, &h_ri<&f_srl>, &h_ri<&f_srl, true>, false);
    set(Op::kSrai, &h_ri<&f_sra>, &h_ri<&f_sra, true>, false);
    set(Op::kAdd, &h_rr<&f_add>, &h_rr<&f_add, true>, false);
    set(Op::kSub, &h_rr<&f_sub>, &h_rr<&f_sub, true>, false);
    set(Op::kSll, &h_rr<&f_sll>, &h_rr<&f_sll, true>, false);
    set(Op::kSlt, &h_rr<&f_slt>, &h_rr<&f_slt, true>, false);
    set(Op::kSltu, &h_rr<&f_sltu>, &h_rr<&f_sltu, true>, false);
    set(Op::kXor, &h_rr<&f_xor>, &h_rr<&f_xor, true>, false);
    set(Op::kSrl, &h_rr<&f_srl>, &h_rr<&f_srl, true>, false);
    set(Op::kSra, &h_rr<&f_sra>, &h_rr<&f_sra, true>, false);
    set(Op::kOr, &h_rr<&f_or>, &h_rr<&f_or, true>, false);
    set(Op::kAnd, &h_rr<&f_and>, &h_rr<&f_and, true>, false);
    set1(Op::kFence, &h_fence, false);
    set1(Op::kEcall, &h_ecall, false);
    set1(Op::kEbreak, &h_ebreak, false);
    set(Op::kMul, &h_rr<&f_mul>, &h_rr<&f_mul, true>, false);
    set(Op::kMulh, &h_rr<&f_mulh>, &h_rr<&f_mulh, true>, false);
    set(Op::kMulhsu, &h_rr<&f_mulhsu>, &h_rr<&f_mulhsu, true>, false);
    set(Op::kMulhu, &h_rr<&f_mulhu>, &h_rr<&f_mulhu, true>, false);
    set(Op::kDiv, &h_rr<&f_div>, &h_rr<&f_div, true>, false);
    set(Op::kDivu, &h_rr<&f_divu>, &h_rr<&f_divu, true>, false);
    set(Op::kRem, &h_rr<&f_rem>, &h_rr<&f_rem, true>, false);
    set(Op::kRemu, &h_rr<&f_remu>, &h_rr<&f_remu, true>, false);
    set1(Op::kCsrrw, &h_csr, false);
    set1(Op::kCsrrs, &h_csr, false);
    set1(Op::kCsrrc, &h_csr, false);
    set1(Op::kCsrrwi, &h_csr, false);
    set1(Op::kCsrrsi, &h_csr, false);
    set1(Op::kCsrrci, &h_csr, false);
    set1(Op::kMret, &h_mret, false);
    set1(Op::kWfi, &h_wfi, false);
    return t;
  }
  static constexpr std::array<OpInfo, kNumOps> kTable = make_table();

  static const OpInfo& entry(Op op) { return kTable[static_cast<std::size_t>(op)]; }
};

template <typename W>
Core<W>::Core(std::string name) : name_(std::move(name)) {}

template <typename W>
void Core<W>::set_dmi(std::uint8_t* data, Tag* tags, std::uint64_t base,
                      std::uint64_t size, dift::ShadowSummary* shadow) {
  dmi_data_ = data;
  dmi_tags_ = tags;
  dmi_base_ = base;
  dmi_size_ = size;
  shadow_ = shadow;
  invalidate_blocks();
}

template <typename W>
void Core<W>::wipe_fetch_memos() {
  for (auto& up : blocks_) {
    if (!up) continue;
    up->fetch_memo = false;
    up->fetch_gen = ~std::uint64_t{0};
    up->fetch_flow = nullptr;
  }
}

template <typename W>
void Core<W>::set_policy(const dift::SecurityPolicy* policy) {
  policy_ = policy;
  exec_ = policy ? policy->execution_clearance() : dift::ExecutionClearance{};
  has_store_prot_ = policy && !policy->store_protection().empty();
  // Translations themselves are policy-independent (handler pointers are
  // fixed per instantiation); only the per-block fetch memos and the
  // plain-state clearance memo bind to a policy's flow table. Wiping those
  // instead of the whole cache keeps warm translations valid across a
  // campaign re-arm (reset + load_firmware + apply_policy) and closes the
  // pointer-reuse ABA a new lattice allocated at a freed table's address
  // would otherwise open.
  wipe_fetch_memos();
  plain_ok_valid_ = false;
}

template <typename W>
void Core<W>::reset(std::uint32_t reset_pc, bool keep_translations) {
  regs_.fill(W{});
  csrs_ = CsrFile{};
  pc_ = reset_pc;
  next_pc_ = reset_pc;
  instret_ = 0;
  wfi_ = false;
  fatal_trap_ = false;
  reg_tag_or_ = dift::kBottomTag;
  taint_break_ = false;
  if (keep_translations) {
    wipe_fetch_memos();
    cur_block_lo_ = cur_block_hi_ = 0;
    smc_break_ = false;
  } else {
    invalidate_blocks();
  }
}

template <typename W>
void Core<W>::set_irq(std::uint32_t bit, bool level) {
  if (level)
    csrs_.mip |= bit;
  else
    csrs_.mip &= ~bit;
}

template <typename W>
auto Core<W>::load(std::uint32_t addr, std::uint32_t size, bool sign_extend)
    -> MemAccess {
  std::uint32_t value = 0;
  Tag tag = dift::kBottomTag;
  if (addr >= dmi_base_ && std::uint64_t(addr) - dmi_base_ + size <= dmi_size_) {
    const std::uint64_t off = addr - dmi_base_;
    for (std::uint32_t i = 0; i < size; ++i)
      value |= std::uint32_t(dmi_data_[off + i]) << (8 * i);
    if constexpr (kTainted) {
      if (shadow_ && shadow_->uniform(off, size, &tag)) {
        ++stats_.load_summary_hits;
      } else {
        tag = dmi_tags_[off];
        for (std::uint32_t i = 1; i < size; ++i)
          tag = dift::lub(tag, dmi_tags_[off + i]);
      }
    }
  } else {
    std::uint8_t buf[4] = {};
    Tag tbuf[4] = {};
    tlmlite::Payload p;
    p.command = tlmlite::Command::kRead;
    p.address = addr;
    p.data = buf;
    p.tags = kTainted ? tbuf : nullptr;
    p.length = size;
    sysc::Time delay;
    transport_with_pc(p, delay);
    if (!p.ok()) return {0, dift::kBottomTag, true};
    for (std::uint32_t i = 0; i < size; ++i) value |= std::uint32_t(buf[i]) << (8 * i);
    if constexpr (kTainted) {
      if (p.tags_uniform()) {
        tag = static_cast<Tag>(p.tag_summary);
        ++stats_.load_summary_hits;
      } else {
        tag = tbuf[0];
        for (std::uint32_t i = 1; i < size; ++i) tag = dift::lub(tag, tbuf[i]);
      }
    }
  }
  if (sign_extend) {
    if (size == 1) value = static_cast<std::uint32_t>(static_cast<std::int8_t>(value));
    else if (size == 2)
      value = static_cast<std::uint32_t>(static_cast<std::int16_t>(value));
  }
  return {value, tag, false};
}

template <typename W>
bool Core<W>::store(std::uint32_t addr, std::uint32_t value, Tag tag,
                    std::uint32_t size) {
  if constexpr (kTainted) {
    if (has_store_prot_) {
      if (auto clearance = policy_->store_clearance_at(addr))
        dift::check_flow(tag, *clearance, ViolationKind::kStoreClearance, pc_, addr,
                         "core.store");
    }
  }
  if (addr >= dmi_base_ && std::uint64_t(addr) - dmi_base_ + size <= dmi_size_) {
    const std::uint64_t off = addr - dmi_base_;
    // Forward store into the remainder of the executing block: the dispatch
    // loop must abandon its stale micro-ops and re-translate.
    if (off < cur_block_hi_ && off + size > cur_block_lo_) smc_break_ = true;
    for (std::uint32_t i = 0; i < size; ++i)
      dmi_data_[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
    if constexpr (kTainted) {
      for (std::uint32_t i = 0; i < size; ++i) dmi_tags_[off + i] = tag;
      if (shadow_) shadow_->on_store(off, size, tag);
    }
    return false;
  }
  std::uint8_t buf[4];
  Tag tbuf[4];
  for (std::uint32_t i = 0; i < size; ++i) {
    buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    tbuf[i] = tag;
  }
  tlmlite::Payload p;
  p.command = tlmlite::Command::kWrite;
  p.address = addr;
  p.data = buf;
  p.tags = kTainted ? tbuf : nullptr;
  p.length = size;
  p.set_tag_summary(tag);  // tbuf was filled uniformly above
  sysc::Time delay;
  transport_with_pc(p, delay);
  // A peripheral register write may have side effects on code memory (e.g.
  // starting a DMA transfer into RAM); end the current block conservatively.
  smc_break_ = true;
  return !p.ok();
}

template <typename W>
void Core<W>::transport_with_pc(tlmlite::Payload& p, sysc::Time& delay) {
  if constexpr (!kTainted) {
    bus_.b_transport(p, delay);
  } else {
    // Peripherals raise clearance violations without knowing the program
    // counter; publish it as a hint (used by monitor-mode records) and
    // re-throw enforcement violations with the faulting pc attached.
    dift::set_pc_hint(pc_);
    try {
      bus_.b_transport(p, delay);
    } catch (const dift::PolicyViolation& v) {
      if (v.pc() != 0) throw;
      throw dift::PolicyViolation(v.kind(), v.source(), v.required(), pc_,
                                  v.address() ? v.address() : p.address,
                                  v.where());
    }
  }
}

template <typename W>
auto Core<W>::fetch32(std::uint32_t addr) -> MemAccess {
  if (addr >= dmi_base_ && std::uint64_t(addr) - dmi_base_ + 4 <= dmi_size_) {
    const std::uint64_t off = addr - dmi_base_;
    std::uint32_t value;
    std::memcpy(&value, dmi_data_ + off, 4);  // host is little-endian
    Tag tag = dift::kBottomTag;
    if constexpr (kTainted) {
      if (shadow_ && shadow_->uniform(off, 4, &tag)) {
        ++stats_.fetch_summary_hits;  // fetch-path attribution
      } else {
        tag = dmi_tags_[off];
        for (std::uint32_t i = 1; i < 4; ++i)
          tag = dift::lub(tag, dmi_tags_[off + i]);
      }
    }
    return {value, tag, false};
  }
  return load(addr, 4, false);
}

template <typename W>
void Core<W>::take_trap(std::uint32_t cause, std::uint32_t tval) {
  trapped_ = true;
  auto& s = csrs_;
  std::uint32_t m = s.mstatus.value;
  const bool mie = (m & kMstatusMie) != 0;
  m &= ~(kMstatusMie | kMstatusMpie);
  if (mie) m |= kMstatusMpie;
  m |= kMstatusMpp;  // previous privilege: machine
  s.mstatus.value = m;
  s.mepc = {pc_, dift::kBottomTag};
  s.mcause = {cause, dift::kBottomTag};
  s.mtval = {tval, dift::kBottomTag};
  // No trap vector installed: the machine is wedged (pc 0 faults forever).
  // Latch it so the VP can end the run with a defined reason instead of
  // spinning to its simulated-time budget.
  if ((s.mtvec.value & ~3u) == 0) fatal_trap_ = true;
  if constexpr (kTainted) {
    if (exec_.branch)
      dift::check_flow(s.mtvec.tag, *exec_.branch, ViolationKind::kBranchClearance,
                       pc_, s.mtvec.value, "core.trap-vector");
  }
  next_pc_ = s.mtvec.value & ~3u;
}

template <typename W>
void Core<W>::check_interrupts() {
  const std::uint32_t pending = csrs_.mip & csrs_.mie;
  if (pending == 0) return;
  wfi_ = false;
  if (!(csrs_.mstatus.value & kMstatusMie)) return;
  std::uint32_t cause;
  if (pending & kIrqMext) cause = 11;
  else if (pending & kIrqMsoft) cause = 3;
  else cause = 7;
  take_trap(kIrqBit | cause, 0);
  pc_ = next_pc_;
}

template <typename W>
void Core<W>::do_csr(const Insn& d) {
  const auto csrnum = static_cast<std::uint32_t>(d.imm) & 0xfff;
  if (!csrs_.exists(csrnum)) {
    take_trap(kCauseIllegalInsn, d.raw);
    return;
  }
  const bool imm_form =
      d.op == Op::kCsrrwi || d.op == Op::kCsrrsi || d.op == Op::kCsrrci;
  const std::uint32_t src_v = imm_form ? d.rs1 : rv(d.rs1);
  const Tag src_t = imm_form ? dift::kBottomTag : rt(d.rs1);

  const bool is_write_form = d.op == Op::kCsrrw || d.op == Op::kCsrrwi;
  // csrrs/csrrc with rs1=x0 (or zimm=0) do not write.
  const bool writes = is_write_form || d.rs1 != 0;

  if (writes && ((csrnum >> 10) & 3) == 3) {  // read-only CSR space
    take_trap(kCauseIllegalInsn, d.raw);
    return;
  }

  const CsrValue old = csrs_.read(csrnum, instret_, instret_,
                                  time_us_ ? time_us_() : 0);
  if (writes) {
    std::uint32_t nv;
    Tag nt;
    if (is_write_form) {
      nv = src_v;
      nt = src_t;
    } else if (d.op == Op::kCsrrs || d.op == Op::kCsrrsi) {
      nv = old.value | src_v;
      nt = combine(old.tag, src_t);
    } else {
      nv = old.value & ~src_v;
      nt = combine(old.tag, src_t);
    }
    csrs_.write(csrnum, {nv, nt});
  }
  wr(d.rd, old.value, old.tag);
}

template <typename W>
void Core<W>::execute(const Insn& d) {
  CoreOps<W>::entry(d.op).fn(*this, d);
}

// ---------------------------------------------------------------------------
// Block translation engine.
// ---------------------------------------------------------------------------

namespace {

// Byte-exact revalidation of a cached block against the current code bytes —
// memcmp semantics, but inlined word-wise: block entry is the hottest edge in
// the ISS and the libc call overhead is measurable on 2-4 op blocks.
inline bool raw_match(const std::uint8_t* mem, const std::uint8_t* snap,
                      std::uint32_t len) {
  std::uint32_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, mem + i, 8);
    std::memcpy(&b, snap + i, 8);
    if (a != b) return false;
  }
  for (; i < len; ++i)
    if (mem[i] != snap[i]) return false;
  return true;
}

}  // namespace

template <typename W>
void Core<W>::build_into(Block& b, std::uint64_t off) {
  b.start_off = off;
  b.chain = nullptr;
  b.chain_off = ~std::uint64_t{0};
  b.fetch_memo = false;
  b.ops.clear();
  std::uint64_t cur = off;
  // A full 32-bit parcel must be readable even for a 16-bit instruction
  // (mirroring the old fast-path condition); pcs in the last 2 bytes of the
  // window fall back to the slow path.
  while (b.ops.size() < kMaxBlockOps && cur + 4 <= dmi_size_) {
    std::uint32_t raw;
    std::memcpy(&raw, dmi_data_ + cur, 4);  // host is little-endian
    const Insn insn = decode_any(raw);
    const auto& e = CoreOps<W>::entry(insn.op);
    b.ops.push_back(MicroOp{insn, e.fn, e.fast, e.mem, e.cf});
    cur += insn.len;
    ++stats_.decode_misses;
    if (e.terminator) break;
  }
  b.byte_len = static_cast<std::uint32_t>(cur - off);
  b.raw.assign(dmi_data_ + off, dmi_data_ + cur);
}

template <typename W>
auto Core<W>::lookup_block(std::uint64_t off, bool& fresh) -> Block* {
  const auto slot = static_cast<std::size_t>(off >> 1);
  if (slot >= blocks_.size()) {
    // Lazily size the cache to the DMI window: geometric growth, one slot
    // per halfword at most. Block objects are heap-allocated, so chain
    // pointers survive the resize.
    const auto cap = static_cast<std::size_t>(dmi_size_ / 2);
    std::size_t want = blocks_.empty() ? std::size_t{4096} : blocks_.size();
    while (want <= slot) want *= 2;
    blocks_.resize(std::min(want, cap));
    if (slot >= blocks_.size()) return nullptr;  // beyond the DMI window
  }
  auto& up = blocks_[slot];
  if (!up) {
    up = std::make_unique<Block>();
    build_into(*up, off);
    ++stats_.block_misses;
    fresh = true;
    return up.get();
  }
  Block* b = up.get();
  if (raw_match(dmi_data_ + off, b->raw.data(), b->byte_len)) {
    ++stats_.block_hits;
    fresh = false;
    return b;
  }
  build_into(*b, off);  // self-modified: re-translate in place
  ++stats_.block_invalidations;
  fresh = true;
  return b;
}

// ---------------------------------------------------------------------------
// Taint-liveness gate.
// ---------------------------------------------------------------------------

template <typename W>
bool Core<W>::plain_clearances_ok() {
  // Memoised against the active flow table: does every execution clearance
  // and store protection admit ⊥-tagged execution? Evaluated with the
  // non-counting peek so gate queries never perturb the flow_checks ledger
  // (elided checks are exactly the always-allowed ones, so enforcement and
  // monitor records are unchanged). set_policy() invalidates the memo.
  const std::uint8_t* flow = dift::detail::g_active.flow;
  if (!plain_ok_valid_ || plain_ok_flow_ != flow) {
    bool ok = true;
    if (exec_.fetch) ok = ok && dift::allowed_flow_peek(dift::kBottomTag, *exec_.fetch);
    if (exec_.branch) ok = ok && dift::allowed_flow_peek(dift::kBottomTag, *exec_.branch);
    if (exec_.mem_addr)
      ok = ok && dift::allowed_flow_peek(dift::kBottomTag, *exec_.mem_addr);
    if (policy_) {
      for (const auto& mc : policy_->store_protection())
        ok = ok && dift::allowed_flow_peek(dift::kBottomTag, mc.tag);
    }
    plain_ok_ = ok;
    plain_ok_flow_ = flow;
    plain_ok_valid_ = true;
  }
  return plain_ok_;
}

template <typename W>
bool Core<W>::plain_state() {
  // Pure function of architectural state (the sticky reg_tag_or_ bit is
  // re-verified by a full register rescan before it can disable the plain
  // path), so warm/cold caches, snapshot forks and replays all make the
  // same per-dispatch variant decision.
  if constexpr (!kTainted) {
    return false;  // plain core: no variant split, fn is already tag-free
  } else {
    if (trace_) return false;  // careful path owns trace-attached runs
    if (!shadow_ || !shadow_->all_bottom()) return false;
    if (reg_tag_or_ != dift::kBottomTag) {
      Tag t = dift::kBottomTag;
      for (const auto& r : regs_) t = static_cast<Tag>(t | Ops::tag(r));
      if (t != dift::kBottomTag) return false;
      reg_tag_or_ = dift::kBottomTag;
    }
    return plain_clearances_ok();
  }
}

template <typename W>
std::uint64_t Core<W>::exec_block(Block& b, std::uint64_t budget, bool fresh,
                                  bool plain) {
  if constexpr (kTainted) {
    if (plain) {
      // Plain variant: plain_state() proved the whole plane ⊥ and every
      // clearance admits ⊥-tagged execution, so the block is cleared for
      // fetch by construction (span uniformly ⊥) and the fetch memo is
      // neither consulted nor established. Handlers run with zero tag
      // work; a bus load that introduces taint raises taint_break_ so the
      // next op re-dispatches on the tainted variant.
      const auto np = static_cast<std::size_t>(
          std::min<std::uint64_t>(b.ops.size(), budget));
      cur_block_lo_ = b.start_off;
      cur_block_hi_ = b.start_off + b.byte_len;
      smc_break_ = false;
      taint_break_ = false;
      const MicroOp* pops = b.ops.data();
      std::uint64_t pdone = 0;
      try {
        while (pdone < np) {
          const MicroOp& op = pops[pdone];
          const std::uint32_t seq = pc_ + op.insn.len;
          next_pc_ = seq;
          trapped_ = false;
          op.fast(*this, op.insn);
          pc_ = next_pc_;
          ++instret_;
          ++pdone;
          if (trapped_) break;
          if (op.cf && pc_ != seq) break;  // taken branch left the block
          if (op.mem && ((csrs_.mip & csrs_.mie) != 0 || smc_break_ ||
                         taint_break_))
            break;
        }
        if (!fresh) stats_.decode_hits += pdone;
        if (exec_.fetch) stats_.fetch_summary_hits += pdone;
      } catch (...) {
        if (!fresh) stats_.decode_hits += pdone + 1;
        if (exec_.fetch) stats_.fetch_summary_hits += pdone + 1;
        cur_block_lo_ = cur_block_hi_ = 0;
        throw;
      }
      cur_block_lo_ = cur_block_hi_ = 0;
      return pdone;
    }
  } else {
    (void)plain;  // the plain instantiation has no variant split
  }

  // One fetch-clearance check covering the whole block span (the old
  // per-instruction memo generalized): if the span is uniformly tagged and
  // the flow is allowed, memoise and skip per-instruction checks entirely.
  bool cleared = true;
  if constexpr (kTainted) {
    if (exec_.fetch) {
      cleared = false;
      if (b.fetch_memo && shadow_ && b.fetch_gen == shadow_->generation() &&
          b.fetch_flow == dift::detail::g_active.flow &&
          b.fetch_clearance == *exec_.fetch) {
        cleared = true;
      } else {
        Tag tag = dift::kBottomTag;
        if (shadow_ && shadow_->uniform(b.start_off, b.byte_len, &tag) &&
            dift::allowed_flow(tag, *exec_.fetch)) {
          b.fetch_memo = true;
          b.fetch_gen = shadow_->generation();
          b.fetch_flow = dift::detail::g_active.flow;
          b.fetch_clearance = *exec_.fetch;
          cleared = true;
        }
      }
    }
  }

  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(b.ops.size(), budget));
  cur_block_lo_ = b.start_off;
  cur_block_hi_ = b.start_off + b.byte_len;
  smc_break_ = false;
  const MicroOp* ops = b.ops.data();
  std::uint64_t done = 0;

  if (cleared && !trace_) {
    // Fast path: no per-instruction fetch checks, no trace test. Loads and
    // stores can raise interrupts synchronously (CLINT) or modify code, so
    // they re-test the block-exit conditions.
    try {
      while (done < n) {
        const MicroOp& op = ops[done];
        const std::uint32_t seq = pc_ + op.insn.len;
        next_pc_ = seq;
        trapped_ = false;
        op.fn(*this, op.insn);
        pc_ = next_pc_;
        ++instret_;
        ++done;
        if (trapped_) break;
        if (op.cf && pc_ != seq) break;  // taken branch left the block
        if (op.mem && ((csrs_.mip & csrs_.mie) != 0 || smc_break_)) break;
      }
      if (!fresh) stats_.decode_hits += done;
      if constexpr (kTainted) {
        if (exec_.fetch) stats_.fetch_summary_hits += done;
      }
    } catch (...) {
      // Enforcement violation inside a handler: the instruction was fetched
      // and decoded but did not retire — count it like the per-insn engine.
      if (!fresh) stats_.decode_hits += done + 1;
      if constexpr (kTainted) {
        if (exec_.fetch) stats_.fetch_summary_hits += done + 1;
      }
      cur_block_lo_ = cur_block_hi_ = 0;
      throw;
    }
  } else {
    // Careful path: trace attached, or the block span is not uniformly
    // cleared for fetch — fall back to exact per-instruction checks so
    // violation pcs and monitor-mode records match single-step execution.
    try {
      while (done < n) {
        const MicroOp& op = ops[done];
        if (!fresh) ++stats_.decode_hits;
        if constexpr (kTainted) {
          if (exec_.fetch) {
            if (cleared) {
              ++stats_.fetch_summary_hits;
            } else {
              const std::uint64_t off = std::uint64_t(pc_) - dmi_base_;
              const std::uint64_t blk = off >> dift::ShadowSummary::kBlockShift;
              const bool one_block =
                  ((off + op.insn.len - 1) >> dift::ShadowSummary::kBlockShift) == blk;
              Tag tag = dift::kBottomTag;
              const bool uniform =
                  shadow_ && one_block && shadow_->uniform(off, op.insn.len, &tag);
              if (!uniform) {
                tag = dmi_tags_[off];
                for (std::uint32_t i = 1; i < op.insn.len; ++i)
                  tag = dift::lub(tag, dmi_tags_[off + i]);
              }
              if (uniform && dift::allowed_flow(tag, *exec_.fetch)) {
                ++stats_.fetch_summary_hits;
              } else {
                dift::check_flow(tag, *exec_.fetch, ViolationKind::kFetchClearance,
                                 pc_, pc_, "core.fetch");
              }
            }
          }
        }
        const std::uint32_t seq = pc_ + op.insn.len;
        next_pc_ = seq;
        trapped_ = false;
        op.fn(*this, op.insn);
        if (trace_) {
          // A trapping instruction never wrote rd; record x0 (0, untainted)
          // instead of the stale pre-trap register contents.
          const std::uint8_t rd = trapped_ ? 0 : op.insn.rd;
          trace_->push({instret_, pc_, op.insn.raw, rd, Ops::value(regs_[rd]),
                        Ops::tag(regs_[rd])});
        }
        pc_ = next_pc_;
        ++instret_;
        ++done;
        if (trapped_) break;
        if (op.cf && pc_ != seq) break;  // taken branch left the block
        if (op.mem && ((csrs_.mip & csrs_.mie) != 0 || smc_break_)) break;
      }
    } catch (...) {
      cur_block_lo_ = cur_block_hi_ = 0;
      throw;
    }
  }
  cur_block_lo_ = cur_block_hi_ = 0;
  return done;
}

template <typename W>
void Core<W>::step_slow() {
  // Slow path (XIP flash etc.): read one parcel over the bus, extend to 32
  // bits when it is an uncompressed instruction.
  next_pc_ = pc_ + 4;
  MemAccess f = load(pc_, 2, false);
  if (!f.fault && (f.value & 3) == 3) {
    const MemAccess hi = load(pc_ + 2, 2, false);
    if (hi.fault) {
      f.fault = true;
    } else {
      f.value |= hi.value << 16;
      f.tag = Ops::combine(f.tag, hi.tag);
    }
  }
  if (f.fault) {
    take_trap(kCauseInsnAccessFault, pc_);
  } else {
    if constexpr (kTainted) {
      if (exec_.fetch)
        dift::check_flow(f.tag, *exec_.fetch, ViolationKind::kFetchClearance,
                         pc_, pc_, "core.fetch");
    }
    const Insn d = decode_any(f.value);
    next_pc_ = pc_ + d.len;
    trapped_ = false;
    execute(d);
    if (trace_) {
      const std::uint8_t rd = trapped_ ? 0 : d.rd;
      trace_->push({instret_, pc_, d.raw, rd, Ops::value(regs_[rd]),
                    Ops::tag(regs_[rd])});
    }
  }
  pc_ = next_pc_;
  ++instret_;
}

template <typename W>
RunExit Core<W>::run(std::uint64_t max_instructions) {
  std::uint64_t executed = 0;
  Block* prev = nullptr;  // last block that ran to completion (chain source)
  while (executed < max_instructions) {
    // Armed injected fault (arm_fault()): fire once the retirement counter
    // reaches the trigger. This sits at the block-boundary check point the
    // per-instruction hot loop already funnels through, so the test costs
    // one predictable branch per block entry.
    if (fault_armed_ && instret_ >= fault_at_) {
      fault_armed_ = false;
      auto fn = std::move(fault_fn_);
      fault_fn_ = nullptr;
      prev = nullptr;  // the mutation may have redirected control flow
      if (fn) fn(*this);
    }
    // One interrupt-pending test per block entry. Mid-block, mip can only
    // change through a load/store (CLINT et al.), and memory micro-ops end
    // the block when an enabled interrupt became pending — so the trap is
    // taken at the same instruction boundary as with per-insn checking.
    if (csrs_.mip & csrs_.mie) check_interrupts();
    if (wfi_) return RunExit::kWfi;

    if (pc_ & 1) {
      next_pc_ = pc_ + 4;
      take_trap(kCauseInsnMisaligned, pc_);
      pc_ = next_pc_;
      ++instret_;
      ++executed;
      prev = nullptr;
      continue;
    }
    if (pc_ >= dmi_base_ && std::uint64_t(pc_) - dmi_base_ + 4 <= dmi_size_) {
      const std::uint64_t off = std::uint64_t(pc_) - dmi_base_;
      bool fresh = false;
      Block* b = nullptr;
      if (prev && prev->chain && prev->chain_off == off) {
        // Chained transfer: skip the cache lookup, but still revalidate the
        // raw bytes (self-modifying code) before trusting the micro-ops.
        b = prev->chain;
        if (raw_match(dmi_data_ + off, b->raw.data(), b->byte_len)) {
          ++stats_.chained_transfers;
        } else {
          build_into(*b, off);
          ++stats_.block_invalidations;
          fresh = true;
        }
      }
      if (!b) {
        b = lookup_block(off, fresh);
        if (b && prev) {
          prev->chain = b;
          prev->chain_off = off;
        }
      }
      if (b) {
        // Pending-fault clamp: never execute past the trigger point. The
        // holding block runs partially and falls back to the loop top where
        // the fault fires at the exact boundary — a graceful single-step-
        // style degradation of that one block, not a cache invalidation.
        std::uint64_t budget = max_instructions - executed;
        if (fault_armed_ && fault_at_ - instret_ < budget)
          budget = fault_at_ - instret_;
        // Taint-liveness gate: while no taint is live anywhere and every
        // clearance admits ⊥, dispatch the zero-tag-work plain variant.
        const bool plain = plain_state();
        const std::uint64_t done = exec_block(*b, budget, fresh, plain);
        executed += done;
        if constexpr (kTainted) {
          if (plain) {
            ++stats_.plain_variant_hits;
            if (taint_break_) {
              ++stats_.variant_promotions;
              taint_break_ = false;
            }
          } else {
            ++stats_.tainted_variant_hits;
          }
        }
        // The chain is a prediction, not a guarantee — the chain_off match
        // and the raw revalidation on the next entry keep it honest — so any
        // exit (terminator, taken branch, mem break) may install one.
        prev = b;
        continue;
      }
    }
    step_slow();
    ++executed;
    prev = nullptr;
  }
  return RunExit::kQuantumExhausted;
}

template class Core<PlainWord>;
template class Core<TaintedWord>;

}  // namespace vpdift::rv
