// RV32IM machine-mode CPU core, templated on the machine word.
//
// Core<PlainWord> is the original VP's ISS; Core<TaintedWord> is the VP+ with
// the DIFT engine woven in: every register carries a tag, ALU results take
// the LUB of their operand tags, and the three execution-clearance checks of
// the paper (instruction fetch, branch/indirect-jump/trap-vector, memory-
// access address) plus store-clearance protection are enforced. All checks
// compile away completely in the plain instantiation.
//
// Memory is reached through a TLM initiator socket; a DMI (direct memory
// interface) window over the main RAM provides the fast path, exactly like
// riscv-vp. The core is driven in instruction quanta by the VP's CPU thread:
// run(n) executes up to n instructions and returns early on WFI or when the
// simulation must stop.
//
// The hot loop is a basic-block translation cache (see docs/perf.md): code
// in the DMI window is decoded once per straight-line region into micro-ops
// with per-instruction handler function pointers, and per-instruction
// overheads (interrupt-pending test, fetch-clearance check, trace test) are
// hoisted to block boundaries. Blocks revalidate against the raw instruction
// bytes so self-modifying code stays correct.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dift/policy.hpp"
#include "dift/shadow.hpp"
#include "dift/stats.hpp"
#include "rv/csr.hpp"
#include "rv/decode.hpp"
#include "rv/trace.hpp"
#include "rv/word.hpp"
#include "sysc/time.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::rv {

/// Why Core::run() returned before exhausting its quantum.
enum class RunExit : std::uint8_t {
  kQuantumExhausted,
  kWfi,  ///< core executed WFI and no enabled interrupt is pending
};

template <typename W>
struct CoreOps;  // per-instruction handler tables (defined in core.cpp)

template <typename W>
class Core {
 public:
  using Ops = WordOps<W>;
  static constexpr bool kTainted = Ops::kTainted;

  explicit Core(std::string name = "core0");

  // ---- wiring ----

  /// Socket for data/fetch transactions that miss the DMI window.
  tlmlite::InitiatorSocket& bus_socket() { return bus_; }
  /// Direct-memory-interface window over main RAM (`tags` may be null in the
  /// plain build). `shadow` is the optional block-summary layer over `tags`
  /// (see dift/shadow.hpp); when given, the tainted core's load/fetch paths
  /// skip the per-byte LUB loop on uniform blocks.
  void set_dmi(std::uint8_t* data, dift::Tag* tags, std::uint64_t base,
               std::uint64_t size, dift::ShadowSummary* shadow = nullptr);
  /// Installs the security policy (execution clearance + store protection).
  /// Only meaningful for the tainted instantiation.
  void set_policy(const dift::SecurityPolicy* policy);
  /// Source for the `time` CSR, in microseconds of simulated time.
  void set_time_source(std::function<std::uint64_t()> fn) { time_us_ = std::move(fn); }
  /// Attaches an execution trace ring buffer (nullptr detaches). While
  /// attached, blocks execute on the careful (per-instruction) path so the
  /// trace is bit-identical to single-step execution.
  void set_trace(TraceBuffer* trace) { trace_ = trace; }

  // ---- architectural state ----

  std::uint32_t pc() const { return pc_; }
  void set_pc(std::uint32_t pc) { pc_ = pc; }
  W reg(std::uint8_t r) const { return regs_[r]; }
  void set_reg(std::uint8_t r, W v) {
    if (r != 0) {
      regs_[r] = v;
      if constexpr (kTainted)
        reg_tag_or_ = static_cast<dift::Tag>(reg_tag_or_ | Ops::tag(v));
    }
  }
  CsrFile& csrs() { return csrs_; }
  std::uint64_t instret() const { return instret_; }

  /// Raises/clears an interrupt-pending bit (kIrqMsoft/kIrqMtimer/kIrqMext).
  void set_irq(std::uint32_t bit, bool level);
  /// True while the core sleeps in WFI.
  bool in_wfi() const { return wfi_; }
  /// True iff an enabled interrupt is pending (what wakes WFI).
  bool irq_pending() const { return (csrs_.mip & csrs_.mie) != 0; }

  // ---- execution ----

  /// Executes up to `max_instructions`; returns the reason for stopping.
  /// Policy violations (VP+ only) propagate as dift::PolicyViolation.
  RunExit run(std::uint64_t max_instructions);

  /// True once the core trapped with a null trap vector (mtvec == 0): the
  /// machine has no handler and would spin on access faults at pc 0. The VP
  /// polls this after each quantum and halts the run (ExitReason::kTrap)
  /// instead of burning simulated time. Cleared by reset().
  bool fatal_trap() const { return fatal_trap_; }

  /// Fault injection (src/fi): arms a one-shot state-mutation callback that
  /// fires at the first instruction boundary at or after `at_instret`
  /// retired instructions. While armed, the dispatch loop clamps each
  /// block's execution budget to the trigger distance, so a block holding
  /// the trigger point executes partially and stops exactly there — the
  /// cache degrades to a shorter run of the same block instead of being
  /// invalidated (re-entry mid-block translates a fresh block at that pc;
  /// `block_invalidations` is untouched by injection). The callback runs
  /// between instructions with the core architecturally quiescent; tag-plane
  /// mutations must keep the shadow summary coherent themselves. An armed
  /// fault survives reset() (the trigger re-applies against the restarted
  /// retirement counter), which keeps post-watchdog schedules deterministic.
  void arm_fault(std::uint64_t at_instret, std::function<void(Core&)> fn) {
    fault_at_ = at_instret;
    fault_fn_ = std::move(fn);
    fault_armed_ = static_cast<bool>(fault_fn_);
  }
  bool fault_armed() const { return fault_armed_; }
  /// Trigger point of the armed fault (meaningful while fault_armed()).
  std::uint64_t fault_at() const { return fault_at_; }
  /// Drops an armed-but-unfired fault. Snapshot restore calls this so a
  /// forked tail never inherits the parent's pending trigger.
  void disarm_fault() {
    fault_armed_ = false;
    fault_fn_ = nullptr;
  }

  /// Drops every cached block translation (and the current-block bounds).
  /// Required after any RAM mutation that bypasses the store path — e.g.
  /// snapshot restore memcpys new code bytes straight into the DMI window,
  /// so `smc_break_` never fires and chained blocks would keep executing
  /// stale translations.
  void invalidate_blocks() {
    blocks_.clear();
    cur_block_lo_ = cur_block_hi_ = 0;
    smc_break_ = false;
  }

  /// Architectural reset: clears registers, CSRs, pending interrupts, the
  /// WFI state, the block cache, and the retirement counter; pc moves to
  /// `reset_pc`. Wiring (bus, DMI, policy, trace) is preserved.
  /// `keep_translations` keeps the translated blocks (and their chains) warm
  /// — sound only when the DMI code bytes are reloaded with identical
  /// content (campaign re-arm with an unchanged firmware hash): translations
  /// are content-keyed and revalidate against the raw bytes anyway, but the
  /// per-block fetch memos bind to a policy's flow table and are wiped to
  /// avoid pointer-reuse ABA across policies.
  void reset(std::uint32_t reset_pc, bool keep_translations = false);

  /// Checkpoint support: restores the retirement counter and WFI state
  /// (registers/pc/CSRs are restored through their accessors).
  void restore_counters(std::uint64_t instret, bool wfi) {
    instret_ = instret;
    wfi_ = wfi;
  }

  /// Single-step convenience for tests.
  void step() { run(1); }

  /// Cumulative engine counters (block cache, summary fast paths). The VP
  /// snapshots these around run() to report per-run deltas.
  const dift::DiftStats& stats() const { return stats_; }

  /// Result of a data/fetch memory access.
  struct MemAccess {
    std::uint32_t value;
    dift::Tag tag;
    bool fault;
  };

  /// Fetch-path read of one 32-bit parcel. Shadow-summary hits on the DMI
  /// window count as `fetch_summary_hits` (fetch-path attribution), unlike
  /// load(), whose hits count as `load_summary_hits`.
  MemAccess fetch32(std::uint32_t addr);

 private:
  friend struct CoreOps<W>;
  /// Handler signature for one decoded instruction: executes the operation,
  /// leaving `next_pc_` at the successor pc (handlers of control-flow ops
  /// overwrite it). Shared by the block dispatch loop and execute().
  using ExecFn = void (*)(Core&, const Insn&);

  /// One pre-decoded instruction of a translated block.
  ///
  /// Every op carries two resolved handlers: `fn` is the full (tainted)
  /// semantics, `fast` the taint-liveness-specialized plain variant that
  /// skips all tag work — valid only while plain_state() holds (shadow plane
  /// uniformly ⊥, register tags ⊥, every clearance admits ⊥). Terminators
  /// and the plain instantiation alias fast == fn.
  struct MicroOp {
    Insn insn;
    ExecFn fn;
    ExecFn fast;
    bool mem;  ///< load/store: may raise an IRQ or modify code mid-block
    bool cf;   ///< conditional branch: exits the block only when taken
  };

  /// One translated basic block: a run of micro-ops ending at the first
  /// unconditional-control-flow/CSR/fence/WFI terminator (or kMaxBlockOps).
  /// Conditional branches stay inside the block — they fall through to the
  /// next micro-op when not taken and exit the block when taken, which keeps
  /// branch-dense inner loops in one block instead of fragmenting them.
  /// `raw` snapshots the encoded bytes; a byte compare on entry revalidates
  /// against self-modifying code. `chain` caches the successor block reached last time the block ran
  /// to completion. The fetch memo generalizes the old single-shadow-block
  /// memo to the whole block span: while the shadow generation, flow table
  /// and clearance are unchanged, fetching this block is known to be allowed.
  /// Only successful (allowed) checks are memoised, so enforcement throws and
  /// monitor-mode records are never suppressed.
  struct Block {
    std::uint64_t start_off = 0;  ///< DMI offset of the block head
    std::uint32_t byte_len = 0;
    Block* chain = nullptr;
    std::uint64_t chain_off = ~std::uint64_t{0};
    std::uint64_t fetch_gen = ~std::uint64_t{0};
    const std::uint8_t* fetch_flow = nullptr;
    dift::Tag fetch_clearance{};
    bool fetch_memo = false;
    std::vector<MicroOp> ops;
    std::vector<std::uint8_t> raw;
  };

  /// Upper bound on micro-ops per block (straight-line runs longer than this
  /// split into consecutive blocks).
  static constexpr std::size_t kMaxBlockOps = 64;

  void execute(const Insn& d);
  void transport_with_pc(tlmlite::Payload& p, sysc::Time& delay);
  MemAccess load(std::uint32_t addr, std::uint32_t size, bool sign_extend);
  bool store(std::uint32_t addr, std::uint32_t value, dift::Tag tag,
             std::uint32_t size);
  void take_trap(std::uint32_t cause, std::uint32_t tval);
  void check_interrupts();
  void do_csr(const Insn& d);

  Block* lookup_block(std::uint64_t off, bool& fresh);
  void build_into(Block& b, std::uint64_t off);
  std::uint64_t exec_block(Block& b, std::uint64_t budget, bool fresh,
                           bool plain);
  void step_slow();

  // Taint-liveness gate (see docs/perf.md).
  bool plain_state();
  bool plain_clearances_ok();
  void wipe_fetch_memos();

  dift::Tag combine(dift::Tag a, dift::Tag b) { return Ops::combine(a, b); }
  std::uint32_t rv(std::uint8_t r) const { return Ops::value(regs_[r]); }
  dift::Tag rt(std::uint8_t r) const { return Ops::tag(regs_[r]); }
  void wr(std::uint8_t rd, std::uint32_t v, dift::Tag t) {
    if (rd != 0) {
      regs_[rd] = Ops::make(v, t);
      if constexpr (kTainted)
        reg_tag_or_ = static_cast<dift::Tag>(reg_tag_or_ | t);
    }
  }
  void wrw(std::uint8_t rd, W w) {
    if (rd != 0) {
      regs_[rd] = w;
      if constexpr (kTainted)
        reg_tag_or_ = static_cast<dift::Tag>(reg_tag_or_ | Ops::tag(w));
    }
  }

  std::string name_;
  std::array<W, 32> regs_{};
  std::uint32_t pc_ = 0;
  std::uint32_t next_pc_ = 0;
  CsrFile csrs_;
  std::uint64_t instret_ = 0;
  bool wfi_ = false;

  tlmlite::InitiatorSocket bus_;
  std::uint8_t* dmi_data_ = nullptr;
  dift::Tag* dmi_tags_ = nullptr;
  std::uint64_t dmi_base_ = 0;
  std::uint64_t dmi_size_ = 0;
  dift::ShadowSummary* shadow_ = nullptr;

  dift::DiftStats stats_;
  bool trapped_ = false;  ///< execute() took a trap (no rd write happened)
  bool fatal_trap_ = false;  ///< trapped into mtvec == 0 (no handler installed)

  // One-shot injected fault (see arm_fault()).
  bool fault_armed_ = false;
  std::uint64_t fault_at_ = 0;
  std::function<void(Core&)> fault_fn_;

  // Block translation cache over the DMI window, keyed by halfword offset
  // (IALIGN=16 with the C extension) and grown lazily up to one slot per
  // halfword of the window. Block objects live on the heap so chain pointers
  // survive vector growth; invalidated blocks are rebuilt in place.
  std::vector<std::unique_ptr<Block>> blocks_;

  // Bounds (DMI offsets) of the block currently executing, so store() can
  // flag forward stores into the remainder of the block; `smc_break_` makes
  // the dispatch loop leave the block and re-translate at the new pc. Bus
  // (MMIO) stores set the flag unconditionally: a peripheral register write
  // may trigger DMA into code memory.
  std::uint64_t cur_block_lo_ = 0;
  std::uint64_t cur_block_hi_ = 0;
  bool smc_break_ = false;

  // Taint-liveness gate state. `reg_tag_or_` is a sticky OR of every tag
  // written to a register: 0 proves all register tags are ⊥; non-zero is
  // re-verified (and cleared) by a 32-register rescan at the next gate
  // evaluation, so the gate stays a pure function of architectural state.
  // `taint_break_` is raised by a plain-variant handler whose result
  // introduced taint (tagged MMIO read / DMA side effect): the dispatch
  // loop leaves the plain loop before the next op so everything downstream
  // runs with full tag semantics. The plain_ok_* memo caches "every
  // execution clearance and store protection admits ⊥-tagged execution"
  // against the active flow table (invalidated by set_policy()).
  dift::Tag reg_tag_or_ = dift::kBottomTag;
  bool taint_break_ = false;
  const std::uint8_t* plain_ok_flow_ = nullptr;
  bool plain_ok_ = false;
  bool plain_ok_valid_ = false;

  const dift::SecurityPolicy* policy_ = nullptr;
  dift::ExecutionClearance exec_;
  bool has_store_prot_ = false;

  std::function<std::uint64_t()> time_us_;
  TraceBuffer* trace_ = nullptr;
};

extern template class Core<PlainWord>;
extern template class Core<TaintedWord>;

}  // namespace vpdift::rv
