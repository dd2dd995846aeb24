// Tests for the static firmware analysis subsystem (src/sa): instruction
// classification vs the decoder, CFG recovery edge cases, the immobilizer
// lint acceptance pair, analyze-on vs analyze-off execution parity through
// the campaign runner, the report round trips and the service-side analysis
// cache.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "fw/benchmarks.hpp"
#include "fw/hal.hpp"
#include "fw/immobilizer.hpp"
#include "rv/decode.hpp"
#include "rvasm/assembler.hpp"
#include "sa/analyze.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "soc/addrmap.hpp"
#include "soc/uart.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;

const soc::AesKey kPin = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                          0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

// ---- instruction classification ----

// The one consistency contract classify() must honour instruction-for-
// instruction: terminator status agrees with rv::is_block_terminator, and
// the load/store/branch buckets agree with the opcode's semantics. A
// disagreement would let the analyzer's transfer functions skip (or
// double-count) an instruction the core actually executes.
void check_classify(const rv::Insn& insn) {
  const sa::InsnClass c = sa::classify(insn);
  EXPECT_EQ(c == sa::InsnClass::kTerminator, rv::is_block_terminator(insn.op))
      << "raw=" << std::hex << insn.raw;
  const bool is_branch =
      insn.op == rv::Op::kBeq || insn.op == rv::Op::kBne ||
      insn.op == rv::Op::kBlt || insn.op == rv::Op::kBge ||
      insn.op == rv::Op::kBltu || insn.op == rv::Op::kBgeu;
  EXPECT_EQ(c == sa::InsnClass::kBranch, is_branch)
      << "raw=" << std::hex << insn.raw;
  const bool is_load = insn.op == rv::Op::kLb || insn.op == rv::Op::kLh ||
                       insn.op == rv::Op::kLw || insn.op == rv::Op::kLbu ||
                       insn.op == rv::Op::kLhu;
  EXPECT_EQ(c == sa::InsnClass::kLoad, is_load)
      << "raw=" << std::hex << insn.raw;
  const bool is_store = insn.op == rv::Op::kSb || insn.op == rv::Op::kSh ||
                        insn.op == rv::Op::kSw;
  EXPECT_EQ(c == sa::InsnClass::kStore, is_store)
      << "raw=" << std::hex << insn.raw;
}

TEST(SaClassify, ExhaustiveOver16BitSpace) {
  for (std::uint32_t raw = 0; raw <= 0xffff; ++raw) {
    if ((raw & 3) == 3) continue;  // 32-bit prefix, not a compressed parcel
    check_classify(rv::decode16(static_cast<std::uint16_t>(raw)));
  }
}

TEST(SaClassify, Structured32BitSweep) {
  // Every major opcode x funct3 x interesting funct7, with fixed registers:
  // covers each Op at least once without a 4-billion-word sweep.
  for (std::uint32_t opc = 0; opc < 32; ++opc) {
    for (std::uint32_t f3 = 0; f3 < 8; ++f3) {
      for (std::uint32_t f7 : {0u, 0x01u, 0x20u, 0x7fu}) {
        const std::uint32_t raw = (f7 << 25) | (7u << 20) | (6u << 15) |
                                  (f3 << 12) | (5u << 7) | (opc << 2) | 3u;
        check_classify(rv::decode(raw));
      }
    }
  }
  // And a deterministic pseudo-random sweep across the whole word space.
  std::uint32_t x = 0x12345678;
  for (int i = 0; i < 200000; ++i) {
    x = x * 1664525u + 1013904223u;  // LCG
    check_classify(rv::decode_any(x | 3u));
  }
}

// ---- CFG recovery ----

TEST(SaCfg, StraightLineCallGraphIsComplete) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.li(a0, 3);
  a.jal(ra, "double_it");
  a.ret();
  a.label("double_it");
  a.add(a0, a0, a0);
  a.ret();
  fw::emit_stdlib(a);
  const auto prog = a.assemble();

  const sa::AnalysisResult r = sa::analyze(prog, nullptr);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.taint_free);  // no policy: nothing can carry taint
  EXPECT_TRUE(r.unresolved_indirects.empty());
  EXPECT_GE(r.call_entries.size(), 2u);  // main + double_it at least
  EXPECT_GT(r.reachable_instructions, 0u);
  // Every recovered block boundary is inside the image.
  for (const sa::BlockSummary& b : r.blocks) {
    EXPECT_GE(b.start, prog.segments.front().base);
    EXPECT_GT(b.end, b.start);
  }
}

TEST(SaCfg, UnresolvableIndirectMarksIncomplete) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  // A jalr through a value loaded from data: a singleton interval can't
  // survive the load (the analyzer doesn't model exact RAM contents), so
  // the target set is unresolvable.
  a.la(t0, "table");
  a.lw(t1, t0, 0);
  a.jalr(x0, t1, 0);
  a.label("stuck");
  a.j("stuck");
  fw::emit_stdlib(a);
  a.label("table");
  a.word(0);
  const auto prog = a.assemble();

  const sa::AnalysisResult r = sa::analyze(prog, nullptr);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.unresolved_indirects.empty());
  bool found = false;
  for (const sa::Finding& f : r.findings)
    found = found || f.kind == "unresolved-indirect";
  EXPECT_TRUE(found);
}

TEST(SaCfg, SelfModifyingStoreIsFlagged) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.la(t0, "patch_me");
  a.sw(x0, t0, 0);  // overwrite a reachable instruction
  a.label("patch_me");
  a.li(a0, 1);
  a.ret();
  fw::emit_stdlib(a);
  const auto prog = a.assemble();

  const sa::AnalysisResult r = sa::analyze(prog, nullptr);
  EXPECT_FALSE(r.smc_stores.empty());
  bool found = false;
  for (const sa::Finding& f : r.findings) found |= f.kind == "smc-store";
  EXPECT_TRUE(found);
}

// ---- the immobilizer acceptance pair ----

TEST(SaLint, VulnerableImmobilizerLeaksStatically) {
  const auto prog =
      fw::make_immobilizer(fw::ImmoVariant::kVulnerableDump, kPin, 3);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  const sa::AnalysisResult r = sa::analyze(prog, &bundle.policy);
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.reachable_violations, 1u);
  bool uart_leak = false;
  for (const sa::Finding& f : r.findings)
    uart_leak |= f.kind == "reachable-violation" && f.where == "uart0.tx";
  EXPECT_TRUE(uart_leak)
      << "the debug-dump PIN leak must be visible without executing:\n"
      << sa::to_text(r);
}

TEST(SaLint, FixedImmobilizerIsClean) {
  const auto prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump, kPin, 3);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  const sa::AnalysisResult r = sa::analyze(prog, &bundle.policy);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.reachable_violations, 0u) << sa::to_text(r);
}

TEST(SaLint, BgeuFallThroughKeepsUpperBoundSound) {
  // Regression: the bgeu not-taken edge means rs1 < rs2, so rs1 may be as
  // large as hi(rs2) - 1. An earlier version refined rs1 against
  // lo(rs2) - 1 instead; with the non-singleton bound below that hid the
  // classified byte at buf[5] from the load span and the leak lint came
  // back clean.
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.la(t0, "buf");
  a.la(t4, "idx");
  a.lbu(t1, t4, 0);        // t1 in [0, 255], untainted
  a.sltiu(t2, t1, 100);    // t2 in [0, 1]
  a.addi(t2, t2, 5);       // t2 in [5, 6]: non-singleton bound with lo > 0
  a.bgeu(t1, t2, "done");  // fall-through: t1 < t2, i.e. t1 in [0, 5]
  a.label("leak");
  a.add(t3, t0, t1);
  a.lbu(a0, t3, 0);  // may read buf[5], the classified byte
  a.li(t5, static_cast<std::int64_t>(soc::addrmap::kUartBase +
                                     soc::Uart::kTxData));
  a.sb(a0, t5, 0);  // ... and transmit it
  a.label("done");
  a.ret();
  fw::emit_stdlib(a);
  a.align(4);
  a.label("buf");
  for (int i = 0; i < 8; ++i) a.byte(0);
  a.label("idx");
  a.byte(3);
  const auto prog = a.assemble();

  const dift::Lattice lattice = dift::Lattice::ifp3();
  dift::SecurityPolicy pol(lattice);
  pol.classify_memory(prog.symbol("buf") + 5, 1, lattice.tag_of("(HC,HI)"));
  pol.clear_output("uart0.tx", lattice.tag_of("(LC,HI)"));

  const sa::AnalysisResult r = sa::analyze(prog, &pol);
  bool leak = false;
  for (const sa::Finding& f : r.findings)
    leak |= f.kind == "reachable-violation" && f.where == "uart0.tx";
  EXPECT_TRUE(leak) << sa::to_text(r);
  EXPECT_GE(r.reachable_violations, 1u);
  // The block holding the tainted load must be marked as touching taint.
  const std::uint64_t pc = prog.symbol("leak");
  bool found_block = false;
  for (const sa::BlockSummary& b : r.blocks)
    if (b.start <= pc && pc < b.end) {
      found_block = true;
      EXPECT_TRUE(b.touches_taint) << sa::to_text(r);
    }
  EXPECT_TRUE(found_block);
}

TEST(SaLint, CodeInjectionAttackPredictedStatically) {
  // Attack 3's fetch of injected code is a fetch-clearance violation the
  // analyzer reaches without any attacker input: the dynamic Table I
  // verdict has a static shadow.
  const auto prog = campaign::resolve_firmware("attack:3");
  auto bundle = vp::scenarios::make_code_injection_policy(prog);
  const sa::AnalysisResult r = sa::analyze(prog, &bundle.policy);
  EXPECT_GE(r.reachable_violations + r.findings.size(), 1u);
  bool fetch = false;
  for (const sa::Finding& f : r.findings)
    fetch |= f.where == "core.fetch";
  EXPECT_TRUE(fetch) << sa::to_text(r);
}

// ---- analyze-on vs analyze-off execution parity ----

struct ParityCase {
  const char* name;
  const char* firmware;  ///< builtin name ("" = `make` builds the program)
  const char* policy;
  bool engine_ecu;
  std::uint64_t max_ms;
  rvasm::Program (*make)();
  std::uint64_t instret;  ///< expected retirement count (0 = unchecked)
  const char* expect;
};

// Readable ctest names: print the case name instead of the struct's bytes.
void PrintTo(const ParityCase& c, std::ostream* os) { *os << c.name; }

rvasm::Program small_crc32() { return fw::make_crc32(256, 4); }
rvasm::Program small_matmul() { return fw::make_matmul(12); }

campaign::JobSpec parity_job(const ParityCase& pc, bool analyze) {
  campaign::JobSpec job;
  job.name = pc.name;
  job.firmware = pc.firmware;
  if (pc.make) job.make_program = pc.make;
  job.policy = pc.policy;
  job.mode = campaign::VpMode::kDift;
  job.engine_ecu = pc.engine_ecu;
  job.max_ms = pc.max_ms;
  job.expect = pc.expect;
  job.analyze = analyze;
  return job;
}

class SaAnalyzeParity : public ::testing::TestWithParam<ParityCase> {};

// The analyzer only reports: a job with `analyze on` must run exactly like
// the same job without it — same verdict, retirement count, exit, UART
// bytes, simulated time and every engine counter — and carry the report.
TEST_P(SaAnalyzeParity, RunIsBitIdentical) {
  const ParityCase& pc = GetParam();
  const campaign::JobResult off =
      campaign::Runner::run_job(parity_job(pc, false));
  const campaign::JobResult on =
      campaign::Runner::run_job(parity_job(pc, true));
  ASSERT_TRUE(off.ok) << off.verdict << " " << off.error;
  EXPECT_FALSE(off.analysis);
  ASSERT_TRUE(on.analysis);
  if (pc.instret) {
    EXPECT_EQ(off.run.instret, pc.instret);
  }
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(on.run.instret, off.run.instret);
  EXPECT_EQ(static_cast<int>(on.run.reason), static_cast<int>(off.run.reason));
  EXPECT_EQ(on.run.exit_code, off.run.exit_code);
  EXPECT_EQ(on.run.uart_output, off.run.uart_output);
  EXPECT_EQ(on.run.sim_time.picos(), off.run.sim_time.picos());
  EXPECT_EQ(dift::to_json(on.run.stats), dift::to_json(off.run.stats));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SaAnalyzeParity,
    ::testing::Values(
        ParityCase{"primes", "primes", "permissive", false, 10000, nullptr, 0,
                   "exit:0"},
        ParityCase{"qsort", "qsort", "permissive", false, 10000, nullptr, 0,
                   "exit:0"},
        ParityCase{"dhrystone", "dhrystone", "permissive", false, 10000,
                   nullptr, 0, "exit:0"},
        ParityCase{"sha256", "sha256", "permissive", false, 10000, nullptr, 0,
                   "exit:0"},
        ParityCase{"sha512", "sha512", "permissive", false, 10000, nullptr, 0,
                   "exit:0"},
        ParityCase{"crc32", "", "permissive", false, 10000, small_crc32, 0,
                   "exit:0"},
        ParityCase{"matmul", "", "permissive", false, 10000, small_matmul, 0,
                   "exit:0"},
        ParityCase{"simple_sensor", "simple-sensor", "permissive", false,
                   10000, nullptr, 0, "exit:0"},
        ParityCase{"rtos_tasks", "rtos-tasks", "permissive", false, 10000,
                   nullptr, 0, "exit:0"},
        ParityCase{"immobilizer", "immobilizer", "immobilizer", true, 10000,
                   nullptr, 0, "exit:0"},
        // No engine ECU answers, so the firmware polls the CAN link for the
        // whole 200 ms budget.
        ParityCase{"immobilizer_no_ecu", "immobilizer", "immobilizer", false,
                   200, nullptr, 20004864, "timeout"},
        ParityCase{"attack_3", "attack:3", "code-injection", false, 10000,
                   nullptr, 0, "violation:fetch-clearance"}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- campaign integration ----

TEST(SaCampaign, AnalyzeJobCarriesReport) {
  campaign::JobSpec job;
  job.name = "immo";
  job.firmware = "immobilizer";
  job.policy = "immobilizer";
  job.mode = campaign::VpMode::kDift;
  job.engine_ecu = true;
  job.analyze = true;
  const campaign::JobResult r = campaign::Runner::run_job(job);
  ASSERT_NE(r.verdict, "crash") << r.error;
  ASSERT_TRUE(r.analysis);
  EXPECT_EQ(r.analysis->reachable_violations, 0u);
  EXPECT_TRUE(r.analysis->complete);
}

TEST(SaCampaign, AttackStillDetectedWithAnalyze) {
  // Analysis must never mask a dynamic violation: attack 3 under the
  // code-injection policy trips fetch-clearance with analysis enabled too.
  campaign::JobSpec job;
  job.name = "atk3";
  job.firmware = "attack:3";
  job.policy = "code-injection";
  job.mode = campaign::VpMode::kDift;
  job.analyze = true;
  job.expect = "violation:fetch-clearance";
  const campaign::JobResult r = campaign::Runner::run_job(job);
  EXPECT_TRUE(r.ok) << r.verdict << " " << r.error;
  ASSERT_TRUE(r.analysis);
}

TEST(SaCampaign, SpecRoundTripsAnalyzeField) {
  campaign::CampaignSpec spec = campaign::CampaignSpec::parse(
      "campaign t\njob a\nfirmware primes\nmode dift\nanalyze on\n"
      "job b\nfirmware primes\nmode dift\n");
  ASSERT_EQ(spec.jobs.size(), 2u);
  EXPECT_TRUE(spec.jobs[0].analyze);
  EXPECT_FALSE(spec.jobs[1].analyze);

  // JSON round trip preserves the flag both ways.
  for (const campaign::JobSpec& j : spec.jobs) {
    const std::string json = campaign::job_spec_to_json(j);
    campaign::JobSpec back;
    campaign::job_spec_from_json(back, campaign::json_parse(json));
    EXPECT_EQ(back.analyze, j.analyze) << json;
  }
}

// ---- report round trips and the warm cache ----

TEST(SaService, AnalysisJsonRoundTripIsLossless) {
  const auto prog =
      fw::make_immobilizer(fw::ImmoVariant::kVulnerableDump, kPin, 3);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  const sa::AnalysisResult r = sa::analyze(prog, &bundle.policy);

  const std::string json = service::analysis_to_json(r);
  const sa::AnalysisResult back =
      service::analysis_from_json(campaign::json_parse(json));

  EXPECT_EQ(back.entry, r.entry);
  EXPECT_EQ(back.reachable_instructions, r.reachable_instructions);
  EXPECT_EQ(back.linear_sweep_instructions, r.linear_sweep_instructions);
  EXPECT_EQ(back.unreachable_bytes, r.unreachable_bytes);
  EXPECT_EQ(back.blocks.size(), r.blocks.size());
  EXPECT_EQ(back.trap_entries, r.trap_entries);
  EXPECT_EQ(back.call_entries, r.call_entries);
  EXPECT_EQ(back.unresolved_indirects, r.unresolved_indirects);
  EXPECT_EQ(back.smc_stores, r.smc_stores);
  EXPECT_EQ(back.complete, r.complete);
  EXPECT_EQ(back.taint_free, r.taint_free);
  EXPECT_EQ(back.findings.size(), r.findings.size());
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    EXPECT_EQ(back.findings[i].kind, r.findings[i].kind);
    EXPECT_EQ(back.findings[i].where, r.findings[i].where);
    EXPECT_EQ(back.findings[i].pc, r.findings[i].pc);
    EXPECT_EQ(back.findings[i].reachable, r.findings[i].reachable);
    EXPECT_EQ(back.findings[i].detail, r.findings[i].detail);
  }
  EXPECT_EQ(back.reachable_violations, r.reachable_violations);
  // The summary report over the round-tripped result is bit-identical.
  EXPECT_EQ(sa::to_json(back), sa::to_json(r));
}

TEST(SaService, WarmCacheHitsOnSecondAnalysis) {
  service::WarmCache cache;
  const rvasm::Program& prog = cache.firmware("immobilizer");
  auto policy = cache.policy("immobilizer", prog);

  auto a1 = cache.analysis("immobilizer", prog, policy->policy(),
                           vp::VpConfig{}.ram_size);
  auto a2 = cache.analysis("immobilizer", prog, policy->policy(),
                           vp::VpConfig{}.ram_size);
  ASSERT_TRUE(a1);
  EXPECT_EQ(a1.get(), a2.get());  // the same shared object, not a re-run
  const service::CacheStats s = cache.stats();
  EXPECT_EQ(s.analysis_misses, 1u);
  EXPECT_EQ(s.analysis_hits, 1u);
  // A different RAM size is a different analysis identity.
  auto a3 = cache.analysis("immobilizer", prog, policy->policy(),
                           vp::VpConfig{}.ram_size * 2);
  EXPECT_NE(a1.get(), a3.get());
  EXPECT_EQ(cache.stats().analysis_misses, 2u);
}

TEST(SaService, CacheStatsCarryAnalysisCounters) {
  // Every field of the counter table, each with its own nonzero value, must
  // survive encode -> decode, += and -; a decoder or operator that drops a
  // field fails here even if no real run ever sets it.
  service::CacheStats a, b;
  std::uint64_t v = 1;
  for (const auto& f : service::CacheStats::kFields) {
    a.*f.member = v;
    b.*f.member = 100 * v;
    ++v;
  }
  const service::CacheStats back =
      service::cache_stats_from_json(campaign::json_parse(a.to_json()));
  service::CacheStats sum = b;
  sum += a;
  const service::CacheStats diff = b - a;
  for (const auto& f : service::CacheStats::kFields) {
    EXPECT_EQ(back.*f.member, a.*f.member) << f.name;
    EXPECT_EQ(sum.*f.member, 101 * (a.*f.member)) << f.name;
    EXPECT_EQ(diff.*f.member, 99 * (a.*f.member)) << f.name;
  }
  EXPECT_EQ(back.analysis_hits, a.analysis_hits);
  EXPECT_EQ(back.analysis_misses, a.analysis_misses);
}

}  // namespace
