// Fork-vs-replay equivalence for fault-injection campaigns.
//
// The contract under test (src/fi/fork.hpp): for every fault in a suite, the
// fork engine's composed JobResult is bit-identical to what a cold replay
// through campaign::Runner produces — same verdict, same retired-instruction
// count, same UART output / markers / simulated time, same trajectory-pure
// DIFT counters, and the same serialized FI matrix JSON. Cache-locality
// counters (decode/block hits, invalidations, chained transfers) are
// explicitly exempt: a forked tail starts with a cold translation cache, and
// that difference is invisible to every architectural observable.
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "fi/fork.hpp"
#include "fi/injector.hpp"
#include "fi/suite.hpp"
#include "soc/addrmap.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;

/// Two handcrafted faults of every model, with triggers spread across the
/// golden trajectory of `probe` (a faultless suite for the same benchmark).
std::vector<fi::FaultSpec> all_model_faults(const fi::FiSuite& probe) {
  const std::uint64_t instret = probe.golden.run.instret;
  const std::uint64_t us = probe.golden_us;
  std::vector<fi::FaultSpec> faults;
  std::size_t k = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t m = 0; m < fi::kFaultModelCount; ++m, ++k) {
      fi::FaultSpec f;
      f.model = static_cast<fi::FaultModel>(m);
      f.seed = 1000 + k;
      f.trigger_instret =
          std::max<std::uint64_t>(1, instret * (1 + k % 5) / 7);
      f.trigger_us = us * (1 + k % 4) / 5;
      switch (f.model) {
        case fi::FaultModel::kGprFlip:
          f.reg = static_cast<std::uint8_t>(1 + k % 31);
          f.bits = 1u << (k % 32);
          break;
        case fi::FaultModel::kRamFlip:
          // The stack page: live data on every benchmark.
          f.offset = (4u << 20) - 4096 + 128u * static_cast<unsigned>(rep);
          f.bits = 1u << (k % 8);
          break;
        case fi::FaultModel::kTagCorrupt:
          f.span = 4;
          break;
        case fi::FaultModel::kUartRxDrop:
          f.span = 1 + static_cast<std::uint32_t>(rep);
          break;
        case fi::FaultModel::kUartRxCorrupt:
          f.bits = 0x41;
          f.span = 2;
          break;
        case fi::FaultModel::kFlashCorrupt:
          f.bits = 0xff;
          f.span = 3;
          break;
        case fi::FaultModel::kIrqSpurious:
        case fi::FaultModel::kIrqSuppress:
          f.irq_src = (k % 2) ? soc::addrmap::kIrqUartRx
                              : soc::addrmap::kIrqSensor;
          break;
        default:
          break;  // kCanErrorFrame / kCanBusOff / kSensorStuck need no params
      }
      faults.push_back(f);
    }
  }
  return faults;
}

/// The full equivalence check: per-job observables, classified verdicts, and
/// the serialized matrix report (workers/wall pinned so it is bit-comparable).
void expect_equivalent(const fi::FiSuite& suite,
                       const std::vector<campaign::JobResult>& cold,
                       const std::vector<campaign::JobResult>& forked) {
  ASSERT_EQ(cold.size(), forked.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE(suite.jobs.jobs[i].name + " [" +
                 suite.faults[i].describe() + "]");
    const campaign::JobResult& c = cold[i];
    const campaign::JobResult& f = forked[i];
    EXPECT_EQ(c.verdict, f.verdict);
    EXPECT_EQ(c.ok, f.ok);
    EXPECT_EQ(static_cast<int>(c.run.reason), static_cast<int>(f.run.reason));
    EXPECT_EQ(c.run.exit_code, f.run.exit_code);
    EXPECT_EQ(c.run.watchdog_resets, f.run.watchdog_resets);
    EXPECT_EQ(c.run.instret, f.run.instret);
    EXPECT_EQ(c.run.uart_output, f.run.uart_output);
    EXPECT_EQ(c.run.markers, f.run.markers);
    EXPECT_EQ(c.run.sim_time.picos(), f.run.sim_time.picos());
    // Trajectory-pure DIFT counters. Cache counters are exempt (cold cache
    // in the tail), but everything the taint engine *did* must match.
    EXPECT_EQ(c.run.stats.lub_calls, f.run.stats.lub_calls);
    EXPECT_EQ(c.run.stats.flow_checks, f.run.stats.flow_checks);
    EXPECT_EQ(c.run.stats.bus_transactions, f.run.stats.bus_transactions);
    EXPECT_EQ(c.run.stats.mem_summary_hits, f.run.stats.mem_summary_hits);
    EXPECT_EQ(c.run.stats.dma_summary_hits, f.run.stats.dma_summary_hits);
    // Promotion events are trajectory-pure (one per plain->tainted taint
    // introduction, at a fixed instruction), so replay and fork must agree.
    // The per-dispatch variant-hit counters are exempt: the golden cursor
    // arms every architectural site of its chunk, and each armed fault
    // clamps the running block at its trigger. A forked job's golden prefix
    // therefore counts one extra block split per other site the cursor
    // passed before the snapshot, which its cold replay never had. The
    // instruction stream is identical; only its grouping into dispatches
    // differs (a one-fault suite forks to the exact cold dispatch counts).
    EXPECT_EQ(c.run.stats.variant_promotions, f.run.stats.variant_promotions);
  }
  std::vector<fi::Verdict> vc, vf;
  fi::build_matrix(suite, cold, &vc);
  fi::build_matrix(suite, forked, &vf);
  EXPECT_EQ(vc, vf);
  EXPECT_EQ(fi::matrix_json(suite, cold, vc, 1, 0.0),
            fi::matrix_json(suite, forked, vf, 1, 0.0));
}

TEST(ForkCampaign, MatchesReplayOnAttackForAllFaultModels) {
  fi::FiSuiteSpec spec;
  spec.benchmark = "attack:3";
  spec.seed = 5;
  const fi::FiSuite probe = fi::assemble_suite(spec, {});
  const fi::FiSuite suite = fi::assemble_suite(spec, all_model_faults(probe));
  ASSERT_EQ(suite.faults.size(), 2 * fi::kFaultModelCount);

  campaign::Runner runner;
  const auto cold = runner.run(suite.jobs);

  fi::ForkStats st;
  const auto forked = fi::run_forked(suite, 1, {}, &st);

  expect_equivalent(suite, cold, forked);
  EXPECT_GT(st.snapshots, 0u);
  // The whole point: fewer instructions retired than full replay.
  EXPECT_LT(st.executed(), st.replay_instret);
  EXPECT_GT(st.speedup(), 1.0);
}

TEST(ForkCampaign, ParallelForkMatchesSerialFork) {
  fi::FiSuiteSpec spec;
  spec.benchmark = "attack:3";
  spec.seed = 5;
  const fi::FiSuite probe = fi::assemble_suite(spec, {});
  const fi::FiSuite suite = fi::assemble_suite(spec, all_model_faults(probe));

  const auto serial = fi::run_forked(suite, 1);
  const auto parallel = fi::run_forked(suite, 4);
  expect_equivalent(suite, serial, parallel);
}

TEST(ForkCampaign, MatchesReplayOnSeededQsortSchedule) {
  fi::FiSuiteSpec spec;
  spec.benchmark = "qsort";
  spec.n_faults = 16;
  spec.seed = 7;
  const fi::FiSuite suite = fi::build_suite(spec);

  campaign::Runner runner;
  const auto cold = runner.run(suite.jobs);

  fi::ForkStats st;
  const auto forked = fi::run_forked(suite, 3, {}, &st);
  expect_equivalent(suite, cold, forked);
  EXPECT_GT(st.snapshots, 0u);
}

TEST(ForkCampaign, ArmedButUnfiredFaultIsNotInherited) {
  // A snapshot can be captured while an arm_fault trigger is pending. The
  // snapshot records that (fault_was_armed / fault_trigger) for forensics,
  // but restore() must NOT re-arm it on the target: the fork engine applies
  // each tail's own fault explicitly, and an inherited trigger would fire a
  // second, phantom fault.
  const rvasm::Program program = campaign::resolve_firmware("qsort");
  auto bundle = vp::scenarios::make_code_injection_policy(program);

  vp::VpDift v;
  v.load(program);
  v.apply_policy(bundle.policy);
  fi::FaultSpec f;
  f.model = fi::FaultModel::kGprFlip;
  f.trigger_instret = std::numeric_limits<std::uint64_t>::max() / 2;
  f.reg = 10;
  f.bits = 1;
  fi::arm(v, f);
  ASSERT_TRUE(v.core().fault_armed());

  (void)v.run(sysc::Time::us(200));  // times out long before the trigger
  ASSERT_TRUE(v.core().fault_armed());
  const vp::VpSnapshot snap = v.snapshot();
  EXPECT_TRUE(snap.fault_was_armed);
  EXPECT_EQ(snap.fault_trigger, f.trigger_instret);

  vp::VpDift w;
  w.load(program);
  w.apply_policy(bundle.policy);
  w.restore(snap);
  EXPECT_FALSE(w.core().fault_armed());

  const vp::RunResult r = w.run(sysc::Time::ms(10000));
  EXPECT_TRUE(r.exited());
  EXPECT_EQ(campaign::verdict_of(r), "exit:0");
}

}  // namespace
