// Campaign subsystem tests: thread-safe VP instances, parallel_for, spec
// parsing, the batch runner, and report aggregation.
//
// The load-bearing test is ParallelVp.TwoThreadsMatchSerial: two
// VirtualPrototype instances on two std::threads must produce RunResults
// bit-identical to back-to-back serial runs — the thread-confinement
// guarantee the thread_local active-context refactor exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregator.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suites.hpp"
#include "dift/stats.hpp"
#include "fw/benchmarks.hpp"
#include "rvasm/assembler.hpp"
#include "soc/addrmap.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;

// ---------------------------------------------------------------------------
// Satellite 1: two VPs on two threads == two VPs back to back.
// ---------------------------------------------------------------------------

void expect_same_result(const vp::RunResult& a, const vp::RunResult& b) {
  EXPECT_EQ(a.exited(), b.exited());
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.timed_out(), b.timed_out());
  EXPECT_EQ(a.violation(), b.violation());
  EXPECT_EQ(a.instret, b.instret);
  EXPECT_EQ(a.sim_time.picos(), b.sim_time.picos());
  EXPECT_EQ(a.uart_output, b.uart_output);
  EXPECT_EQ(a.markers, b.markers);
  EXPECT_EQ(dift::to_json(a.stats), dift::to_json(b.stats));
}

vp::RunResult run_plain_primes() {
  vp::Vp v;
  v.load(fw::make_primes(500));
  return v.run(sysc::Time::sec(10));
}

vp::RunResult run_dift_qsort() {
  vp::VpDift v;
  v.load(fw::make_qsort(64, 7));
  auto bundle = vp::scenarios::make_permissive_policy();
  v.apply_policy(bundle.policy);
  return v.run(sysc::Time::sec(10));
}

TEST(ParallelVp, TwoThreadsMatchSerial) {
  // Serial reference: two full simulations back to back on this thread.
  const vp::RunResult ref_plain = run_plain_primes();
  const vp::RunResult ref_dift = run_dift_qsort();
  ASSERT_TRUE(ref_plain.exited());
  ASSERT_TRUE(ref_dift.exited());

  // Now the same two simulations concurrently, one VP per thread. Each
  // thread gets its own thread_local Simulation::current_ / dift active
  // context, so neither run can observe the other.
  vp::RunResult par_plain, par_dift;
  std::thread t1([&] { par_plain = run_plain_primes(); });
  std::thread t2([&] { par_dift = run_dift_qsort(); });
  t1.join();
  t2.join();

  expect_same_result(ref_plain, par_plain);
  expect_same_result(ref_dift, par_dift);
}

TEST(ParallelVp, ManyConcurrentDiftRunsAreIndependent) {
  // Several VP+ instances with live DIFT contexts at once; each result must
  // match its own serial reference run.
  const vp::RunResult ref = run_dift_qsort();
  constexpr int kThreads = 4;
  std::vector<vp::RunResult> out(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&out, i] { out[i] = run_dift_qsort(); });
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) expect_same_result(ref, out[i]);
}

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexOnWorkerThreads) {
  constexpr std::size_t kN = 100;
  std::vector<int> seen(kN, 0);
  std::mutex m;
  std::set<std::thread::id> ids;
  const auto caller = std::this_thread::get_id();
  campaign::parallel_for(kN, 4, [&](std::size_t i) {
    seen[i]++;
    std::lock_guard<std::mutex> lk(m);
    ids.insert(std::this_thread::get_id());
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(seen[i], 1) << "index " << i;
  // Tasks run on worker threads, never on the caller.
  EXPECT_EQ(ids.count(caller), 0u);
  EXPECT_LE(ids.size(), 4u);
}

TEST(ParallelFor, OneWorkerRunsInlineInIndexOrder) {
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  bool on_caller = true;
  campaign::parallel_for(10, 1, [&](std::size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  // No work is a no-op for any worker count.
  campaign::parallel_for(0, 4, [&](std::size_t) { FAIL(); });
}

TEST(ParallelFor, RethrowsTaskException) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    std::atomic<int> done{0};
    try {
      campaign::parallel_for(16, workers, [&](std::size_t i) {
        if (i == 7) throw std::runtime_error("task 7 failed");
        ++done;
      });
      FAIL() << "expected parallel_for to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 7 failed");
    }
    // The exception is raised only after every task ran.
    EXPECT_EQ(done.load(), 15) << "workers " << workers;
  }
}

TEST(ParallelFor, JobsFromEnvParsesKnob) {
  ::setenv("VPDIFT_JOBS", "3", 1);
  EXPECT_EQ(campaign::jobs_from_env(1), 3u);
  ::setenv("VPDIFT_JOBS", "banana", 1);
  EXPECT_EQ(campaign::jobs_from_env(5), 5u);
  ::setenv("VPDIFT_JOBS", "0", 1);
  EXPECT_EQ(campaign::jobs_from_env(5), 5u);
  ::unsetenv("VPDIFT_JOBS");
  EXPECT_EQ(campaign::jobs_from_env(2), 2u);
  EXPECT_GE(campaign::jobs_from_env(0), 1u);
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(CampaignSpec, ParsesTextFormatWithDefaults) {
  const auto spec = campaign::CampaignSpec::parse(R"(# a comment
campaign my-sweep
defaults
  max-ms 5000
  retries 2
job atk3
  firmware attack:3
  policy code-injection
  mode dift
  uart-input AA\x2a\n
  expect violation:fetch-clearance
job plain-run
  firmware primes
  max-ms 250
  wall-budget-s 1.5
  engine-ecu on
)");
  EXPECT_EQ(spec.name, "my-sweep");
  ASSERT_EQ(spec.jobs.size(), 2u);

  const auto& j0 = spec.jobs[0];
  EXPECT_EQ(j0.name, "atk3");
  EXPECT_EQ(j0.firmware, "attack:3");
  EXPECT_EQ(j0.policy, "code-injection");
  EXPECT_EQ(j0.mode, campaign::VpMode::kDift);
  EXPECT_EQ(j0.uart_input, std::string("AA\x2a\n"));
  EXPECT_EQ(j0.max_ms, 5000u);  // from defaults
  EXPECT_EQ(j0.retries, 2);     // from defaults
  EXPECT_EQ(j0.expect, "violation:fetch-clearance");
  EXPECT_FALSE(j0.engine_ecu);

  const auto& j1 = spec.jobs[1];
  EXPECT_EQ(j1.mode, campaign::VpMode::kPlain);
  EXPECT_EQ(j1.max_ms, 250u);  // job overrides the default
  EXPECT_DOUBLE_EQ(j1.wall_budget_s, 1.5);
  EXPECT_TRUE(j1.engine_ecu);
}

TEST(CampaignSpec, ParsesJsonFormat) {
  const auto spec = campaign::CampaignSpec::parse(R"({
    "campaign": "json-sweep",
    "defaults": {"max_ms": 777},
    "jobs": [
      {"name": "a", "firmware": "attack:5", "mode": "dift",
       "policy": "code-injection", "expect": "violation"},
      {"name": "b", "firmware": "primes", "retries": 1,
       "uart_input": "hi\n"}
    ]})");
  EXPECT_EQ(spec.name, "json-sweep");
  ASSERT_EQ(spec.jobs.size(), 2u);
  EXPECT_EQ(spec.jobs[0].mode, campaign::VpMode::kDift);
  EXPECT_EQ(spec.jobs[0].max_ms, 777u);
  EXPECT_EQ(spec.jobs[0].expect, "violation");
  EXPECT_EQ(spec.jobs[1].retries, 1);
  EXPECT_EQ(spec.jobs[1].uart_input, "hi\n");
}

TEST(CampaignSpec, RejectsMalformedInput) {
  // Unknown key, with the line number in the message.
  try {
    campaign::CampaignSpec::parse("job x\n  firmware primes\n  bogus 1\n");
    FAIL() << "expected SpecParseError";
  } catch (const campaign::SpecParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
  // Field outside any job/defaults block.
  EXPECT_THROW(campaign::CampaignSpec::parse("max-ms 10\n"),
               campaign::SpecParseError);
  // Bad numeric value.
  EXPECT_THROW(
      campaign::CampaignSpec::parse("job x\n firmware primes\n max-ms 12xyz\n"),
      campaign::SpecParseError);
  // Bad mode.
  EXPECT_THROW(
      campaign::CampaignSpec::parse("job x\n firmware primes\n mode turbo\n"),
      campaign::SpecParseError);
  // A job must name its firmware.
  EXPECT_THROW(campaign::CampaignSpec::parse("job x\n  max-ms 10\n"),
               campaign::SpecParseError);
  // Malformed JSON.
  EXPECT_THROW(campaign::CampaignSpec::parse("{\"jobs\": [}"),
               campaign::SpecParseError);
}

TEST(CampaignSpec, StrictNumericParsing) {
  std::uint64_t u = 99;
  EXPECT_TRUE(campaign::parse_u64("42", &u));
  EXPECT_EQ(u, 42u);
  EXPECT_FALSE(campaign::parse_u64("12xyz", &u));
  EXPECT_FALSE(campaign::parse_u64("", &u));
  EXPECT_FALSE(campaign::parse_u64("-3", &u));
  EXPECT_FALSE(campaign::parse_u64(" 7", &u));

  std::int32_t i = 0;
  EXPECT_TRUE(campaign::parse_i32("-12", &i));
  EXPECT_EQ(i, -12);
  EXPECT_FALSE(campaign::parse_i32("1e3", &i));

  double d = 0;
  EXPECT_TRUE(campaign::parse_f64("1.5", &d));
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_FALSE(campaign::parse_f64("1.5s", &d));
}

TEST(CampaignSpec, DecodesEscapes) {
  EXPECT_EQ(campaign::decode_escapes("A\\x41\\n\\t\\0\\\\"),
            std::string("AA\n\t\0\\", 6));
  EXPECT_THROW(campaign::decode_escapes("\\x4"), std::invalid_argument);
  EXPECT_THROW(campaign::decode_escapes("\\q"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

TEST(Runner, VerdictMatching) {
  EXPECT_TRUE(campaign::verdict_matches("", "exit:0"));
  EXPECT_FALSE(campaign::verdict_matches("", "crash"));
  EXPECT_TRUE(campaign::verdict_matches("exit", "exit:42"));
  EXPECT_TRUE(campaign::verdict_matches("exit:42", "exit:42"));
  EXPECT_FALSE(campaign::verdict_matches("exit:0", "exit:42"));
  EXPECT_TRUE(
      campaign::verdict_matches("violation", "violation:fetch-clearance"));
  EXPECT_TRUE(campaign::verdict_matches("violation:fetch-clearance",
                                        "violation:fetch-clearance"));
  EXPECT_FALSE(campaign::verdict_matches("violation:load", "violation:store"));
  EXPECT_TRUE(campaign::verdict_matches("timeout", "timeout"));
  EXPECT_FALSE(campaign::verdict_matches("timeout", "wall-timeout"));
}

TEST(Runner, ParallelVerdictsMatchSerial) {
  // A slice of Table I through the engine: serial vs 3 workers must agree
  // on every verdict and every instruction count.
  campaign::CampaignSpec spec = campaign::suites::table1();
  ASSERT_GE(spec.jobs.size(), 6u);
  spec.jobs.resize(6);

  campaign::RunnerOptions serial;
  serial.jobs = 1;
  const auto ref = campaign::Runner(serial).run(spec);

  campaign::RunnerOptions par;
  par.jobs = 3;
  std::atomic<int> done{0};
  par.on_done = [&](const campaign::JobResult&) { ++done; };
  const auto out = campaign::Runner(par).run(spec);

  ASSERT_EQ(ref.size(), out.size());
  EXPECT_EQ(done.load(), static_cast<int>(spec.jobs.size()));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].name, out[i].name);
    EXPECT_EQ(ref[i].verdict, out[i].verdict) << ref[i].name;
    EXPECT_EQ(ref[i].ok, out[i].ok) << ref[i].name;
    EXPECT_EQ(ref[i].run.instret, out[i].run.instret) << ref[i].name;
    EXPECT_TRUE(ref[i].ok) << ref[i].name << ": " << ref[i].verdict;
  }
}

TEST(Runner, WarmPoolKeepsTranslationsAndStaysBitIdentical) {
  // Same job three times: once cold, twice through a warm pool. The second
  // pooled run re-arms a VP whose firmware content hash is unchanged, so the
  // translated-block cache survives the reset — no re-decode, identical
  // results.
  campaign::JobSpec job;
  job.name = "warm-translations";
  job.firmware = "qsort";
  job.policy = "permissive";
  job.mode = campaign::VpMode::kDift;

  const auto cold = campaign::Runner::run_job(job);
  campaign::VpPool pool;
  campaign::RunnerEnv env;
  env.pool = &pool;
  const auto warm1 = campaign::Runner::run_job(job, &env);
  const auto warm2 = campaign::Runner::run_job(job, &env);

  EXPECT_EQ(pool.builds(), 1u);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.translation_reuses(), 1u);

  for (const auto* w : {&warm1, &warm2}) {
    EXPECT_EQ(cold.verdict, w->verdict);
    EXPECT_EQ(cold.run.instret, w->run.instret);
    EXPECT_EQ(cold.run.uart_output, w->run.uart_output);
    EXPECT_EQ(cold.run.sim_time.picos(), w->run.sim_time.picos());
    EXPECT_EQ(cold.run.stats.lub_calls, w->run.stats.lub_calls);
    EXPECT_EQ(cold.run.stats.flow_checks, w->run.stats.flow_checks);
    EXPECT_EQ(cold.run.stats.bus_transactions, w->run.stats.bus_transactions);
  }
  // The warm re-arm's whole point: the second run decodes nothing.
  EXPECT_GT(warm1.run.stats.decode_misses, 0u);
  EXPECT_EQ(warm2.run.stats.decode_misses, 0u);
  EXPECT_GT(warm2.run.stats.decode_hits, 0u);
}

TEST(Runner, WarmPoolColdArmsOnDifferentFirmware) {
  // Different firmware content between acquires: the pool reuses the VP
  // object but must NOT keep the translations.
  campaign::JobSpec a;
  a.name = "fw-a";
  a.firmware = "qsort";
  a.mode = campaign::VpMode::kDift;
  campaign::JobSpec b = a;
  b.name = "fw-b";
  b.firmware = "primes";

  campaign::VpPool pool;
  campaign::RunnerEnv env;
  env.pool = &pool;
  const auto ra = campaign::Runner::run_job(a, &env);
  const auto rb = campaign::Runner::run_job(b, &env);
  EXPECT_TRUE(ra.ok);
  EXPECT_TRUE(rb.ok);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.translation_reuses(), 0u);
  // The primes run decoded its own image from scratch.
  EXPECT_GT(rb.run.stats.decode_misses, 0u);
}

TEST(Runner, CrashVerdictConsumesRetries) {
  campaign::JobSpec job;
  job.name = "boom";
  job.firmware = "unused";
  job.retries = 2;
  job.make_program = []() -> rvasm::Program {
    throw std::runtime_error("intentional build failure");
  };
  const auto r = campaign::Runner::run_job(job);
  EXPECT_EQ(r.verdict, "crash");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 3);  // 1 + 2 retries
  EXPECT_NE(r.error.find("intentional build failure"), std::string::npos);
}

TEST(Runner, NonStdExceptionYieldsCrashVerdict) {
  // A throw of something not derived from std::exception must not escape
  // run_job — on a pool thread it would terminate the whole campaign.
  campaign::JobSpec job;
  job.name = "boom-int";
  job.firmware = "unused";
  job.make_program = []() -> rvasm::Program { throw 42; };
  const auto r = campaign::Runner::run_job(job);
  EXPECT_EQ(r.verdict, "crash");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "non-std exception");
  ASSERT_EQ(r.history.size(), 1u);
  EXPECT_EQ(r.history[0].verdict, "crash");
  EXPECT_EQ(r.history[0].error, "non-std exception");
}

TEST(Runner, AttemptHistoryRecordsEveryRetry) {
  campaign::JobSpec job;
  job.name = "flaky";
  job.firmware = "unused";
  job.retries = 2;
  job.make_program = []() -> rvasm::Program {
    throw std::runtime_error("always down");
  };
  const auto r = campaign::Runner::run_job(job);
  EXPECT_EQ(r.attempts, 3);
  ASSERT_EQ(r.history.size(), 3u);
  for (const auto& att : r.history) {
    EXPECT_EQ(att.verdict, "crash");
    EXPECT_NE(att.error.find("always down"), std::string::npos);
  }
}

TEST(Runner, AttemptHistoryOnCleanRunHasOneEntry) {
  campaign::JobSpec job;
  job.name = "clean";
  job.firmware = "primes";
  job.mode = campaign::VpMode::kPlain;
  job.expect = "exit:0";
  const auto r = campaign::Runner::run_job(job);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.history.size(), 1u);
  EXPECT_EQ(r.history[0].verdict, "exit:0");
  EXPECT_TRUE(r.history[0].error.empty());
}

TEST(Runner, WallTimeoutStopsRunawayJob) {
  // An infinite loop with a huge simulated-time budget: only the wall-clock
  // watchdog can end this job.
  campaign::JobSpec job;
  job.name = "spin";
  job.firmware = "unused";
  job.max_ms = 10'000'000;     // ~3 simulated hours
  job.wall_budget_s = 0.2;
  job.expect = "wall-timeout";
  job.make_program = [] {
    rvasm::Assembler a(soc::addrmap::kRamBase);
    a.label("loop");
    a.j("loop");
    return a.assemble();
  };
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = campaign::Runner::run_job(job);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.verdict, "wall-timeout");
  EXPECT_TRUE(r.ok);
  EXPECT_LT(wall, 30.0);  // it did not run anywhere near the sim budget
}

TEST(Runner, SimTimeoutVerdict) {
  campaign::JobSpec job;
  job.name = "slow";
  job.firmware = "unused";
  job.max_ms = 1;  // primes(200000) cannot finish in 1 simulated ms
  job.expect = "timeout";
  job.make_program = [] { return fw::make_primes(200000); };
  const auto r = campaign::Runner::run_job(job);
  EXPECT_EQ(r.verdict, "timeout");
  EXPECT_TRUE(r.ok);
}

TEST(Runner, AttackFirmwareGetsCanonicalPayloadByDefault) {
  // A spec-file job naming attack:N without uart-input must still fire the
  // attack (the firmware otherwise blocks on the UART until timeout).
  campaign::JobSpec job;
  job.name = "atk3-spec";
  job.firmware = "attack:3";
  job.policy = "code-injection";
  job.mode = campaign::VpMode::kDift;
  job.expect = "violation:fetch-clearance";
  const auto r = campaign::Runner::run_job(job);
  EXPECT_EQ(r.verdict, "violation:fetch-clearance");
  EXPECT_TRUE(r.ok);
}

TEST(Runner, ResolvesBuiltinFirmwareNames) {
  EXPECT_GT(campaign::resolve_firmware("primes").size(), 0u);
  EXPECT_GT(campaign::resolve_firmware("attack:3").size(), 0u);
  EXPECT_THROW(campaign::resolve_firmware("attack:99"), std::exception);
  EXPECT_THROW(campaign::resolve_firmware("no-such-firmware"), std::exception);
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

TEST(Aggregator, CountsAndJsonShape) {
  campaign::Aggregator agg;

  campaign::JobResult good;
  good.name = "good-job";
  good.verdict = "exit:0";
  good.ok = true;
  good.attempts = 1;
  good.run.reason = vp::ExitReason::kExit;
  good.run.instret = 1000;
  good.wall_seconds = 0.5;

  campaign::JobResult bad;
  bad.name = "bad \"job\"";
  bad.verdict = "crash";
  bad.attempts = 2;
  bad.error = "it broke";

  agg.add(good);
  agg.add(bad);

  EXPECT_EQ(agg.total(), 2u);
  EXPECT_EQ(agg.ok(), 1u);
  EXPECT_EQ(agg.crashed(), 1u);
  EXPECT_FALSE(agg.all_ok());
  EXPECT_EQ(agg.total_instret(), 1000u);

  const std::string json = agg.to_json("unit-sweep", 2, 1.25);
  EXPECT_NE(json.find("\"campaign\": \"unit-sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"crashed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"good-job\""), std::string::npos);
  EXPECT_NE(json.find("bad \\\"job\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"it broke\""), std::string::npos);

  const std::string line = agg.summary("unit-sweep", 1.25);
  EXPECT_NE(line.find("unit-sweep"), std::string::npos);
  EXPECT_NE(line.find("2 jobs"), std::string::npos);
}

TEST(Aggregator, JsonEscape) {
  EXPECT_EQ(campaign::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(campaign::json_escape(std::string("\x01", 1)), "\\u0001");
}

}  // namespace
