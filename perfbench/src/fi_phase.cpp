// fi-campaign phase: seeded fault-injection suites over one CPU-bound
// firmware (qsort) and one interrupt-driven firmware (rtos-tasks), each
// run twice on one worker thread — cold replay (every fault job through
// campaign::Runner::run_job from reset) and fi::run_forked (golden cursor +
// snapshots + tails). Jobs last ~1-40 ms, so VP construction, the 4 MiB tag
// plane, snapshot/restore and report rendering dominate.
//
// One worker, not two: on a shared 4-vCPU host a second thread measured the
// scheduler (jobs/s moved by ~0.3 of its median between runs of one build).
// The job rates are medians over rounds, so a slow stretch of the host costs
// a few rounds, not the whole figure. Reference passes around each suite's
// cold replay and around each run_forked call normalize the round's rates
// and job latencies for host speed.
#include <cstdio>

#include "common.hpp"
#include "fi/fork.hpp"
#include "fi/suite.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 1;

struct SuiteDef {
  const char* firmware;
  std::size_t faults;  // 3:1, a fixed mix of the two job-latency profiles
  std::uint64_t salt;
};
const SuiteDef kSuites[] = {{"qsort", 24, 1}, {"rtos-tasks", 8, 2}};

class FiPhase : public Phase {
 public:
  void prepare(RunContext& ctx) override {
    suites_ = build_suites(ctx, 0);
  }

  bool step(RunContext& ctx) override {
    if (rounds_ > 0) suites_ = build_suites(ctx, rounds_);
    run_round(ctx);
    probe_vp(ctx);
    ++rounds_;
    return true;
  }

  void report(RunContext& ctx, const std::vector<Span>& spans) override {
    ctx.e2e("cold_jobs_per_s", median(cold_rates_), "1/s");
    ctx.e2e("fork_jobs_per_s", median(fork_rates_), "1/s");
    ctx.e2e("job_p50_ms", quantile(job_ms_, 0.5), "ms");
    ctx.e2e("job_p90_ms", quantile(job_ms_, 0.9), "ms");
    std::printf("fi-campaign: %d rounds, %llu cold jobs in %.3f s, %llu forked "
                "jobs in %.3f s, job p50 %.3f ms p90 %.3f ms (n=%zu)\n",
                rounds_, static_cast<unsigned long long>(cold_jobs_), cold_s_,
                static_cast<unsigned long long>(fork_jobs_), fork_s_,
                quantile(job_ms_, 0.5), quantile(job_ms_, 0.9), job_ms_.size());

    ctx.layer("campaign.setup_share", ratio(setup_s_, job_s_), "ratio");
    ctx.layer("rv.block_miss_per_kinstr",
              ratio(static_cast<double>(block_misses_), cold_instret_ / 1000.0),
              "1/kinstr");
    ctx.layer("fi.instret_saving",
              ratio(static_cast<double>(fork_.replay_instret),
                    static_cast<double>(fork_.executed())),
              "ratio");
    ctx.layer("vp.snapshot_mb", snapshot_mb_, "MiB");
    ctx.layer("campaign.report_ms", span_median_ms(spans, "campaign.report"), "ms");
    ctx.layer("vp.snapshot_ms", span_median_ms(spans, "vp.snapshot"), "ms");
    ctx.layer("vp.restore_ms", span_median_ms(spans, "vp.restore"), "ms");
  }

 private:
  std::vector<fi::FiSuite> build_suites(RunContext& ctx, int round) {
    std::vector<fi::FiSuite> out;
    for (const SuiteDef& d : kSuites) {
      fi::FiSuiteSpec spec;
      spec.benchmark = d.firmware;
      spec.n_faults = d.faults;
      spec.seed = mix64(ctx.seed * 1000 + static_cast<std::uint64_t>(round) * 10 +
                        d.salt) % 1'000'000'007ull;
      Tracer::Scope s("fi.build_suite", 0, d.firmware);
      out.push_back(fi::build_suite(spec));
    }
    return out;
  }

  /// The campaign resolvers, wrapped in spans (traced runs only; untraced
  /// jobs take the runner's own default path).
  static campaign::RunnerEnv traced_env() {
    campaign::RunnerEnv env;
    env.resolve_firmware = [](const std::string& name) {
      Tracer::Scope s("fw.build");
      return campaign::resolve_firmware(name);
    };
    env.resolve_policy = [](const std::string& name, const rvasm::Program& p) {
      Tracer::Scope s("policy.resolve");
      return std::make_shared<const campaign::ResolvedPolicy>(
          campaign::resolve_policy(name, p));
    };
    return env;
  }

  void run_round(RunContext& ctx) {
    // Cold replay: every fault job of every suite through run_job, each
    // call timed from outside.
    std::vector<std::vector<campaign::JobResult>> cold(suites_.size());
    std::vector<std::vector<double>> lat(suites_.size());  // normalized s
    const campaign::RunnerEnv env = traced_env();
    const campaign::RunnerEnv* envp = ctx.trace ? &env : nullptr;
    std::uint64_t round_jobs = 0;
    double round_cold_s = 0;  // host-speed normalized
    for (std::size_t s = 0; s < suites_.size(); ++s) {
      const double ref_before = reference_s();
      const auto c0 = Clock::now();
      for (const campaign::JobSpec& job : suites_[s].jobs.jobs) {
        Tracer::Scope span("campaign.run_job", 2'000'000 + cold_jobs_ + round_jobs,
                           "cold");
        const auto t0 = Clock::now();
        cold[s].push_back(campaign::Runner::run_job(job, envp));
        lat[s].push_back(seconds_since(t0));
        ++round_jobs;
      }
      const double secs = seconds_since(c0);
      const double slow = ctx.slowdown(ref_before, reference_s());
      cold_s_ += secs;
      round_cold_s += secs / slow;
      for (double& l : lat[s]) l /= slow;
    }
    cold_jobs_ += round_jobs;
    cold_rates_.push_back(ratio(static_cast<double>(round_jobs), round_cold_s));

    double round_fork_s = 0;  // host-speed normalized
    std::uint64_t round_fork_jobs = 0;
    for (std::size_t s = 0; s < suites_.size(); ++s) {
      const fi::FiSuite& suite = suites_[s];
      fi::ForkStats fs;
      std::vector<campaign::JobResult> forked;
      const double ref_before = reference_s();
      const auto f0 = Clock::now();
      {
        Tracer::Scope span("fi.run_forked", 3'000'000 + fork_jobs_);
        forked = fi::run_forked(suite, kWorkers, {}, &fs);
      }
      const double secs = seconds_since(f0);
      fork_s_ += secs;
      round_fork_s += secs / ctx.slowdown(ref_before, reference_s());
      round_fork_jobs += forked.size();
      fork_jobs_ += forked.size();
      fork_.golden_instret += fs.golden_instret;
      fork_.tail_instret += fs.tail_instret;
      fork_.replay_instret += fs.replay_instret;
      fork_.snapshots += fs.snapshots;

      CounterSet& c = ctx.counters["fi:" + suite.spec.benchmark + ":" +
                                   std::to_string(suite.spec.n_faults) + ":" +
                                   std::to_string(suite.spec.seed)];
      c["fork.golden_instret"] = fs.golden_instret;
      c["fork.tail_instret"] = fs.tail_instret;
      c["fork.replay_instret"] = fs.replay_instret;
      c["fork.snapshots"] = fs.snapshots;
      dift::DiftStats cold_stats, fork_stats;
      std::uint64_t instret = 0;
      const bool sizes_ok = forked.size() == cold[s].size();
      for (std::size_t j = 0; j < cold[s].size(); ++j) {
        const campaign::JobResult& cr = cold[s][j];
        job_ms_.push_back(lat[s][j] * 1e3);
        job_s_ += lat[s][j];
        setup_s_ += lat[s][j] - cr.run.wall_seconds;
        block_misses_ += cr.run.stats.block_misses;
        cold_instret_ += cr.run.instret;
        cold_stats += cr.run.stats;
        instret += cr.run.instret;
        ctx.op(cr.ok, "fi cold " + cr.name + ": " + cr.verdict);
        const bool same = sizes_ok && forked[j].ok && same_trajectory(cr, forked[j]);
        if (sizes_ok) fork_stats += forked[j].run.stats;
        ctx.op(same, "fi fork " + cr.name + " differs from cold replay");
      }
      c["cold.instret"] = instret;
      add_dift_stats(c, "cold.", cold_stats);
      add_dift_stats(c, "fork.", fork_stats);

      // Report rendering; the cold and forked documents must be identical
      // once the wall-clock field is fixed.
      std::string cold_json, fork_json;
      {
        Tracer::Scope span("campaign.report", 4'000'000 + fork_jobs_);
        std::vector<fi::Verdict> v;
        fi::build_matrix(suite, cold[s], &v);
        cold_json = fi::matrix_json(suite, cold[s], v, kWorkers, 0.0);
      }
      if (sizes_ok) {
        std::vector<fi::Verdict> v;
        fi::build_matrix(suite, forked, &v);
        fork_json = fi::matrix_json(suite, forked, v, kWorkers, 0.0);
      }
      ctx.op(sizes_ok && cold_json == fork_json,
             "fi report of " + suite.spec.benchmark + " differs cold vs fork");
    }
    fork_rates_.push_back(ratio(static_cast<double>(round_fork_jobs), round_fork_s));
  }

  /// Direct calls into the vp layer on the CPU-bound suite's firmware:
  /// build, load, policy, half a golden run, snapshot, restore into a fresh
  /// VP, and a warm reset.
  void probe_vp(RunContext& ctx) {
    const fi::FiSuite& suite = suites_.front();
    const std::uint64_t id = 5'000'000 + static_cast<std::uint64_t>(probes_++);
    rvasm::Program program;
    {
      Tracer::Scope s("fw.build", id, suite.spec.benchmark.c_str());
      program = campaign::resolve_firmware(suite.spec.benchmark);
    }
    campaign::ResolvedPolicy policy;
    {
      Tracer::Scope s("policy.resolve", id, "code-injection");
      policy = campaign::resolve_policy("code-injection", program);
    }
    auto arm = [&] {
      std::unique_ptr<vp::VpDift> v;
      {
        Tracer::Scope s("vp.build", id, "dift");
        v = std::make_unique<vp::VpDift>();
      }
      {
        Tracer::Scope s("vp.load", id);
        v->load_firmware(program);
      }
      {
        Tracer::Scope s("vp.apply_policy", id, "code-injection");
        v->apply_policy(*policy.policy());
      }
      return v;
    };
    auto src = arm();
    {
      Tracer::Scope s("vp.run", id, "dift");
      src->run(sysc::Time::us(suite.golden_us / 2));
    }
    vp::VpSnapshot snap;
    {
      Tracer::Scope s("vp.snapshot", id);
      snap = src->snapshot();
    }
    snapshot_mb_ = static_cast<double>(snap.ram.size() + snap.ram_tags.size()) /
                   (1024.0 * 1024.0);
    auto dst = arm();
    {
      Tracer::Scope s("vp.restore", id);
      dst->restore(snap);
    }
    vp::RunResult rest_src, rest_dst;
    {
      Tracer::Scope s("vp.run", id, "dift");
      rest_src = src->run(sysc::Time::ms(10000));
      rest_dst = dst->run(sysc::Time::ms(10000));
    }
    // The restored VP must finish exactly like the one it was copied from.
    ctx.op(rest_src.instret == rest_dst.instret &&
               rest_src.sim_time.picos() == rest_dst.sim_time.picos() &&
               campaign::verdict_of(rest_src) == campaign::verdict_of(rest_dst),
           "vp snapshot/restore continuation differs");
    {
      Tracer::Scope s("vp.reset", id);
      src->reset(/*keep_translations=*/true);
    }
  }

  std::vector<fi::FiSuite> suites_;
  int rounds_ = 0;
  int probes_ = 0;
  std::uint64_t cold_jobs_ = 0, fork_jobs_ = 0;
  double cold_s_ = 0, fork_s_ = 0;
  std::vector<double> cold_rates_, fork_rates_;  // jobs/s, one per round
  std::vector<double> job_ms_;  // host-speed normalized
  double job_s_ = 0, setup_s_ = 0;
  std::uint64_t block_misses_ = 0, cold_instret_ = 0;
  fi::ForkStats fork_;
  double snapshot_mb_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_fi_phase() { return std::make_unique<FiPhase>(); }

}  // namespace perfbench
