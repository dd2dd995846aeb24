// table2-live phase: the paper's Table II firmware set, each run as one long
// single-threaded job on three VP flavours:
//   plain      vp::Vp
//   untainted  vp::VpDift under the permissive policy (no classified input
//              reaches the core, so every dispatch takes the plain variant)
//   live       vp::VpDift under perfbench/policies/<firmware>.policy, which
//              classifies what that firmware actually reads
// Set-up (firmware, policies, VP construction) is outside the timed run(),
// so host time is spent in rv, dift and sysc/tlmlite/soc. A reference pass
// runs between consecutive run() calls; each MIPS sample is normalized by
// the passes on either side of it.
#include <cstdio>
#include <memory>

#include "campaign/suites.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kMaxSimMs = 600'000;  // Table II's simulated budget

struct FirmwareDef {
  const char* name;
  std::uint32_t scale;  ///< suites::table2 scale: ~50-100 ms per plain run
  bool cpu_bound;       ///< no interrupts and a single bus transaction
};

// CPU-bound firmwares first, then the interrupt/MMIO-bound ones.
const FirmwareDef kFirmwares[] = {
    {"qsort", 2, true},          {"dhrystone", 1, true},
    {"primes", 1, true},         {"sha512", 6, true},
    {"simple-sensor", 6, false}, {"rtos-tasks", 1, false},
    {"immo-fixed", 3, false},
};

const char* const kFlavours[] = {"plain", "untainted", "live"};

struct Firmware {
  FirmwareDef def;
  rvasm::Program program;
  vp::VpConfig cfg;
  std::shared_ptr<const campaign::ResolvedPolicy> permissive, live;
};

struct Outcome {
  std::string verdict;
  std::uint64_t instret = 0;
  std::uint64_t sim_ps = 0;
  dift::DiftStats stats;
};

template <typename VpT>
Outcome run_one(const Firmware& f, const campaign::ResolvedPolicy* policy,
                std::uint64_t id, double* run_s) {
  std::unique_ptr<VpT> v;
  {
    Tracer::Scope s("vp.build", id, VpT::kTainted ? "dift" : "plain");
    v = std::make_unique<VpT>(f.cfg);
  }
  {
    Tracer::Scope s("vp.load", id);
    v->load_firmware(f.program);
  }
  if (policy) {
    Tracer::Scope s("vp.apply_policy", id);
    v->apply_policy(*policy->policy());
  }
  vp::RunResult r;
  {
    Tracer::Scope s("vp.run", id, VpT::kTainted ? "dift" : "plain");
    const auto t0 = Clock::now();
    r = v->run(sysc::Time::ms(kMaxSimMs));
    *run_s = seconds_since(t0);
  }
  return {campaign::verdict_of(r), r.instret, r.sim_time.picos(), r.stats};
}

class Table2Phase : public Phase {
 public:
  void prepare(RunContext& ctx) override {
    fws_.clear();
    for (const FirmwareDef& d : kFirmwares) {
      const campaign::CampaignSpec spec = campaign::suites::table2(d.scale, {d.name});
      const campaign::JobSpec& job = spec.jobs.at(0);
      Firmware f{d, {}, {}, {}, {}};
      {
        Tracer::Scope s("fw.build", 0, d.name);
        f.program = job.make_program();
      }
      f.cfg = job.make_config();
      {
        Tracer::Scope s("policy.resolve", 0, "permissive");
        f.permissive = std::make_shared<campaign::ResolvedPolicy>(
            campaign::resolve_policy("permissive", f.program));
      }
      {
        Tracer::Scope s("policy.resolve", 0, "live");
        f.live = std::make_shared<campaign::ResolvedPolicy>(campaign::resolve_policy(
            ctx.policy_dir + "/" + d.name + ".policy", f.program));
      }
      // One VP of each flavour armed and discarded: the construction cost a
      // user pays before the first run.
      {
        vp::Vp plain(f.cfg);
        plain.load_firmware(f.program);
        vp::VpDift tainted(f.cfg);
        tainted.load_firmware(f.program);
        tainted.apply_policy(*f.live->policy());
      }
      fws_.push_back(std::move(f));
    }
    samples_.assign(fws_.size() * 3, {});
    first_.assign(fws_.size() * 3, {});
    reps_ = 0;
  }

  bool step(RunContext& ctx) override {
    std::uint64_t id = 1'000'000 + static_cast<std::uint64_t>(reps_) * 100;
    double ref = reference_s();
    {
      for (std::size_t i = 0; i < fws_.size(); ++i) {
        const Firmware& f = fws_[i];
        for (int fl = 0; fl < 3; ++fl) {
          double secs = 0;
          Outcome o;
          try {
            o = fl == 0   ? run_one<vp::Vp>(f, nullptr, ++id, &secs)
                : fl == 1 ? run_one<vp::VpDift>(f, f.permissive.get(), ++id, &secs)
                          : run_one<vp::VpDift>(f, f.live.get(), ++id, &secs);
          } catch (const std::exception& e) {
            o.verdict = std::string("crash: ") + e.what();
          }
          const double before = ref;
          ref = reference_s();
          check(ctx, i, fl, o);
          samples_[i * 3 + fl].push_back(
              secs > 0 ? static_cast<double>(o.instret) / secs / 1e6 *
                             ctx.slowdown(before, ref)
                       : 0.0);
        }
      }
      ++reps_;
    }
    return true;
  }

  void report(RunContext& ctx, const std::vector<Span>&) override {
    std::vector<double> flavour_mips[3];
    std::printf("table2-live: %d reps, median MIPS per firmware\n", reps_);
    std::printf("  %-14s %12s %9s %9s %9s %8s %8s\n", "firmware", "instret",
                "plain", "untaint", "live", "tainted%", "lub/ki");
    for (std::size_t i = 0; i < fws_.size(); ++i) {
      const std::string n = fws_[i].def.name;
      double m[3];
      for (int fl = 0; fl < 3; ++fl) {
        m[fl] = median(samples_[i * 3 + fl]);
        flavour_mips[fl].push_back(m[fl]);
        ctx.layer("rv.mips." + n + "." + kFlavours[fl], m[fl], "MIPS");
        CounterSet& c = ctx.counters["table2:" + n + ":" + kFlavours[fl]];
        const Outcome& o = first_[i * 3 + fl];
        c["instret"] = o.instret;
        c["sim_ps"] = o.sim_ps;
        add_dift_stats(c, "", o.stats);
      }
      const Outcome& live = first_[i * 3 + 2];
      const double kinstr = static_cast<double>(live.instret) / 1000.0;
      const double share = tainted_share(live.stats);
      const double lub = ratio(static_cast<double>(live.stats.lub_calls), kinstr);
      ctx.layer("dift.tainted_share." + n, share, "ratio");
      ctx.layer("dift.lub_per_kinstr." + n, lub, "1/kinstr");
      std::printf("  %-14s %12llu %9.1f %9.1f %9.1f %8.2f %8.3f\n", n.c_str(),
                  static_cast<unsigned long long>(live.instret), m[0], m[1],
                  m[2], 100.0 * share, lub);
    }
    const double plain = geomean(flavour_mips[0]);
    const double untainted = geomean(flavour_mips[1]);
    const double live = geomean(flavour_mips[2]);
    ctx.e2e("plain_mips", plain, "MIPS");
    ctx.e2e("untainted_mips", untainted, "MIPS");
    ctx.e2e("live_mips", live, "MIPS");
    // Printed for comparison with the paper's ~2.0x; deliberately not a
    // gated metric (a faster plain VP would raise it).
    std::printf("  geomean MIPS plain %.1f untainted %.1f live %.1f; "
                "VP+/VP overhead untainted %.3fx live %.3fx\n",
                plain, untainted, live, ratio(plain, untainted),
                ratio(plain, live));

    // Layer ratios from the exact counters of the first rep.
    dift::DiftStats cpu, mmio, all_live;
    std::uint64_t cpu_instr = 0, mmio_instr = 0, live_instr = 0;
    for (std::size_t i = 0; i < fws_.size(); ++i) {
      const Outcome& u = first_[i * 3 + 1];
      (fws_[i].def.cpu_bound ? cpu : mmio) += u.stats;
      (fws_[i].def.cpu_bound ? cpu_instr : mmio_instr) += u.instret;
      all_live += first_[i * 3 + 2].stats;
      live_instr += first_[i * 3 + 2].instret;
    }
    // Block, superblock-trace and variant dispatches are disjoint counts.
    const double cpu_dispatch = static_cast<double>(
        cpu.plain_variant_hits + cpu.tainted_variant_hits + cpu.superblock_hits);
    ctx.layer("rv.dispatch_per_kinstr", ratio(cpu_dispatch, cpu_instr / 1000.0),
              "1/kinstr");
    ctx.layer("rv.ops_per_dispatch", ratio(static_cast<double>(cpu_instr), cpu_dispatch),
              "ops");
    ctx.layer("rv.superblock_share",
              ratio(static_cast<double>(cpu.superblock_hits), cpu_dispatch), "ratio");
    ctx.layer("tlm.bus_per_kinstr",
              ratio(static_cast<double>(mmio.bus_transactions), mmio_instr / 1000.0),
              "1/kinstr");
    ctx.layer("dift.lub_per_kinstr",
              ratio(static_cast<double>(all_live.lub_calls), live_instr / 1000.0),
              "1/kinstr");
    ctx.layer("dift.flow_checks_per_kinstr",
              ratio(static_cast<double>(all_live.flow_checks), live_instr / 1000.0),
              "1/kinstr");
    ctx.layer("dift.promotions", static_cast<double>(all_live.variant_promotions),
              "count");
  }

 private:
  static double tainted_share(const dift::DiftStats& s) {
    return ratio(static_cast<double>(s.tainted_variant_hits),
                 static_cast<double>(s.plain_variant_hits + s.tainted_variant_hits));
  }

  /// Every run must exit 0; instret, simulated time and verdict must agree
  /// across the three flavours and across reps, and the DIFT counters of
  /// one flavour must repeat exactly across reps.
  void check(RunContext& ctx, std::size_t i, int fl, const Outcome& o) {
    const std::string what = std::string(fws_[i].def.name) + "/" + kFlavours[fl];
    bool ok = o.verdict == "exit:0";
    Outcome& first = first_[i * 3 + fl];
    if (reps_ == 0) {
      first = o;
    } else {
      ok = ok && dift::to_json(o.stats) == dift::to_json(first.stats);
    }
    const Outcome& ref = first_[i * 3];
    ok = ok && o.verdict == ref.verdict && o.instret == ref.instret &&
         o.sim_ps == ref.sim_ps;
    ctx.op(ok, "table2 " + what + ": verdict " + o.verdict + ", instret " +
                   std::to_string(o.instret) + " vs " + std::to_string(ref.instret));
  }

  std::vector<Firmware> fws_;
  std::vector<std::vector<double>> samples_;  // [fw * 3 + flavour] MIPS per rep,
                                              // host-speed normalized
  std::vector<Outcome> first_;                // [fw * 3 + flavour] rep 0
  int reps_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_table2_phase() { return std::make_unique<Table2Phase>(); }

}  // namespace perfbench
