// serve-mix phase: a closed loop against a vpdift-serve daemon (1 worker
// process) that this binary starts in a child process, driven by one load
// thread over one connection. The load is two streams, each a seeded
// sequence built from cycles of twenty submissions in fixed shares:
//   8 spec repeats   resubmit an earlier spec: served from the result cache
//   7 fresh specs    a short attack-firmware job with seeded benign UART
//                    input; one in four carries `analyze on`
//   1 fi repeat      an earlier fi:<firmware>:4 ref and seed: golden and
//                    fault-site caches hit
//   4 fresh fi refs  a new seed: the fault-site cache misses
// Each round sends both streams' specs first and their fi refs second.
// Sorted by latency the classes are then spec repeats (~0.5 ms) < fresh
// specs (~5 ms) < fi repeats < fresh fi refs (~100 ms), and the shares put
// the median inside the fresh-spec class and the 90th percentile in the
// middle of the fresh-fi class, away from the sparse regions between modes
// where a quantile would jump from run to run.
//
// The two streams use disjoint firmware (qsort + attack:3 and rtos-tasks +
// attack:5). Submissions are served one at a time in a seeded order, so the
// cache counters of a round are exact. A fresh daemon serves each round.
//
// One worker and one connection, not two of each: on a shared 4-vCPU host
// two workers racing for the CPUs (a fault campaign is sharded across all
// workers) moved the round-trip p90 and the submission rate by ~0.3 of
// their medians between runs of one build. The daemon shares the
// benchmark's CPU, and a reference pass after every submission normalizes
// its round trip for host speed. The rate is a median over rounds of
// submissions per second of closed-loop time (the round trips' sum, the
// reference passes left out), so a slow stretch of the host costs a few
// rounds, not the figure.
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "campaign/aggregator.hpp"
#include "campaign/json.hpp"
#include "campaign/spec.hpp"
#include "common.hpp"
#include "fi/fork.hpp"
#include "fi/suite.hpp"
#include "sa/analyze.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

extern char** environ;

namespace perfbench {

namespace {

using campaign::JsonValue;

constexpr std::size_t kStreams = 2;
constexpr std::size_t kFiFaults = 4;

struct StreamDef {
  const char* fi_firmware;
  const char* spec_firmware;
};
const StreamDef kStreamDefs[kStreams] = {{"qsort", "attack:3"},
                                         {"rtos-tasks", "attack:5"}};

enum class Kind { kSpecRepeat, kSpecFresh, kFiRepeat, kFiFresh };
constexpr int kCycleLen = 20;
constexpr int kCycleShares[4] = {8, 7, 1, 4};  // per Kind, summing to kCycleLen

bool is_spec(Kind k) { return k == Kind::kSpecRepeat || k == Kind::kSpecFresh; }
bool is_fresh(Kind k) { return k == Kind::kSpecFresh || k == Kind::kFiFresh; }

struct Submission {
  Kind kind = Kind::kSpecFresh;
  std::string spec_text;   ///< spec submissions
  bool analyze = false;
  std::string fi_ref;      ///< fi submissions
  std::uint64_t fi_seed = 0;
  std::uint64_t id = 0;
};

struct Result {
  service::Outcome outcome;
  double rtt_ms = 0;
};

/// Canonical JSON text (object keys in document order, numbers at full
/// precision) for field-wise report comparison.
std::string dump(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.number);
      return buf;
    }
    case JsonValue::Kind::kString: return "\"" + campaign::json_escape(v.string) + "\"";
    case JsonValue::Kind::kArray: {
      std::string s = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i)
        s += (i ? "," : "") + dump(v.array[i]);
      return s + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string s = "{";
      for (std::size_t i = 0; i < v.object.size(); ++i)
        s += (i ? ",\"" : "\"") + v.object[i].first + "\":" + dump(v.object[i].second);
      return s + "}";
    }
  }
  return "";
}

std::string field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v ? dump(*v) : "<absent>";
}

/// Job outcome fields a daemon report must share with the in-process run:
/// everything but wall-clock fields and the cache-temperature-dependent
/// dispatch counters.
std::string job_identity(const JsonValue& r) {
  static const char* const kKeys[] = {"name", "verdict", "ok", "reason",
                                      "exit_code", "watchdog_resets",
                                      "instret", "sim_ms", "analysis"};
  static const char* const kStats[] = {"lub_calls", "flow_checks",
                                       "bus_transactions", "mem_summary_hits",
                                       "dma_summary_hits", "variant_promotions"};
  std::string s;
  for (const char* k : kKeys) s += std::string(k) + "=" + field(r, k) + ";";
  if (const JsonValue* st = r.find("dift_stats"))
    for (const char* k : kStats) s += std::string(k) + "=" + field(*st, k) + ";";
  return s;
}

/// FI report fields a daemon report must share with the in-process run.
std::string fi_identity(const JsonValue& r) {
  static const char* const kKeys[] = {"suite", "benchmark", "seed", "golden",
                                      "wdt_us", "matrix", "verdict_totals",
                                      "faults"};
  std::string s;
  for (const char* k : kKeys) s += std::string(k) + "=" + field(r, k) + ";";
  return s;
}

std::string escape_payload(const std::string& bytes) {
  std::string s;
  char buf[8];
  for (unsigned char b : bytes) {
    if (b >= 'a' && b <= 'z') {
      s += static_cast<char>(b);
    } else {
      std::snprintf(buf, sizeof buf, "\\x%02x", b);
      s += buf;
    }
  }
  return s;
}

std::vector<Submission> make_sequence(std::uint64_t seed, int round, std::size_t stream) {
  Rng rng(seed * 7919 + static_cast<std::uint64_t>(round) * 31 + stream);
  const StreamDef& d = kStreamDefs[stream];
  std::vector<Submission> seq;
  std::vector<std::size_t> specs, fis;  // indices of fresh submissions
  std::size_t fresh_specs = 0;
  Kind kinds[kCycleLen];
  for (int k = 0, n = 0; k < 4; ++k)
    for (int j = 0; j < kCycleShares[k]; ++j) kinds[n++] = static_cast<Kind>(k);
  for (int i = kCycleLen - 1; i > 0; --i)
    std::swap(kinds[i], kinds[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  // A repeat needs an earlier fresh submission of its family: move the
  // family's first fresh slot ahead of it when the shuffle did not.
  for (int i = 0; i < kCycleLen; ++i) {
    const bool spec = is_spec(kinds[i]);
    if (is_fresh(kinds[i])) continue;
    bool earlier = false;
    for (int j = 0; j < i; ++j) earlier |= is_fresh(kinds[j]) && is_spec(kinds[j]) == spec;
    if (earlier) continue;
    for (int j = i + 1; j < kCycleLen; ++j)
      if (is_fresh(kinds[j]) && is_spec(kinds[j]) == spec) {
        std::swap(kinds[i], kinds[j]);
        break;
      }
  }
  for (Kind k : kinds) {
    Submission s;
    s.kind = k;
    s.id = 6'000'000 + static_cast<std::uint64_t>(round) * 1000 + stream * 100 + seq.size();
    if (k == Kind::kSpecFresh) {
      const std::string name = "s" + std::to_string(stream) + "-" +
                               std::to_string(seed % 100000) + "-" +
                               std::to_string(round) + "-" + std::to_string(seq.size());
      std::string payload(1, static_cast<char>(1 + rng.below(8)));
      for (std::size_t b = 0; b < static_cast<unsigned char>(payload[0]); ++b)
        payload += static_cast<char>('a' + rng.below(26));
      s.analyze = fresh_specs++ % 4 == 0;
      s.spec_text = "campaign " + name + "\njob " + name + "\n  firmware " +
                    d.spec_firmware +
                    "\n  policy code-injection\n  mode dift\n  uart-input " +
                    escape_payload(payload) + "\n  max-ms 200\n  expect exit:0\n" +
                    (s.analyze ? "  analyze on\n" : "");
      specs.push_back(seq.size());
    } else if (k == Kind::kFiFresh) {
      s.fi_ref = std::string("fi:") + d.fi_firmware + ":" + std::to_string(kFiFaults);
      s.fi_seed = rng.next() % 1'000'000'007ull;
      fis.push_back(seq.size());
    } else {
      const std::vector<std::size_t>& pool = k == Kind::kSpecRepeat ? specs : fis;
      const Submission& prev = seq[pool[rng.below(pool.size())]];
      s.spec_text = prev.spec_text;
      s.analyze = prev.analyze;
      s.fi_ref = prev.fi_ref;
      s.fi_seed = prev.fi_seed;
    }
    seq.push_back(std::move(s));
  }
  return seq;
}

pid_t start_daemon(const RunContext& ctx, const std::string& sock) {
  ::unlink(sock.c_str());
  std::string exe = ctx.self_exe;
  std::string flag = "--daemon";
  std::string path = sock;
  char* argv[] = {exe.data(), flag.data(), path.data(), nullptr};
  pid_t pid = -1;
  if (::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv, environ) != 0)
    return -1;
  return pid;
}

bool wait_ready(const std::string& sock, double timeout_s) {
  const auto t0 = Clock::now();
  service::ClientOptions opts;
  opts.timeout_ms = 2000;
  while (seconds_since(t0) < timeout_s) {
    try {
      service::Client c(sock, opts);
      if (c.ping()) return true;
    } catch (const std::exception&) {
    }
    ::usleep(500);
  }
  return false;
}

/// Asks the daemon to drain, then reaps it (SIGKILL after 20 s).
bool stop_daemon(pid_t pid, const std::string& sock) {
  if (pid <= 0) return false;
  try {
    service::ClientOptions opts;
    opts.timeout_ms = 5000;
    service::Client c(sock, opts);
    c.shutdown_server();
  } catch (const std::exception&) {
    ::kill(pid, SIGTERM);
  }
  const auto t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (seconds_since(t0) > 20) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return false;
    }
    ::usleep(200);
  }
  ::unlink(sock.c_str());
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

class ServePhase : public Phase {
 public:
  void prepare(RunContext& ctx) override {
    const std::string sock = socket_path(ctx, -1);
    const pid_t pid = start_daemon(ctx, sock);
    const bool ready = pid > 0 && wait_ready(sock, 30);
    const bool stopped = stop_daemon(pid, sock);
    ctx.op(ready && stopped, "serve: daemon did not start and stop cleanly");
  }

  bool step(RunContext& ctx) override { return run_round(ctx, rounds_++); }

  void report(RunContext& ctx, const std::vector<Span>& spans) override {
    static const char* const kClass[] = {"spec repeat", "fresh spec", "fi repeat",
                                         "fresh fi"};
    for (int k = 0; k < 4; ++k)
      std::printf("  %-11s n=%zu rtt p50 %.3f ms p90 %.3f ms\n", kClass[k],
                  class_ms_[k].size(), quantile(class_ms_[k], 0.5),
                  quantile(class_ms_[k], 0.9));
    ctx.e2e("rtt_p50_ms", quantile(rtt_ms_, 0.5), "ms");
    ctx.e2e("rtt_p90_ms", quantile(rtt_ms_, 0.9), "ms");
    ctx.e2e("submissions_per_s", median(round_rates_), "1/s");
    std::printf("serve-mix: %d rounds, %zu submissions in %.3f s, rtt p50 %.3f ms "
                "p90 %.3f ms; cache %s\n",
                rounds_, rtt_ms_.size(), loop_s_, quantile(rtt_ms_, 0.5),
                quantile(rtt_ms_, 0.9), total_.to_json().c_str());
    const auto& t = total_;
    ctx.layer("service.golden_hit_ratio",
              ratio(t.golden_cache_hits, t.golden_cache_hits + t.golden_cache_misses),
              "ratio");
    ctx.layer("service.vp_reuse_ratio", ratio(t.vp_reuses, t.vp_reuses + t.vp_builds),
              "ratio");
    ctx.layer("service.translation_reuse_ratio",
              ratio(t.translation_reuses, t.vp_reuses + t.vp_builds), "ratio");
    ctx.layer("service.instret_per_submission",
              ratio(static_cast<double>(t.executed_instret),
                    static_cast<double>(rtt_ms_.size())),
              "instr");
    ctx.layer("service.analysis_hit_ratio",
              ratio(t.analysis_hits, t.analysis_hits + t.analysis_misses), "ratio");
    ctx.layer("rv.pinned_share", ratio(pinned_hits_, analyze_dispatches_), "ratio");
    ctx.layer("service.encode_ms", span_median_ms(spans, "service.encode"), "ms");
    ctx.layer("service.decode_ms", span_median_ms(spans, "service.decode"), "ms");
    ctx.layer("sa.analyze_ms", span_median_ms(spans, "sa.analyze"), "ms");
  }

 private:
  static std::string socket_path(const RunContext& ctx, int round) {
    return ctx.out_dir + "/d" + std::to_string(::getpid()) + "-" +
           std::to_string(round + 1) + ".sock";
  }

  bool run_round(RunContext& ctx, int round) {
    const std::string sock = socket_path(ctx, round);
    const pid_t pid = start_daemon(ctx, sock);
    if (pid <= 0 || !wait_ready(sock, 30)) {
      stop_daemon(pid, sock);
      ctx.op(false, "serve: daemon not ready");
      return false;
    }
    std::vector<std::vector<Submission>> seqs(kStreams);
    std::vector<std::vector<Result>> results(kStreams);
    for (std::size_t c = 0; c < kStreams; ++c) {
      seqs[c] = make_sequence(ctx.seed, round, c);
      results[c].resize(seqs[c].size());
    }
    // Spec submissions first, then fi refs: within each half the seeded
    // order of each stream stands, and no spec waits behind a fault
    // campaign, which would smear the spec latencies into the gap between
    // the classes.
    const auto l0 = Clock::now();
    double round_s = 0;  // sum of the round's normalized round trips
    try {
      service::Client client(sock);
      double ref = reference_s();
      for (const bool fi_half : {false, true})
        for (std::size_t c = 0; c < kStreams; ++c)
          for (std::size_t i = 0; i < seqs[c].size(); ++i) {
            const Submission& s = seqs[c][i];
            if (is_spec(s.kind) == fi_half) continue;
            Result& r = results[c][i];
            Tracer::Scope span("service.submit", s.id, is_spec(s.kind) ? "spec" : "fi");
            const auto t0 = Clock::now();
            r.outcome = is_spec(s.kind) ? client.submit_spec(s.spec_text)
                                        : client.submit_ref(s.fi_ref, s.fi_seed);
            const double secs = seconds_since(t0);
            const double before = ref;
            ref = reference_s();
            r.rtt_ms = secs * 1e3 / ctx.slowdown(before, ref);
            round_s += r.rtt_ms / 1e3;
          }
    } catch (const std::exception& e) {
      for (std::size_t c = 0; c < kStreams; ++c)
        for (Result& r : results[c])
          if (r.rtt_ms == 0) r.outcome.error = e.what();
    }
    loop_s_ += seconds_since(l0);
    std::size_t round_subs = 0;
    for (const auto& seq : seqs) round_subs += seq.size();
    round_rates_.push_back(ratio(static_cast<double>(round_subs), round_s));
    ctx.op(stop_daemon(pid, sock), "serve: daemon did not shut down cleanly");

    service::CacheStats round_stats;
    for (std::size_t c = 0; c < kStreams; ++c)
      for (std::size_t i = 0; i < seqs[c].size(); ++i) {
        const Result& r = results[c][i];
        rtt_ms_.push_back(r.rtt_ms);
        class_ms_[static_cast<int>(seqs[c][i].kind)].push_back(r.rtt_ms);
        round_stats += r.outcome.service;
        ctx.op(r.outcome.error.empty() && r.rtt_ms > 0 && verify(ctx, seqs[c][i], r),
               "serve submission " + std::to_string(seqs[c][i].id) + ": " +
                   (r.outcome.error.empty() ? "report differs from in-process run"
                                            : r.outcome.error));
      }
    total_ += round_stats;
    CounterSet& cs = ctx.counters["serve:" + std::to_string(ctx.seed) + ":" +
                                  std::to_string(round)];
    const auto& s = round_stats;
    cs = {{"elf_hits", s.elf_hits},           {"elf_misses", s.elf_misses},
          {"policy_hits", s.policy_hits},     {"policy_misses", s.policy_misses},
          {"golden_hits", s.golden_cache_hits},
          {"golden_misses", s.golden_cache_misses},
          {"analysis_hits", s.analysis_hits}, {"analysis_misses", s.analysis_misses},
          {"snapshot_hits", s.snapshot_hits}, {"snapshot_misses", s.snapshot_misses},
          {"vp_builds", s.vp_builds},         {"vp_reuses", s.vp_reuses},
          {"executed_instret", s.executed_instret},
          {"hung_jobs", s.hung_jobs},         {"killed_workers", s.killed_workers},
          {"shed_submissions", s.shed_submissions}};
    return true;
  }

  /// Compares a daemon report with the same submission run in-process.
  bool verify(RunContext& ctx, const Submission& s, const Result& r) {
    JsonValue got;
    try {
      got = campaign::json_parse(r.outcome.report);
    } catch (const std::exception&) {
      return false;
    }
    if (is_spec(s.kind)) {
      const JsonValue* results = got.find("results");
      if (!results || results->array.size() != 1) return false;
      return job_identity(results->array[0]) == spec_reference(ctx, s);
    }
    return fi_identity(got) == fi_reference(s);
  }

  /// In-process run of a spec submission through campaign::Runner, cached
  /// by spec text; also times the service's JobResult wire encoding.
  const std::string& spec_reference(RunContext& ctx, const Submission& s) {
    auto it = spec_refs_.find(s.spec_text);
    if (it != spec_refs_.end()) return it->second;
    const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(s.spec_text);
    campaign::RunnerEnv env;
    env.resolve_analysis = [](const std::string&, const std::string&,
                              const rvasm::Program& program,
                              const dift::SecurityPolicy* policy,
                              std::uint64_t ram_size) {
      Tracer::Scope span("sa.analyze");
      sa::AnalyzeOptions opts;
      opts.ram_size = ram_size;
      return std::make_shared<const sa::AnalysisResult>(sa::analyze(program, policy, opts));
    };
    campaign::JobResult res;
    {
      Tracer::Scope span("campaign.run_job", s.id, "reference");
      res = campaign::Runner::run_job(spec.jobs.at(0), ctx.trace ? &env : nullptr);
    }
    round_trip(ctx, res, s.id);
    if (s.analyze) {
      pinned_hits_ += static_cast<double>(res.run.stats.sa_pinned_hits);
      analyze_dispatches_ += static_cast<double>(res.run.stats.plain_variant_hits +
                                                 res.run.stats.tainted_variant_hits);
    }
    campaign::Aggregator agg;
    agg.add(res);
    const JsonValue doc = campaign::json_parse(agg.to_json(spec.name, 1, 0.0));
    return spec_refs_[s.spec_text] = job_identity(doc.find("results")->array.at(0));
  }

  /// In-process fork campaign for an fi submission, cached by (ref, seed).
  const std::string& fi_reference(const Submission& s) {
    const std::string key = s.fi_ref + "@" + std::to_string(s.fi_seed);
    auto it = fi_refs_.find(key);
    if (it != fi_refs_.end()) return it->second;
    fi::FiSuiteSpec spec;
    if (!fi::parse_fi_ref(s.fi_ref, &spec)) return fi_refs_[key] = "bad ref";
    spec.seed = s.fi_seed;
    const fi::FiSuite suite = fi::build_suite(spec);
    const std::vector<campaign::JobResult> results = fi::run_forked(suite, 2);
    std::vector<fi::Verdict> verdicts;
    fi::build_matrix(suite, results, &verdicts);
    const JsonValue doc =
        campaign::json_parse(fi::matrix_json(suite, results, verdicts, 2, 0.0));
    return fi_refs_[key] = fi_identity(doc);
  }

  /// service::job_result_to_json / _from_json on one result, timed; the
  /// decoded copy must re-encode to the same text.
  void round_trip(RunContext& ctx, const campaign::JobResult& res, std::uint64_t id) {
    std::string wire;
    {
      Tracer::Scope span("service.encode", id);
      wire = service::job_result_to_json(res);
    }
    campaign::JobResult back;
    {
      Tracer::Scope span("service.decode", id);
      back = service::job_result_from_json(campaign::json_parse(wire));
    }
    ctx.op(service::job_result_to_json(back) == wire,
           "service wire round trip changed job " + res.name);
  }

  int rounds_ = 0;
  std::vector<double> rtt_ms_;
  std::vector<double> class_ms_[4];
  double loop_s_ = 0;
  std::vector<double> round_rates_;  // submissions/s, one per round
  service::CacheStats total_;
  double pinned_hits_ = 0, analyze_dispatches_ = 0;
  std::map<std::string, std::string> spec_refs_, fi_refs_;
};

}  // namespace

std::unique_ptr<Phase> make_serve_phase() { return std::make_unique<ServePhase>(); }

int daemon_main(const std::string& socket_path) {
  // Never outlive the benchmark process that started this daemon.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() == 1) return 1;
  service::ServerOptions opts;
  opts.socket_path = socket_path;
  opts.workers = 1;
  opts.quiet = true;
  return service::run_server(opts);
}

}  // namespace perfbench
