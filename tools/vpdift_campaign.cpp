// vpdift-campaign — batch-execution front end for the virtual prototype.
//
//   vpdift-campaign [options] <spec-file>
//   vpdift-campaign [options] fi:<benchmark>:<n-faults>
//   vpdift-campaign [options] --suite table1
//   vpdift-campaign [options] --suite table2[:scale]
//
//   <spec-file>     campaign spec, text or JSON (see src/campaign/spec.hpp
//                   and docs/campaign.md for the format)
//   fi:<bm>:<n>     fault-injection campaign: n seeded faults against
//                   benchmark bm, classified against a fault-free golden
//                   run (see docs/fault_injection.md)
//   --suite NAME    a built-in suite instead of a spec file: the paper's
//                   Table I attack sweep or Table II overhead matrix
//   --jobs N        worker threads (default: $VPDIFT_JOBS, else 1 = serial)
//   --seed N        master seed of the fi: fault schedule (default 1)
//   --fork          fi: campaigns only — fork mode: one golden run per
//                   worker, snapshot at each fault site, execute only the
//                   post-fault tails (bit-identical matrix, fewer retired
//                   instructions; see docs/fault_injection.md)
//   --connect SOCK  submit to a running vpdift-serve daemon on the AF_UNIX
//                   socket SOCK instead of executing locally (spec files
//                   and fi: refs; built-in suites stay local-only). The
//                   report is the daemon's, bit-identical to a local run
//                   plus a "service" cache-counter block (docs/service.md)
//   --connect-timeout S   with --connect: give up after S seconds waiting
//                   for the connection or a control-plane reply (default
//                   30; 0 = wait forever). A daemon that accepted the
//                   socket but never answers fails instead of hanging
//   --analyze       run the static analyzer (CFG + taint reachability,
//                   docs/analysis.md) over every job's firmware x policy:
//                   each job result carries the lint report; execution
//                   is unchanged. Same as `analyze on` on every job.
//                   Spec files and suites only (not fi: campaigns)
//   --out FILE      JSON campaign report (default: CAMPAIGN_<name>.json,
//                   or FI_<benchmark>_<n>.json for fi: campaigns).
//                   "-" streams the report to stdout (progress lines move
//                   to stderr). An existing report file is never
//                   overwritten without --force
//   --force         overwrite an existing report file
//   --quiet         suppress the per-job progress lines
//   --list          print the parsed job list and exit without running
//
// SIGINT/SIGTERM during a local campaign cancel gracefully: in-flight jobs
// finish, the remainder are skipped, and the partial report is written with
// an "interrupted": true field; exit status 1.
//
// Exit status: 0 when every job met its expectation (for --suite table1,
// additionally when all 18 rows match the paper; for fi: campaigns, when no
// fault run crashed the VP), 1 otherwise (or interrupted), 2 on usage or
// spec errors (including a refused report overwrite).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "campaign/aggregator.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suites.hpp"
#include "campaign/thread_pool.hpp"
#include "fi/fork.hpp"
#include "fi/suite.hpp"
#include "service/client.hpp"

using namespace vpdift;

namespace {

std::atomic<bool> g_cancel{false};

void on_cancel_signal(int) { g_cancel.store(true, std::memory_order_relaxed); }

void install_cancel_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_cancel_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // interrupt blocking calls so the cancel is prompt
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int usage() {
  std::fprintf(stderr,
               "usage: vpdift-campaign [--jobs N] [--seed N] [--fork] "
               "[--connect SOCK] [--connect-timeout S] [--analyze] "
               "[--out FILE|-] [--force] "
               "[--quiet] [--list]\n"
               "                       <spec-file | fi:<benchmark>:<n-faults> "
               "| --suite table1 | --suite table2[:scale]>\n");
  return 2;
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

/// Writes `text` to `path`, or to stdout when path is "-". An existing file
/// is refused without `force` (exit-code-2 contract). Returns 0/1/2 style:
/// 0 ok, 1 write failure, 2 refused.
int emit_report(const std::string& path, const std::string& text, bool force,
                FILE* prog) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    return 0;
  }
  if (!force && file_exists(path)) {
    std::fprintf(stderr, "refusing to overwrite %s (use --force)\n",
                 path.c_str());
    return 2;
  }
  std::ofstream out(path);
  if (!(out && (out << text))) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(prog, "wrote %s\n", path.c_str());
  return 0;
}

int print_table1(const std::vector<campaign::JobResult>& results, FILE* prog) {
  const auto rows = campaign::suites::table1_rows(results);
  std::fprintf(prog, "\nTable I — buffer-overflow test-suite results\n");
  std::fprintf(prog, "%-4s %-14s %-26s %-10s %-10s %-10s %s\n", "Atk",
               "Location", "Target", "Technique", "Result", "Paper", "Match");
  int mismatches = 0;
  for (const auto& row : rows) {
    if (!row.match) ++mismatches;
    std::fprintf(prog, "%-4d %-14s %-26s %-10s %-10s %-10s %s%s\n", row.id,
                 row.location, row.target, row.technique, row.result.c_str(),
                 row.expected.c_str(), row.match ? "yes" : "NO",
                 row.result != "N/A" && !row.exploit_works
                     ? "  [warning: exploit inert on plain VP]"
                     : "");
  }
  std::fprintf(prog, "\n%s: %d/18 rows match the paper's Table I.\n",
               mismatches == 0 ? "OK" : "FAILED", 18 - mismatches);
  return mismatches == 0 ? 0 : 1;
}

int print_table2(const std::vector<campaign::JobResult>& results,
                 std::uint32_t scale, FILE* prog) {
  const auto rows = campaign::suites::table2_rows(results, scale);
  std::fprintf(prog,
               "\nTable II — performance overhead of VP-based DIFT "
               "(VP vs VP+)\n");
  std::fprintf(prog, "%-14s %14s | %9s %9s | %5s\n", "Benchmark",
               "#instr exec.", "VP [s]", "VP+ [s]", "Ov");
  bool all_ok = true;
  for (const auto& row : rows) {
    all_ok = all_ok && row.plain.ok && row.dift.ok;
    std::fprintf(prog, "%-14s %14llu | %9.2f %9.2f | %4.1fx%s\n",
                 row.name.c_str(),
                 static_cast<unsigned long long>(row.plain.run.instret),
                 row.plain.run.wall_seconds, row.dift.run.wall_seconds,
                 row.overhead,
                 row.plain.ok && row.dift.ok ? "" : "  [SELF-CHECK FAILED]");
  }
  std::fprintf(prog, "%s\n", all_ok ? "OK: all self-checks passed."
                                    : "FAILED: a workload self-check failed.");
  return all_ok ? 0 : 1;
}

/// Client mode: submit to a vpdift-serve daemon and relay its report.
int run_connected(const std::string& socket_path, const std::string& spec_path,
                  std::uint64_t seed, std::size_t jobs, bool analyze,
                  std::uint64_t connect_timeout_s, const std::string& out_path,
                  bool force, bool quiet, FILE* prog) {
  fi::FiSuiteSpec fi_spec;
  const bool is_fi = fi::parse_fi_ref(spec_path, &fi_spec);
  if (is_fi && analyze) {
    std::fprintf(stderr, "--analyze applies to spec campaigns, not fi:\n");
    return 2;
  }

  std::string report_path = out_path;
  if (report_path.empty()) {
    if (is_fi) {
      report_path = "FI_" + fi_spec.benchmark + "_" +
                    std::to_string(fi_spec.n_faults) + ".json";
      for (char& c : report_path)
        if (c == ':' || c == '/') c = '-';
    } else {
      report_path = "CAMPAIGN_remote.json";
    }
  }
  if (report_path != "-" && !force && file_exists(report_path)) {
    std::fprintf(stderr, "refusing to overwrite %s (use --force)\n",
                 report_path.c_str());
    return 2;
  }

  service::ClientOptions copts;
  copts.timeout_ms = connect_timeout_s * 1000;
  service::Client client(socket_path, copts);
  std::size_t done = 0;
  const auto on_job = [&](const service::JobEvent& je) {
    ++done;
    if (!quiet)
      std::fprintf(prog, "[%zu] %-20s %-28s %s\n", done, je.name.c_str(),
                   je.verdict.c_str(), je.ok ? "ok" : "FAILED");
  };

  service::Outcome out;
  if (is_fi) {
    out = client.submit_ref(spec_path, seed, jobs, on_job);
  } else {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", spec_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    out = client.submit_spec(text.str(), on_job, analyze);
  }
  if (!out.error.empty()) {
    std::fprintf(stderr, "error: server: %s\n", out.error.c_str());
    return 2;
  }
  std::fprintf(prog,
               "service: %zu jobs, golden cache %llu hit%s / %llu miss, "
               "%llu instructions executed\n",
               out.jobs,
               static_cast<unsigned long long>(out.service.golden_cache_hits),
               out.service.golden_cache_hits == 1 ? "" : "s",
               static_cast<unsigned long long>(out.service.golden_cache_misses),
               static_cast<unsigned long long>(out.service.executed_instret));
  const int emit = emit_report(report_path, out.report, force, prog);
  if (emit == 2) return 2;
  return out.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path, suite, out_path, connect_path;
  std::size_t jobs = campaign::ThreadPool::jobs_from_env(1);
  std::uint64_t seed = 1;
  std::uint64_t connect_timeout_s = 30;
  bool quiet = false, list = false, fork_mode = false, force = false;
  bool analyze = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) { usage(); std::exit(2); }
      return argv[++i];
    };
    if (arg == "--jobs") {
      std::uint64_t n = 0;
      const char* v = next();
      if (!campaign::parse_u64(v, &n) || n < 1 || n > 1024) {
        std::fprintf(stderr, "invalid value for --jobs: '%s'\n", v);
        return usage();
      }
      jobs = static_cast<std::size_t>(n);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!campaign::parse_u64(v, &seed)) {
        std::fprintf(stderr, "invalid value for --seed: '%s'\n", v);
        return usage();
      }
    } else if (arg == "--connect-timeout") {
      const char* v = next();
      if (!campaign::parse_u64(v, &connect_timeout_s) ||
          connect_timeout_s > 86400) {
        std::fprintf(stderr, "invalid value for --connect-timeout: '%s'\n", v);
        return usage();
      }
    } else if (arg == "--suite") suite = next();
    else if (arg == "--out") out_path = next();
    else if (arg == "--connect") connect_path = next();
    else if (arg == "--fork") fork_mode = true;
    else if (arg == "--analyze") analyze = true;
    else if (arg == "--force") force = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--list") list = true;
    else if (arg == "--help" || arg == "-h") return usage();
    else if (!arg.empty() && arg[0] == '-' && arg != "-") return usage();
    else spec_path = arg;
  }
  if (spec_path.empty() == suite.empty()) return usage();  // exactly one

  // With --out - the report owns stdout; everything else moves to stderr.
  FILE* const prog = out_path == "-" ? stderr : stdout;

  if (!connect_path.empty()) {
    if (!suite.empty()) {
      std::fprintf(stderr, "--connect takes a spec file or fi: ref, "
                           "not a built-in suite\n");
      return 2;
    }
    if (fork_mode || list) {
      std::fprintf(stderr, "--fork/--list do not apply with --connect "
                           "(the daemon decides the execution mode)\n");
      return 2;
    }
    try {
      return run_connected(connect_path, spec_path, seed, jobs, analyze,
                           connect_timeout_s, out_path, force, quiet, prog);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  try {
    campaign::CampaignSpec spec;
    std::uint32_t table2_scale = 1;
    fi::FiSuiteSpec fi_spec;
    std::optional<fi::FiSuite> fi_suite;
    if (!spec_path.empty() && fi::parse_fi_ref(spec_path, &fi_spec)) {
      fi_spec.seed = seed;
      std::fprintf(prog, "fi: golden run of %s (serial)...\n",
                   fi_spec.benchmark.c_str());
      fi_suite = fi::build_suite(fi_spec);
      std::fprintf(
          prog,
          "fi: golden %s, %llu instructions, %llu us simulated; "
          "%zu faults from seed %llu, watchdog %u us\n",
          fi_suite->golden.verdict.c_str(),
          static_cast<unsigned long long>(fi_suite->golden.run.instret),
          static_cast<unsigned long long>(fi_suite->golden_us),
          fi_suite->faults.size(),
          static_cast<unsigned long long>(fi_spec.seed), fi_suite->wdt_us);
      spec = fi_suite->jobs;
    } else if (suite.empty()) {
      spec = campaign::CampaignSpec::load_file(spec_path);
    } else if (suite == "table1") {
      spec = campaign::suites::table1();
    } else if (suite == "table2" || suite.rfind("table2:", 0) == 0) {
      if (suite.size() > 7) {
        std::uint64_t s = 0;
        if (!campaign::parse_u64(suite.substr(7), &s) || s < 1) {
          std::fprintf(stderr, "invalid table2 scale in '%s'\n", suite.c_str());
          return 2;
        }
        table2_scale = static_cast<std::uint32_t>(s);
      }
      spec = campaign::suites::table2(table2_scale);
    } else {
      std::fprintf(stderr, "unknown suite '%s' (table1 | table2[:scale])\n",
                   suite.c_str());
      return 2;
    }
    if (fork_mode && !fi_suite) {
      std::fprintf(stderr,
                   "--fork applies to fi:<benchmark>:<n> campaigns only\n");
      return 2;
    }
    if (analyze) {
      if (fi_suite) {
        std::fprintf(stderr, "--analyze applies to spec campaigns, not fi:\n");
        return 2;
      }
      for (auto& j : spec.jobs) j.analyze = true;
    }

    // The report path is fixed before anything runs so a refused overwrite
    // costs nothing.
    std::string report_path = out_path;
    if (report_path.empty()) {
      if (fi_suite) {
        report_path = "FI_" + fi_spec.benchmark + "_" +
                      std::to_string(fi_spec.n_faults) + ".json";
        for (char& c : report_path)
          if (c == ':' || c == '/') c = '-';
      } else {
        report_path = "CAMPAIGN_" + spec.name + ".json";
      }
    }
    if (report_path != "-" && !force && file_exists(report_path)) {
      std::fprintf(stderr, "refusing to overwrite %s (use --force)\n",
                   report_path.c_str());
      return 2;
    }

    std::fprintf(prog, "campaign %s: %zu jobs on %zu worker%s\n",
                 spec.name.c_str(), spec.jobs.size(), jobs,
                 jobs == 1 ? "" : "s");
    if (list) {
      for (const auto& j : spec.jobs)
        std::fprintf(prog,
                     "  %-20s fw=%-12s mode=%-7s policy=%-20s max-ms=%llu%s\n",
                     j.name.c_str(), j.firmware.c_str(),
                     campaign::to_string(j.mode),
                     j.policy.empty() ? "-" : j.policy.c_str(),
                     static_cast<unsigned long long>(j.max_ms),
                     j.expect.empty() ? "" : (" expect=" + j.expect).c_str());
      return 0;
    }

    campaign::Aggregator agg;
    std::size_t done = 0;
    campaign::RunnerOptions opts;
    opts.jobs = jobs;
    opts.cancel = &g_cancel;
    opts.on_done = [&](const campaign::JobResult& r) {
      agg.add(r);
      ++done;
      if (!quiet)
        std::fprintf(
            prog, "[%zu/%zu] %-20s %-28s %s (%.2f s%s)\n", done,
            spec.jobs.size(), r.name.c_str(), r.verdict.c_str(),
            r.ok ? "ok" : "FAILED", r.wall_seconds,
            r.attempts > 1
                ? (", " + std::to_string(r.attempts) + " attempts").c_str()
                : "");
    };
    install_cancel_handlers();

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<campaign::JobResult> results;
    fi::ForkStats fork_stats;
    if (fork_mode) {
      results = fi::run_forked(*fi_suite, jobs, opts.on_done, &fork_stats,
                               &g_cancel);
    } else {
      campaign::Runner runner(opts);
      results = runner.run(spec);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    if (g_cancel.load(std::memory_order_relaxed)) {
      // Graceful interrupt: in-flight jobs finished, the rest were skipped.
      // The partial report (finished jobs only) is always the aggregate
      // shape — a detection-coverage matrix over skipped fault runs would
      // misclassify them — and carries "interrupted": true.
      agg.set_interrupted(true);
      std::fprintf(prog, "interrupted: %zu of %zu jobs finished\n", done,
                   spec.jobs.size());
      std::fprintf(prog, "%s\n", agg.summary(spec.name, wall).c_str());
      emit_report(report_path, agg.to_json(spec.name, jobs, wall), force,
                  prog);
      return 1;
    }

    std::fprintf(prog, "%s\n", agg.summary(spec.name, wall).c_str());

    if (fi_suite) {
      std::vector<fi::Verdict> verdicts;
      const fi::CoverageMatrix matrix =
          fi::build_matrix(*fi_suite, results, &verdicts);
      std::fprintf(prog, "\nDetection coverage (%zu faults, golden = %s)\n",
                   matrix.total, fi_suite->golden.verdict.c_str());
      std::fprintf(prog, "%s", fi::matrix_table(matrix).c_str());
      if (fork_mode)
        std::fprintf(
            prog,
            "fork: %zu snapshots; executed %llu instructions "
            "(golden %llu + tails %llu) vs %llu full-replay — %.2fx\n",
            fork_stats.snapshots,
            static_cast<unsigned long long>(fork_stats.executed()),
            static_cast<unsigned long long>(fork_stats.golden_instret),
            static_cast<unsigned long long>(fork_stats.tail_instret),
            static_cast<unsigned long long>(fork_stats.replay_instret),
            fork_stats.speedup());

      const int emit = emit_report(
          report_path, fi::matrix_json(*fi_suite, results, verdicts, jobs, wall),
          force, prog);
      if (emit == 2) return 2;

      const std::size_t crashes = matrix.verdict_total(fi::Verdict::kCrash);
      if (crashes > 0)
        std::fprintf(prog, "FAILED: %zu fault run%s crashed the VP.\n",
                     crashes, crashes == 1 ? "" : "s");
      return crashes == 0 ? 0 : 1;
    }

    const int emit = emit_report(
        report_path, agg.to_json(spec.name, jobs, wall), force, prog);
    if (emit == 2) return 2;

    if (suite == "table1") return print_table1(results, prog);
    if (!suite.empty()) return print_table2(results, table2_scale, prog);
    return agg.all_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
