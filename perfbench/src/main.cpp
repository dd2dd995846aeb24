// vpdift repository benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --out DIR --policies DIR --result FILE
//   perfbench --daemon SOCKET          (internal: the serve-mix daemon)
//
// Every workload runs the three phases (table2-live, fi-campaign,
// serve-mix) so that every metric exists on every workload; the phase the
// workload is named after gets half of the measuring time and the other two
// a quarter each.
// Set-up (inputs, policies, VP construction, daemon start) runs five times
// and is reported as a median. The process (and the daemon it starts)
// runs on one CPU, so the host-speed reference passes (common.hpp) run
// where the measured work runs. The result file carries the metrics, the
// operation counts and the exact counters; the wrapper script compares the
// counters across runs and prints the result line.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "campaign/spec.hpp"
#include "common.hpp"

namespace perfbench {

void RunContext::op(bool ok, const std::string& what) {
  attempted.fetch_add(1);
  if (ok) return;
  failed.fetch_add(1);
  std::lock_guard<std::mutex> lock(log_mu_);
  if (logged_++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void add_dift_stats(CounterSet& c, const std::string& prefix,
                    const dift::DiftStats& s) {
  // dift::to_json is the one counter list; reuse it rather than restate it.
  const campaign::JsonValue v = campaign::json_parse(dift::to_json(s));
  for (const auto& [k, val] : v.object)
    c[prefix + k] = static_cast<std::uint64_t>(val.number);
}

bool same_trajectory(const campaign::JobResult& a, const campaign::JobResult& b) {
  const auto& x = a.run;
  const auto& y = b.run;
  return a.verdict == b.verdict && a.ok == b.ok && x.reason == y.reason &&
         x.exit_code == y.exit_code && x.watchdog_resets == y.watchdog_resets &&
         x.instret == y.instret && x.uart_output == y.uart_output &&
         x.markers == y.markers && x.sim_time.picos() == y.sim_time.picos() &&
         x.stats.lub_calls == y.stats.lub_calls &&
         x.stats.flow_checks == y.stats.flow_checks &&
         x.stats.bus_transactions == y.stats.bus_transactions &&
         x.stats.mem_summary_hits == y.stats.mem_summary_hits &&
         x.stats.dma_summary_hits == y.stats.dma_summary_hits &&
         x.stats.variant_promotions == y.stats.variant_promotions;
}

double span_median_ms(const std::vector<Span>& spans, const char* name,
                      const char* detail) {
  std::vector<double> d;
  for (const Span& s : spans)
    if (std::strcmp(s.name, name) == 0 && (!detail || std::strcmp(s.detail, detail) == 0))
      d.push_back(s.t1_ms - s.t0_ms);
  return median(d);
}

double reference_s() {
  // Seeded table updates with a data-dependent branch: integer ALU, L1 and
  // branch-predictor work, like an interpreter loop. The table is touched
  // untimed first so cache misses stay out of the timed pass.
  static std::vector<std::uint32_t> table(1u << 12);
  std::uint32_t acc = 0;
  for (std::uint32_t v : table) acc += v;
  const auto t0 = Clock::now();
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (int i = 0; i < 400'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::uint32_t& slot = table[(x >> 40) & (table.size() - 1)];
    if ((x >> 20) & 1) {
      acc += slot;
    } else {
      acc ^= slot >> 3;
    }
    slot += static_cast<std::uint32_t>(x >> 11) + acc;
  }
  static volatile std::uint32_t sink;
  sink = acc;
  return seconds_since(t0);
}

namespace {

// A workload is named after the phase it weights (index = phase index).
const char* const kWorkloads[] = {"table2-live", "fi-campaign"};
constexpr int kSetups = 5;

// The spans every traced run records (the benchmark's own calls into each
// layer); their self-time shares say where the run's time went.
const char* const kSpanNames[] = {
    "fw.build",     "policy.resolve", "vp.build",        "vp.reset",
    "vp.load",      "vp.apply_policy", "vp.run",         "vp.snapshot",
    "vp.restore",   "campaign.run_job", "fi.build_suite", "fi.run_forked",
    "campaign.report", "service.submit", "service.encode", "service.decode",
    "sa.analyze"};

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string s = "{";
  char buf[64];
  for (const auto& [name, metric] : m) {
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    s += (s.size() > 1 ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  return s + "}";
}

std::string counters_json(const std::map<std::string, CounterSet>& c) {
  std::string s = "{";
  for (const auto& [key, set] : c) {
    s += (s.size() > 1 ? ",\n  \"" : "\n  \"") + key + "\": {";
    bool first = true;
    for (const auto& [name, v] : set) {
      s += (first ? "\"" : ", \"") + name + "\": " + std::to_string(v);
      first = false;
    }
    s += "}";
  }
  return s + "}";
}

void span_metrics(RunContext& ctx, const std::vector<Span>& spans) {
  ctx.layer("vp.build_ms.plain", span_median_ms(spans, "vp.build", "plain"), "ms");
  ctx.layer("vp.build_ms.dift", span_median_ms(spans, "vp.build", "dift"), "ms");
  ctx.layer("vp.load_ms", span_median_ms(spans, "vp.load"), "ms");
  ctx.layer("policy.resolve_ms", span_median_ms(spans, "policy.resolve"), "ms");
  ctx.layer("fw.build_ms", span_median_ms(spans, "fw.build"), "ms");
  const std::vector<double> self = Tracer::self_ms(spans);
  double total = 0;
  for (double x : self) total += x;
  for (const char* name : kSpanNames) {
    double mine = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (std::strcmp(spans[i].name, name) == 0) mine += self[i];
    ctx.layer(std::string("trace.self_share.") + name, ratio(mine, total), "ratio");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table2-live|fi-campaign "
               "--seed N --seconds S --trace 0|1 --out DIR --policies DIR "
               "--result FILE\n");
  return 2;
}

}  // namespace

int bench_main(int argc, char** argv) {
  RunContext ctx;
  double seconds = 0;
  std::string result_path;
  std::uint64_t trace = 2;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      ctx.workload = v;
    } else if (flag == "--seed" && campaign::parse_u64(v, &n)) {
      ctx.seed = n;
    } else if (flag == "--seconds" && campaign::parse_f64(v, &seconds)) {
    } else if (flag == "--trace" && campaign::parse_u64(v, &trace)) {
    } else if (flag == "--out") {
      ctx.out_dir = v;
    } else if (flag == "--policies") {
      ctx.policy_dir = v;
    } else if (flag == "--result") {
      result_path = v;
    } else {
      return usage();
    }
  }
  int namesake = -1;
  for (int w = 0; w < 2; ++w)
    if (ctx.workload == kWorkloads[w]) namesake = w;
  if (namesake < 0 || seconds <= 0 || trace > 1 || ctx.out_dir.empty() ||
      ctx.policy_dir.empty() || result_path.empty() || (argc % 2) == 0)
    return usage();
  ctx.trace = trace == 1;
  ctx.self_exe = "/proc/self/exe";
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len > 0) ctx.self_exe.assign(exe, static_cast<std::size_t>(len));
  if (ctx.trace) Tracer::get().enable();
  // Pin to the last CPU this process may use (the first usually takes
  // more of the guest's interrupts); threads and children started later
  // inherit the mask.
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = CPU_SETSIZE - 1; c >= 0; --c)
      if (CPU_ISSET(c, &allowed)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        ::sched_setaffinity(0, sizeof one, &one);
        break;
      }
  }

  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(make_table2_phase());
  phases.push_back(make_fi_phase());
  phases.push_back(make_serve_phase());

  std::vector<double> setups;
  double ref = reference_s();
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto t0 = Clock::now();
    for (auto& p : phases) p->prepare(ctx);
    const double secs = seconds_since(t0);
    const double before = ref;
    ref = reference_s();
    // Power 1: starting the daemon is partly waiting for its socket, which
    // a busy host slows less than it slows simulation.
    setups.push_back(secs / ctx.slowdown(before, ref, 1.0));
  }
  // Steps of the three phases are interleaved (the phase furthest behind
  // its budget goes next), so a slow stretch of the shared host hits every
  // phase alike instead of whichever happened to be running.
  double budget[3], spent[3] = {0, 0, 0};
  bool live[3] = {true, true, true};
  for (int w = 0; w < 3; ++w) budget[w] = seconds * (w == namesake ? 0.5 : 0.25);
  for (;;) {
    int next = -1;
    for (int w = 0; w < 3; ++w)
      if (live[w] && spent[w] < budget[w] &&
          (next < 0 || spent[w] / budget[w] < spent[next] / budget[next]))
        next = w;
    if (next < 0) break;
    const auto t0 = Clock::now();
    live[next] = phases[next]->step(ctx);
    spent[next] += seconds_since(t0);
  }

  const std::vector<Span> spans = Tracer::get().spans();
  for (auto& p : phases) p->report(ctx, spans);
  span_metrics(ctx, spans);
  ctx.layer("host.slowdown", median(ctx.slowdowns), "ratio");

  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const double attempted = static_cast<double>(ctx.attempted.load());
  ctx.e2e("setup_s", median(setups), "s");
  ctx.e2e("ok_ratio", 1.0 - ratio(static_cast<double>(ctx.failed.load()), attempted),
          "ratio");
  ctx.e2e("peak_rss_mb",
          static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0, "MiB");

  std::printf("host slowdown vs reference: median %.3f, p10 %.3f, p90 %.3f "
              "(%zu samples)\n",
              median(ctx.slowdowns), quantile(ctx.slowdowns, 0.1),
              quantile(ctx.slowdowns, 0.9), ctx.slowdowns.size());
  std::printf("setup_s median of %d: %.4f s; %llu operations, %llu failed\n",
              kSetups, median(setups),
              static_cast<unsigned long long>(ctx.attempted.load()),
              static_cast<unsigned long long>(ctx.failed.load()));
  std::printf("exact counters:\n");
  for (const auto& [key, set] : ctx.counters) {
    std::printf("  %s:", key.c_str());
    for (const auto& [name, v] : set)
      std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(v));
    std::printf("\n");
  }

  const std::string e2e = metrics_json(ctx.end_to_end);
  std::ofstream out(result_path);
  out << "{\"workload\": \"" << ctx.workload << "\", \"seed\": " << ctx.seed
      << ", \"trace\": " << (ctx.trace ? 1 : 0)
      << ", \"attempted\": " << ctx.attempted.load()
      << ", \"failed\": " << ctx.failed.load() << ",\n\"end_to_end\": " << e2e
      << ",\n\"per_layer\": " << metrics_json(ctx.per_layer)
      << ",\n\"counters\": " << counters_json(ctx.counters) << "}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }
  if (ctx.trace) {
    const std::string path = ctx.out_dir + "/spans-" + ctx.workload + "-" +
                             std::to_string(ctx.seed) + ".json";
    if (!Tracer::get().write(path, e2e)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s\n", spans.size(), path.c_str());
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc moves its mmap and trim thresholds as blocks are freed, so the
  // cost of the per-job 4 MiB RAM and tag buffers (fresh pages or reused
  // heap) depended on the process's allocation history: forked FI jobs/s
  // read ~40 or ~70 by seed. Fixing the thresholds at glibc's defaults
  // turns that adaptation off; both this process and the daemon (this
  // binary re-executed) run with it.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  ::mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  if (argc == 3 && std::strcmp(argv[1], "--daemon") == 0)
    return perfbench::daemon_main(argv[2]);
  try {
    return perfbench::bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
