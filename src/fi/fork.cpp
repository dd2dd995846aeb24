#include "fi/fork.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "fi/injector.hpp"

namespace vpdift::fi {

namespace {

bool is_arch(FaultModel m) {
  return m == FaultModel::kGprFlip || m == FaultModel::kRamFlip ||
         m == FaultModel::kTagCorrupt;
}

/// Everything a worker needs to build a VP equivalent to one of the suite's
/// cold fault jobs, minus the fault itself. One template per worker: the
/// resolved policy owns the lattice, which must stay thread-confined.
struct JobTemplate {
  rvasm::Program program;
  std::string uart_input;
  vp::VpConfig cfg;
  campaign::ResolvedPolicy policy;
  std::uint64_t max_ms = 0;
  std::uint32_t wdt_us = 0;
};

/// Built from the suite's own first fault job (or its golden job when the
/// suite has no faults) through the same job setup Runner::run_job uses.
JobTemplate make_template(const FiSuite& suite) {
  const campaign::JobSpec job = suite.jobs.jobs.empty()
                                    ? golden_job(suite.spec)
                                    : suite.jobs.jobs.front();
  JobTemplate t;
  t.program = campaign::job_program(job);
  t.uart_input = campaign::job_uart_input(job);
  t.cfg = campaign::job_config(job);
  t.policy = campaign::resolve_policy(job.policy, t.program);
  t.max_ms = job.max_ms;
  t.wdt_us = suite.wdt_us;
  return t;
}

/// A VP set up exactly like a cold fault job at t=0: image, policy, UART
/// stream, host-armed watchdog. The cursor runs this as-is; tails restore a
/// snapshot over it (which overwrites the UART/watchdog setup with the
/// captured state — the setup only matters for state equality pre-restore).
std::unique_ptr<vp::VpDift> make_vp(const JobTemplate& t) {
  auto v = std::make_unique<vp::VpDift>(t.cfg);
  v->load(t.program);
  if (const auto* p = t.policy.policy()) v->apply_policy(*p);
  if (!t.uart_input.empty()) v->uart().feed_input(t.uart_input);
  arm_watchdog(*v, t.wdt_us);
  return v;
}

/// Runs one fault's tail from `snap` and composes the cold-equivalent
/// JobResult. `tail_executed` receives the instructions the tail actually
/// retired (the fork engine's share of this job's cost).
campaign::JobResult run_tail(const JobTemplate& t, const FiSuite& suite,
                             std::size_t index, const vp::VpSnapshot& snap,
                             std::uint64_t* tail_executed) {
  const campaign::JobSpec& job = suite.jobs.jobs[index];
  campaign::JobResult res;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    auto w = make_vp(t);
    w->restore(snap);
    apply_now(*w, suite.faults[index]);
    // The cold job's deadline is an absolute ms(max_ms); the tail starts at
    // captured_at, so it gets the remainder of that same absolute budget.
    const sysc::Time budget = sysc::Time::ms(job.max_ms);
    res.run = w->run(budget > snap.captured_at ? budget - snap.captured_at
                                               : sysc::Time());
    *tail_executed = res.run.instret;
    // Compose the cold-equivalent instruction count. run() reported the
    // delta from snap.instret; a cold run reports the delta from zero — add
    // the golden prefix back, UNLESS a watchdog reset restarted the counter
    // (then run() already clamped to the cold-equal since-last-reset value,
    // and the identity below does not hold).
    if (w->core().instret() == snap.instret + res.run.instret)
      res.run.instret += snap.instret;
    // Engine counters: golden-prefix cumulative + tail delta = cold total.
    res.run.stats += snap.stats;
    res.verdict = campaign::verdict_of(res.run);
  } catch (const std::exception& e) {
    res = campaign::JobResult{};
    res.verdict = "crash";
    res.error = e.what();
  } catch (...) {
    res = campaign::JobResult{};
    res.verdict = "crash";
    res.error = "non-std exception";
  }
  res.name = job.name;
  res.attempts = 1;
  res.history = {{res.verdict, res.error}};
  res.ok = campaign::verdict_matches(job.expect, res.verdict);
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

/// Site key for the warm-path cache (same grouping the cursor snapshots by).
std::pair<bool, std::uint64_t> site_key(const FaultSpec& f) {
  return {is_arch(f.model),
          is_arch(f.model) ? f.trigger_instret : f.trigger_us};
}

/// One worker: a golden cursor over a contiguous slice of the fault list.
/// `cache` (optional, single-threaded — only the serial subset path passes
/// one) serves already-seen sites without the cursor and absorbs the sites
/// this run visits.
void run_chunk(const FiSuite& suite, const std::vector<std::size_t>& chunk,
               std::vector<campaign::JobResult>& results,
               const std::function<void(const campaign::JobResult&)>& on_done,
               std::mutex& done_m, ForkStats* stats, std::mutex& stats_m,
               const std::atomic<bool>* cancel = nullptr,
               FiSiteCache* cache = nullptr) {
  const auto cancelled = [cancel] {
    return cancel && cancel->load(std::memory_order_relaxed);
  };

  std::vector<bool> visited(suite.faults.size(), false);
  std::size_t snapshots = 0;
  std::uint64_t tail_instret = 0, replay_instret = 0;

  auto emit = [&](std::size_t i, campaign::JobResult r) {
    if (on_done) {
      std::lock_guard lk(done_m);
      on_done(r);
    }
    results[i] = std::move(r);
  };

  // Skipped (cancelled before start): verdict "skipped", on_done NOT called
  // — the same contract as campaign::Runner's cancellation.
  auto skip_one = [&](std::size_t i) {
    campaign::JobResult r;
    r.name = suite.jobs.jobs[i].name;
    r.verdict = "skipped";
    results[i] = std::move(r);
  };

  auto flush_stats = [&](std::uint64_t golden_instret) {
    if (!stats) return;
    std::lock_guard lk(stats_m);
    stats->golden_instret += golden_instret;
    stats->tail_instret += tail_instret;
    stats->replay_instret += replay_instret;
    stats->snapshots += snapshots;
  };

  if (cancelled()) {
    for (std::size_t i : chunk) skip_one(i);
    return;
  }

  const JobTemplate t = make_template(suite);

  // Synthesizes one fault's result from a golden outcome (the cold job whose
  // trigger never fired ran the fault-free trajectory).
  auto emit_golden = [&](std::size_t i, const campaign::JobResult& golden_res) {
    campaign::JobResult r = golden_res;
    r.name = suite.jobs.jobs[i].name;
    r.ok = campaign::verdict_matches(suite.jobs.jobs[i].expect, r.verdict);
    r.history = {{r.verdict, r.error}};
    if (r.verdict != "crash") replay_instret += r.run.instret;
    emit(i, std::move(r));
  };

  // Runs one fault's tail from `snap` and accounts for it.
  auto emit_tail = [&](std::size_t i, const vp::VpSnapshot& snap) {
    std::uint64_t executed = 0;
    campaign::JobResult r = run_tail(t, suite, i, snap, &executed);
    tail_instret += executed;
    replay_instret += r.verdict == "crash" ? 0 : r.run.instret;
    emit(i, std::move(r));
  };

  // Group the chunk's faults by trigger site: one snapshot per site.
  std::map<std::uint64_t, std::vector<std::size_t>> arch_sites;
  std::map<std::uint64_t, std::vector<std::size_t>> time_sites;
  for (std::size_t i : chunk) {
    const FaultSpec& f = suite.faults[i];
    auto& group = is_arch(f.model) ? arch_sites[f.trigger_instret]
                                   : time_sites[f.trigger_us];
    group.push_back(i);
  }

  // Warm path: sites already in the cache replay their tails (or synthesize
  // their unreached result) right away — those never touch the cursor.
  auto serve_cached = [&](bool arch,
                          std::map<std::uint64_t, std::vector<std::size_t>>&
                              sites_map) {
    if (!cache) return;
    for (auto it = sites_map.begin(); it != sites_map.end();) {
      const auto ce = cache->sites.find({arch, it->first});
      const bool usable =
          ce != cache->sites.end() &&
          (ce->second.snap || (ce->second.unreached && cache->have_golden));
      if (!usable) {
        ++cache->misses;
        ++it;
        continue;
      }
      ++cache->hits;
      for (std::size_t i : it->second) {
        visited[i] = true;
        if (cancelled()) {
          skip_one(i);
          continue;
        }
        if (ce->second.unreached)
          emit_golden(i, cache->golden);
        else
          emit_tail(i, *ce->second.snap);
      }
      it = sites_map.erase(it);
    }
  };
  serve_cached(true, arch_sites);
  serve_cached(false, time_sites);

  if (arch_sites.empty() && time_sites.empty()) {
    flush_stats(0);  // fully warm: no cursor ran at all
    return;
  }

  auto cursor = make_vp(t);

  auto process_site = [&](bool arch, std::uint64_t trigger,
                          const std::vector<std::size_t>& faults_here) {
    if (cancelled()) {
      // Skip this site's jobs and wind the cursor down — remaining sites
      // fall through to the skip loop below.
      cursor->sim().stop();
      for (std::size_t i : faults_here) {
        visited[i] = true;
        skip_one(i);
      }
      return;
    }
    auto snap = std::make_shared<const vp::VpSnapshot>(cursor->snapshot());
    ++snapshots;
    if (cache && cache->stored < cache->snapshot_cap) {
      cache->sites[{arch, trigger}] = FiSiteCache::Entry{snap, false};
      ++cache->stored;
    }
    for (std::size_t i : faults_here) {
      visited[i] = true;
      if (cancelled()) {
        skip_one(i);
        continue;
      }
      emit_tail(i, *snap);
    }
  };

  // Chain the architectural sites along the retired-instruction axis: the
  // core disarms before invoking a callback, so each callback arms the next
  // site. Triggers are in [1, golden instret), so every site is reached.
  std::vector<std::pair<std::uint64_t, const std::vector<std::size_t>*>> chain;
  chain.reserve(arch_sites.size());
  for (const auto& [at, group] : arch_sites) chain.push_back({at, &group});
  std::size_t next_arch = 0;
  std::function<void()> arm_next = [&] {
    if (next_arch >= chain.size()) return;
    const auto site = chain[next_arch++];
    cursor->core().arm_fault(
        site.first, [&, site](rv::Core<rv::TaintedWord>&) {
          process_site(true, site.first, *site.second);
          arm_next();
        });
  };
  arm_next();

  // Time sites are scheduled before the run starts, like fi::arm() does for
  // a cold job — setup-time scheduling keeps the same event order at equal
  // timestamps. A site past the firmware's exit simply never fires, exactly
  // as the cold job's fault never fires.
  for (const auto& [us, group] : time_sites) {
    const std::uint64_t trigger = us;
    const std::vector<std::size_t>* site = &group;
    cursor->sim().schedule_in(sysc::Time::us(us), [&, trigger, site] {
      process_site(false, trigger, *site);
    });
  }

  std::string cursor_error;
  vp::RunResult golden;
  try {
    golden = cursor->run(sysc::Time::ms(t.max_ms));
  } catch (const std::exception& e) {
    cursor_error = e.what();
  } catch (...) {
    cursor_error = "non-std exception";
  }

  // Unvisited sites: the cursor ended before the trigger, so the cold job's
  // fault would never have fired — its result IS the golden outcome. (If the
  // run was cancelled mid-cursor, "unvisited" instead means "skipped": the
  // truncated golden is not a valid outcome, and nothing gets cached.)
  campaign::JobResult golden_res;
  golden_res.run = golden;
  golden_res.verdict =
      cursor_error.empty() ? campaign::verdict_of(golden) : "crash";
  golden_res.error = cursor_error;
  golden_res.attempts = 1;
  const bool golden_valid = cursor_error.empty() && !cancelled();
  if (cache && golden_valid && !cache->have_golden) {
    cache->golden = golden_res;
    cache->have_golden = true;
  }
  for (std::size_t i : chunk) {
    if (visited[i]) continue;
    if (cancelled()) {
      skip_one(i);
      continue;
    }
    if (cache && golden_valid) {
      FiSiteCache::Entry& e = cache->sites[site_key(suite.faults[i])];
      if (!e.snap) e.unreached = true;
    }
    emit_golden(i, golden_res);
  }

  flush_stats(golden.instret);
}

}  // namespace

std::vector<campaign::JobResult> run_forked(
    const FiSuite& suite, std::size_t jobs,
    const std::function<void(const campaign::JobResult&)>& on_done,
    ForkStats* stats, const std::atomic<bool>* cancel) {
  const std::size_t n = suite.faults.size();
  if (stats) *stats = ForkStats{};
  std::vector<campaign::JobResult> results(n);
  if (n == 0) return results;

  const std::size_t workers = std::max<std::size_t>(1, std::min(jobs, n));
  std::vector<std::vector<std::size_t>> chunks(workers);
  for (std::size_t i = 0; i < n; ++i) chunks[i * workers / n].push_back(i);

  std::mutex done_m, stats_m;
  campaign::parallel_for(workers, workers, [&](std::size_t c) {
    run_chunk(suite, chunks[c], results, on_done, done_m, stats, stats_m,
              cancel);
  });
  return results;
}

std::vector<campaign::JobResult> run_forked_subset(
    const FiSuite& suite, const std::vector<std::size_t>& indices,
    const std::function<void(const campaign::JobResult&)>& on_done,
    ForkStats* stats, FiSiteCache* cache, const std::atomic<bool>* cancel) {
  if (stats) *stats = ForkStats{};
  std::vector<campaign::JobResult> results(suite.faults.size());

  std::vector<std::size_t> chunk = indices;
  std::sort(chunk.begin(), chunk.end());
  chunk.erase(std::unique(chunk.begin(), chunk.end()), chunk.end());
  if (!chunk.empty() && chunk.back() >= suite.faults.size())
    throw std::invalid_argument("run_forked_subset: index out of range");
  if (chunk.empty()) return results;

  std::mutex done_m, stats_m;
  run_chunk(suite, chunk, results, on_done, done_m, stats, stats_m, cancel,
            cache);
  return results;
}

}  // namespace vpdift::fi
