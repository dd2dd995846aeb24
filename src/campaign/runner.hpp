// Batch execution of campaign jobs on worker threads.
//
// Each job is one self-contained VP simulation: the worker thread builds the
// firmware, the policy and the VirtualPrototype locally, runs it, and folds
// the outcome into a JobResult. Nothing is shared between jobs — the
// thread_local active-context refactor (dift/context.hpp, sysc/kernel.hpp)
// makes a VP thread-confined, and the runner never lets two threads touch
// the same VP. With jobs == 1 the runner degrades to a plain serial loop on
// the calling thread, which is the bit-identical reference the parallel
// paths are tested against.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "dift/policy_parser.hpp"
#include "sa/analyze.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

namespace vpdift::campaign {

/// One retry attempt's outcome, kept so the aggregate report can show what
/// the retries actually absorbed (a job that crashed twice and then passed
/// looks identical to a clean pass in the final verdict alone).
struct AttemptRecord {
  std::string verdict;
  std::string error;  ///< empty unless the attempt crashed
  /// Instructions retired when the attempt ended — for deadline-expired
  /// attempts this is the retirement count at kill time, which is what
  /// deterministic_hang() compares across attempts.
  std::uint64_t instret = 0;
};

/// Outcome of one job (last attempt, if it was retried).
struct JobResult {
  std::string name;
  std::string verdict;  ///< exit:N | violation:<kind> | timeout | wall-timeout
                        ///< | watchdog-reset | trap | crash | hung
                        ///< | unknown(<raw>) for a foreign exit reason
  bool ok = false;      ///< verdict matches the job's `expect` (no crash, if empty)
  int attempts = 0;     ///< 1 + retries actually consumed
  std::string error;    ///< exception message when verdict == "crash"
  std::vector<AttemptRecord> history;  ///< every attempt, in order
  vp::RunResult run;    ///< full VP run result (default-constructed on crash)
  double wall_seconds = 0.0;  ///< host time across all attempts
  /// Static-analysis result for jobs with analyze = true (shared with the
  /// service's analysis cache; null otherwise).
  std::shared_ptr<const sa::AnalysisResult> analysis;
};

struct ResolvedPolicy;

/// Caches one constructed VP per flavour and re-arms it (reset +
/// load_firmware) for the next job instead of rebuilding — the service
/// worker's warm path. Single-threaded by design: a VP is thread-confined,
/// so a pool must only ever be driven from one thread (the service's
/// worker processes each own one).
class VpPool {
 public:
  /// A reset VP matching `cfg` — reused when the cached instance's config
  /// is config_equivalent(), rebuilt otherwise. The reference stays valid
  /// until the next acquire of the same flavour. `fw_key` is the content
  /// hash of the firmware about to be loaded (program_content_key; 0 =
  /// unknown): when it matches the previous acquire of the same flavour,
  /// the re-arm keeps the core's translated-block cache warm — the reload
  /// is byte-identical, so the translations (and their chains) revalidate —
  /// and the reuse is counted in translation_reuses().
  template <typename VpT>
  VpT& acquire(const vp::VpConfig& cfg, std::uint64_t fw_key = 0);

  std::uint64_t builds() const { return builds_; }
  std::uint64_t reuses() const { return reuses_; }
  /// Re-arms that kept the translated-block cache warm (firmware content
  /// hash unchanged since the previous acquire of that flavour).
  std::uint64_t translation_reuses() const { return translation_reuses_; }

 private:
  std::unique_ptr<vp::Vp> plain_;
  std::unique_ptr<vp::VpDift> dift_;
  std::uint64_t plain_fw_key_ = 0;
  std::uint64_t dift_fw_key_ = 0;
  std::uint64_t builds_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t translation_reuses_ = 0;
};

/// Pluggable execution environment for run_job: resolver overrides (how
/// the service's content-hash caches slot in under the runner) and an
/// optional warm-VP pool. Everything here may hold single-threaded state —
/// pass an env only on serial (jobs == 1) runs or per-worker.
struct RunnerEnv {
  /// Override of campaign::resolve_firmware (e.g. an ELF-image cache).
  std::function<rvasm::Program(const std::string&)> resolve_firmware;
  /// Override of campaign::resolve_policy (e.g. a parsed-policy cache).
  /// The returned pointer must stay valid for the duration of the job; a
  /// shared_ptr so a cache can hand out its entry without copying (a
  /// ResolvedPolicy owns its lattice and is move-only).
  std::function<std::shared_ptr<const ResolvedPolicy>(
      const std::string& name, const rvasm::Program& program)>
      resolve_policy;
  /// Override of the static-analysis step for analyze = true jobs (the
  /// service's content-hash analysis cache). Receives the already-resolved
  /// program and policy plus the VP's RAM size; a null return falls back to
  /// running sa::analyze locally.
  std::function<std::shared_ptr<const sa::AnalysisResult>(
      const std::string& firmware, const std::string& policy_name,
      const rvasm::Program& program, const dift::SecurityPolicy* policy,
      std::uint64_t ram_size)>
      resolve_analysis;
  /// Warm-VP pool; nullptr = build a fresh VP per job (the cold path).
  VpPool* pool = nullptr;
  /// Live retirement counter, published every simulated millisecond while a
  /// job runs (and once more with the final count). A service worker points
  /// this at an atomic its heartbeat thread reads, so the supervising parent
  /// can tell a slow job (instret advancing) from a wedged one (stuck).
  /// Null = no progress reporting. The extra observer task never perturbs
  /// the run: execution is a function of simulated time only.
  std::atomic<std::uint64_t>* progress = nullptr;
};

struct RunnerOptions {
  std::size_t jobs = 1;  ///< worker threads; 1 = serial on the calling thread
  /// Called as each job finishes (any worker thread; calls are serialized).
  std::function<void(const JobResult&)> on_done;
  /// Cooperative cancellation (graceful SIGINT/SIGTERM): once set, jobs not
  /// yet started are skipped (verdict "skipped", ok = false, on_done NOT
  /// called) while in-flight jobs finish normally.
  const std::atomic<bool>* cancel = nullptr;
  /// Execution environment forwarded to every run_job call. Environments
  /// hold single-threaded state; only honoured when jobs == 1.
  const RunnerEnv* env = nullptr;
};

class Runner {
 public:
  explicit Runner(RunnerOptions opts = {}) : opts_(std::move(opts)) {}

  /// Executes every job of `spec`; the result vector parallels spec.jobs
  /// regardless of completion order.
  std::vector<JobResult> run(const CampaignSpec& spec);

  /// Executes one job on the calling thread (the worker body; also the
  /// serial path). Never throws — failures become verdict "crash".
  /// `env` (optional) supplies resolver overrides and a warm-VP pool.
  static JobResult run_job(const JobSpec& job, const RunnerEnv* env = nullptr);

 private:
  RunnerOptions opts_;
};

/// Resolves a firmware reference: a builtin name (builtin_firmware_names()),
/// "attack:N" (Table I row N), or a path to an ELF32 file.
rvasm::Program resolve_firmware(const std::string& name);

/// The builtin firmware names resolve_firmware knows (besides "attack:N").
const std::vector<std::string>& builtin_firmware_names();
/// The builtin policy scenario names resolve_policy knows.
const std::vector<std::string>& builtin_policy_names();
/// True iff resolve_firmware resolves `name` from the binary itself (a
/// builtin name or "attack:N") rather than from a file.
bool is_builtin_firmware(const std::string& name);
/// True iff resolve_policy resolves `name` without a file ("" = no policy,
/// or a builtin scenario).
bool is_builtin_policy(const std::string& name);

/// FNV-1a content hash of a resolved program (entry point + every segment's
/// base and bytes) — the identity VpPool::acquire uses to decide whether a
/// warm VP's translated blocks are still valid for the next job. The
/// service's WarmCache::program_key delegates here so both layers agree.
std::uint64_t program_content_key(const rvasm::Program& program);

/// True iff `verdict` satisfies `expect` ("" matches anything but "crash"
/// or "hung"; "exit" / "violation" match any exit code / violation kind;
/// otherwise the comparison is exact).
bool verdict_matches(const std::string& expect, const std::string& verdict);

/// True when the last two attempts both expired their deadline
/// ("wall-timeout" or "hung") with the same retirement count — the job is
/// deterministically stuck, and further retries would burn the same budget
/// to reach the same place. Runner::run_job stops retrying and relabels the
/// result "hung" when this fires.
bool deterministic_hang(const std::vector<AttemptRecord>& history);

/// Sleep before retry number `attempt` (1 = the first retry): exponential
/// base doubling from 25 ms, capped at 400 ms, with a deterministic +-25%
/// jitter derived from `seed` so a fleet of retrying jobs doesn't
/// resynchronize into thundering herds.
std::chrono::milliseconds retry_backoff(int attempt, std::uint64_t seed);

/// A resolved policy keeps whatever owns the lattice alive for the run
/// (scenario bundles own their lattice; parsed files own theirs).
struct ResolvedPolicy {
  std::optional<vp::scenarios::PolicyBundle> bundle;
  std::optional<dift::PolicySpec> file;

  /// The policy to apply, or nullptr for "no policy". Derived on demand:
  /// the SecurityPolicy lives by value inside `bundle`/`file`, so a cached
  /// pointer would dangle as soon as a ResolvedPolicy is moved.
  const dift::SecurityPolicy* policy() const {
    if (bundle) return &bundle->policy;
    if (file) return &file->policy();
    return nullptr;
  }
};

/// Resolves a policy name (a builtin_policy_names() scenario, or a policy
/// file path, optionally "file:PATH") against `program`. Empty name → null
/// policy.
ResolvedPolicy resolve_policy(const std::string& name,
                              const rvasm::Program& program);

/// Canonical attacker byte stream for the attack firmwares ("" otherwise) —
/// what a job without an explicit uart-input receives.
std::string default_uart_input(const std::string& firmware);

/// Maps a finished run to its campaign verdict string
/// (exit:N | violation:<kind> | timeout | wall-timeout | watchdog-reset | trap).
std::string verdict_of(const vp::RunResult& run);

/// The demo AES PIN shared by the immobilizer firmware and engine-ECU config.
const soc::AesKey& demo_pin();

}  // namespace vpdift::campaign
