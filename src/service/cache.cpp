#include "service/cache.hpp"

#include <utility>

#include "service/hash.hpp"

namespace vpdift::service {

CacheStats cache_stats_from_json(const campaign::JsonValue& obj) {
  return campaign::counters_from_json<CacheStats>(obj);
}

// Builtin references key by NAME (their content is compiled into this
// binary and can only change with it); anything else is a path whose bytes
// are the identity.
std::uint64_t WarmCache::firmware_key(const std::string& name) {
  if (campaign::is_builtin_firmware(name))
    return fnv1a64(name, fnv1a64("builtin-fw:"));
  return hash_file(name);
}

std::uint64_t WarmCache::program_key(const rvasm::Program& program) {
  // Single source of truth: the pool's warm-translation gate hashes the
  // resolved program the same way, so a policy-cache key and a translation
  // reuse decision can never disagree about firmware identity.
  return campaign::program_content_key(program);
}

std::uint64_t WarmCache::policy_content_key(const std::string& name) {
  if (campaign::is_builtin_policy(name))
    return fnv1a64(name, fnv1a64("builtin-policy:"));
  const std::string path = name.rfind("file:", 0) == 0 ? name.substr(5) : name;
  return hash_file(path);
}

const rvasm::Program& WarmCache::firmware(const std::string& name) {
  const std::uint64_t key = firmware_key(name);
  auto it = firmware_.find(key);
  if (it != firmware_.end()) {
    ++counters_.elf_hits;
    return it->second;
  }
  ++counters_.elf_misses;
  return firmware_.emplace(key, campaign::resolve_firmware(name))
      .first->second;
}

std::shared_ptr<const campaign::ResolvedPolicy> WarmCache::policy(
    const std::string& name, const rvasm::Program& program) {
  const std::uint64_t key =
      fnv1a64_u64(program_key(program), policy_content_key(name));
  auto it = policies_.find(key);
  if (it != policies_.end()) {
    ++counters_.policy_hits;
    return it->second;
  }
  ++counters_.policy_misses;
  auto resolved = std::make_shared<campaign::ResolvedPolicy>(
      campaign::resolve_policy(name, program));
  policies_.emplace(key, resolved);
  return resolved;
}

std::shared_ptr<const sa::AnalysisResult> WarmCache::analysis(
    const std::string& policy_name, const rvasm::Program& program,
    const dift::SecurityPolicy* policy, std::uint64_t ram_size) {
  const std::uint64_t key = fnv1a64_u64(
      ram_size, fnv1a64_u64(program_key(program),
                            fnv1a64_u64(policy_content_key(policy_name),
                                        fnv1a64("analysis:"))));
  auto it = analyses_.find(key);
  if (it != analyses_.end()) {
    ++counters_.analysis_hits;
    return it->second;
  }
  ++counters_.analysis_misses;
  sa::AnalyzeOptions opts;
  opts.ram_size = ram_size;
  auto result = std::make_shared<const sa::AnalysisResult>(
      sa::analyze(program, policy, opts));
  analyses_.emplace(key, result);
  return result;
}

std::uint64_t WarmCache::job_key(const campaign::JobSpec& job) {
  std::uint64_t h = fnv1a64("job:");
  h = fnv1a64(job.name, h);
  h = fnv1a64_u64(firmware_key(job.firmware), h);
  h = fnv1a64_u64(policy_content_key(job.policy), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(job.mode), h);
  h = fnv1a64(job.uart_input, h);
  h = fnv1a64_u64(job.max_ms, h);
  h = fnv1a64_u64(job.mem_budget_mb, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(job.retries), h);
  h = fnv1a64_u64(job.engine_ecu ? 1 : 0, h);
  h = fnv1a64_u64(job.analyze ? 1 : 0, h);
  h = fnv1a64(job.expect, h);
  return h;
}

bool WarmCache::cacheable(const campaign::JobSpec& job) {
  return !job.make_program && !job.make_config && !job.pre_run_dift &&
         !job.pre_run_plain && job.wall_budget_s == 0.0;
}

const campaign::JobResult* WarmCache::find_result(std::uint64_t key) const {
  auto it = results_.find(key);
  return it == results_.end() ? nullptr : &it->second;
}

void WarmCache::store_result(std::uint64_t key, const campaign::JobResult& r) {
  results_[key] = r;
}

std::uint64_t WarmCache::suite_key(const fi::FiSuiteSpec& spec) {
  return fnv1a64_u64(spec.seed,
                     fnv1a64_u64(firmware_key(spec.benchmark),
                                 fnv1a64("fi-suite:")));
}

campaign::RunnerEnv WarmCache::env() {
  campaign::RunnerEnv e;
  e.resolve_firmware = [this](const std::string& name) {
    return firmware(name);
  };
  e.resolve_policy = [this](const std::string& name,
                            const rvasm::Program& program) {
    return policy(name, program);
  };
  e.resolve_analysis = [this](const std::string& /*firmware*/,
                              const std::string& policy_name,
                              const rvasm::Program& program,
                              const dift::SecurityPolicy* policy,
                              std::uint64_t ram_size) {
    return analysis(policy_name, program, policy, ram_size);
  };
  e.pool = &pool_;
  return e;
}

CacheStats WarmCache::stats() const {
  CacheStats s = counters_;
  s.vp_builds = pool_.builds();
  s.vp_reuses = pool_.reuses();
  s.translation_reuses = pool_.translation_reuses();
  for (const auto& [key, c] : sites_) {
    s.snapshot_hits += c.hits;
    s.snapshot_misses += c.misses;
  }
  return s;
}

}  // namespace vpdift::service
