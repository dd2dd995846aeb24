// Campaign report aggregation.
//
// Folds per-job JobResults (with their vp::RunResult / dift::DiftStats) into
// one machine-readable JSON report, the campaign-level analogue of
// BENCH_table2.json: top-level metadata + aggregate counters + a per-job
// results array. Benchmark drivers and the vpdift-campaign CLI both emit it,
// so downstream tooling reads one shape regardless of how a sweep was run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "dift/stats.hpp"

namespace vpdift::campaign {

class Aggregator {
 public:
  /// Folds one finished job into the report (call from one thread, or
  /// serialize externally — RunnerOptions::on_done already is).
  void add(const JobResult& r);

  std::size_t total() const { return results_.size(); }
  std::size_t ok() const { return ok_; }
  std::size_t crashed() const { return crashed_; }
  bool all_ok() const { return !interrupted_ && ok_ == results_.size(); }
  std::uint64_t total_instret() const { return instret_; }
  const dift::DiftStats& stats() const { return stats_; }

  /// Marks the report as cut short (graceful SIGINT/SIGTERM): the JSON gains
  /// an `"interrupted": true` field and `all_ok` is forced false.
  void set_interrupted(bool v) { interrupted_ = v; }
  bool interrupted() const { return interrupted_; }

  /// One human line: "campaign x: 36 jobs, 36 ok, 0 crashed, 1.2 s wall".
  std::string summary(const std::string& campaign_name, double wall_s) const;

  /// The full JSON report. `workers` and `wall_s` describe the run that
  /// produced the results (they are campaign-level facts the aggregator
  /// cannot know itself). `extra`, if non-empty, is raw `"key": value` JSON
  /// text spliced in as additional top-level fields (the service uses it for
  /// its cache-counter block).
  std::string to_json(const std::string& campaign_name, std::size_t workers,
                      double wall_s, const std::string& extra = {}) const;

  /// to_json() to a file; returns false (and leaves no file guarantee) on
  /// I/O failure.
  bool write_json(const std::string& path, const std::string& campaign_name,
                  std::size_t workers, double wall_s,
                  const std::string& extra = {}) const;

 private:
  std::vector<JobResult> results_;
  std::size_t ok_ = 0;
  std::size_t crashed_ = 0;
  std::uint64_t instret_ = 0;
  double job_wall_ = 0;
  bool interrupted_ = false;
  dift::DiftStats stats_;
};

/// Escapes a string for embedding in a JSON document.
using dift::json_escape;

}  // namespace vpdift::campaign
