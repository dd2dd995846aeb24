// Shared plumbing of the benchmark phases: the run context (seed, checks,
// metric and counter sinks), order statistics and the seeded generator.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "dift/stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace vpdift;

/// splitmix64: the only source of randomness; every input derives from the
/// --seed argument through it.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(mix64(seed)) {}
  std::uint64_t next() { return state = mix64(state); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile, q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += std::log(x > 0 ? x : 1e-12);
  return std::exp(s / static_cast<double>(v.size()));
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host-speed reference. On a shared host one core's speed swings by up to
/// ~1.6x within seconds (a busy sibling hyperthread, other tenants), which
/// moves every timing alike. Each timed sample is bracketed by passes of a
/// fixed kernel owned by the benchmark (reference_s), and the end-to-end
/// timings are reported as if the host had run that kernel in
/// kReferenceNominalS: throughputs are multiplied by the correction,
/// times divided by it. The kernel works in a 16 KiB table, so what the
/// program left in the caches barely moves it.
double reference_s();
constexpr double kReferenceNominalS = 2.5e-3;
/// The simulator's speed moves as this power of the reference kernel's
/// (fitted on paired samples; see perfbench/NOTES.md).
constexpr double kHostSpeedExponent = 1.5;

struct Metric {
  double value = 0;
  std::string unit;
};

/// Named exact counters of one deterministic piece of work. Keys name the
/// work's inputs, so two runs that share inputs must report equal values.
using CounterSet = std::map<std::string, std::uint64_t>;

void add_dift_stats(CounterSet& c, const std::string& prefix,
                    const dift::DiftStats& s);

/// Architectural outcome + the trajectory-pure DIFT counters: what must be
/// identical between two executions of one job regardless of translation
/// cache temperature (the equivalence the repository's fork and service
/// tests pin).
bool same_trajectory(const campaign::JobResult& a, const campaign::JobResult& b);

struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::string out_dir;      ///< scratch space inside the checkout
  std::string policy_dir;   ///< live-taint policy files
  std::string self_exe;     ///< this binary (re-executed as the daemon)

  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, CounterSet> counters;

  /// The host-speed correction of a sample between two reference passes,
  /// `ref_before` and `ref_after` (seconds from reference_s): the factor by
  /// which the host was slower than nominal there, to `power`.
  double slowdown(double ref_before, double ref_after,
                  double power = kHostSpeedExponent) {
    const double f = 0.5 * (ref_before + ref_after) / kReferenceNominalS;
    slowdowns.push_back(f);
    return std::pow(f, power);
  }
  std::vector<double> slowdowns;  ///< uncorrected factors, one per call

  /// Counts one operation; `ok` false marks it failed and logs `what`.
  void op(bool ok, const std::string& what);
  void e2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = {v, unit};
  }

 private:
  std::mutex log_mu_;
  int logged_ = 0;
};

/// A phase: inputs built by prepare() (timed as set-up), work done in
/// steps (one Table II rep, one FI round, one daemon round) that main()
/// interleaves until the phase's time budget is spent, metrics emitted by
/// report().
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void prepare(RunContext& ctx) = 0;
  /// One unit of measured work; false when the phase cannot continue.
  virtual bool step(RunContext& ctx) = 0;
  virtual void report(RunContext& ctx, const std::vector<Span>& spans) = 0;
};

/// Median duration (ms) of the spans called `name` (and `detail`, if given).
double span_median_ms(const std::vector<Span>& spans, const char* name,
                      const char* detail = nullptr);

/// The three phases.
std::unique_ptr<Phase> make_table2_phase();
std::unique_ptr<Phase> make_fi_phase();
std::unique_ptr<Phase> make_serve_phase();

/// Daemon mode of this binary: runs service::run_server on `socket_path`.
int daemon_main(const std::string& socket_path);

}  // namespace perfbench
