// Micro-benchmarks of the DIFT engine primitives (google-benchmark):
//   * Taint<T> arithmetic vs plain integers (the per-instruction tax),
//   * dense precomputed LUB table vs an on-the-fly lattice walk (the
//     design-choice ablation from DESIGN.md),
//   * byte (de)serialisation used on the TLM path,
//   * lattice construction/validation cost by class count,
//   * shadow-summary queries and maintenance (the block fast path),
//   * end-to-end ISS instruction rate, plain vs tainted core.
//
// Run with --benchmark_format=json (or --benchmark_out=FILE
// --benchmark_out_format=json) for a machine-readable report; the ISS
// benchmarks attach the engine counters (lub/s, summary hits/s) as
// user counters so they appear in that JSON.
#include <benchmark/benchmark.h>

#include <vector>

#include "dift/context.hpp"
#include "dift/lattice.hpp"
#include "dift/shadow.hpp"
#include "dift/taint.hpp"
#include "fw/benchmarks.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

using namespace vpdift;
using dift::DiftContext;
using dift::Lattice;
using dift::Tag;
using dift::Taint;

namespace {

void BM_PlainAdd(benchmark::State& state) {
  std::uint32_t a = 123456, b = 789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a + b);
    benchmark::DoNotOptimize(b = b ^ a);
  }
}
BENCHMARK(BM_PlainAdd);

void BM_TaintAddSameTag(benchmark::State& state) {
  const Lattice l = Lattice::ifp3();
  DiftContext ctx(l);
  Taint<std::uint32_t> a(123456, 2), b(789, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a + b);
    benchmark::DoNotOptimize(b = b ^ a);
  }
}
BENCHMARK(BM_TaintAddSameTag);

void BM_TaintAddMixedTags(benchmark::State& state) {
  const Lattice l = Lattice::ifp3();
  DiftContext ctx(l);
  Taint<std::uint32_t> a(123456, 1), b(789, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a + b);
    benchmark::DoNotOptimize(a ^ b);
  }
}
BENCHMARK(BM_TaintAddMixedTags);

// Ablation: dense table lookup vs recomputing the LUB by walking the lattice.
Tag slow_lub(const Lattice& l, Tag a, Tag b) {
  Tag best = 0;
  bool found = false;
  for (Tag c = 0; c < l.size(); ++c) {
    if (!l.allowed_flow(a, c) || !l.allowed_flow(b, c)) continue;
    if (!found || l.allowed_flow(c, best)) {
      best = c;
      found = true;
    }
  }
  return best;
}

void BM_LubDenseTable(benchmark::State& state) {
  const Lattice l = Lattice::with_per_byte_secret(
      Lattice::ifp3(), Lattice::ifp3().tag_of("(HC,HI)"), 16, "PIN");
  DiftContext ctx(l);
  Tag a = 0;
  for (auto _ : state) {
    a = static_cast<Tag>((a + 1) % l.size());
    benchmark::DoNotOptimize(dift::lub(a, 3));
  }
}
BENCHMARK(BM_LubDenseTable);

void BM_LubLatticeWalk(benchmark::State& state) {
  const Lattice l = Lattice::with_per_byte_secret(
      Lattice::ifp3(), Lattice::ifp3().tag_of("(HC,HI)"), 16, "PIN");
  Tag a = 0;
  for (auto _ : state) {
    a = static_cast<Tag>((a + 1) % l.size());
    benchmark::DoNotOptimize(slow_lub(l, a, 3));
  }
}
BENCHMARK(BM_LubLatticeWalk);

void BM_TaintToFromBytes(benchmark::State& state) {
  const Lattice l = Lattice::ifp1();
  DiftContext ctx(l);
  Taint<std::uint32_t> v(0xdeadbeef, 1);
  dift::TaintedByte bytes[4];
  for (auto _ : state) {
    v.to_bytes(bytes);
    Taint<std::uint32_t> back;
    back.from_bytes(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_TaintToFromBytes);

void BM_LatticeBuild(benchmark::State& state) {
  const auto levels = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(Lattice::linear(levels));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LatticeBuild)->Arg(4)->Arg(16)->Arg(64)->Arg(128)->Complexity();

// Shadow-summary primitives: a uniform-block query vs the per-byte LUB loop
// it replaces, and the maintenance cost of a store that splits a block.
void BM_ShadowUniformQuery(benchmark::State& state) {
  std::vector<Tag> plane(1 << 16, Tag(2));
  dift::ShadowSummary shadow;
  shadow.attach(plane.data(), plane.size());
  std::uint64_t off = 0;
  for (auto _ : state) {
    off = (off + 64) & 0xffff;
    Tag t = 0;
    benchmark::DoNotOptimize(shadow.uniform(off, 4, &t));
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ShadowUniformQuery);

void BM_ShadowPerByteLub(benchmark::State& state) {
  const Lattice l = Lattice::ifp3();
  DiftContext ctx(l);
  std::vector<Tag> plane(1 << 16, Tag(2));
  std::uint64_t off = 0;
  for (auto _ : state) {
    off = (off + 64) & 0xffff;
    Tag t = plane[off];
    for (int i = 1; i < 4; ++i) t = dift::lub(t, plane[off + i]);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ShadowPerByteLub);

void BM_ShadowStoreSplit(benchmark::State& state) {
  std::vector<Tag> plane(1 << 16, Tag(0));
  dift::ShadowSummary shadow;
  shadow.attach(plane.data(), plane.size());
  std::uint64_t off = 0;
  for (auto _ : state) {
    off = (off + 64) & 0xffff;
    plane[off] = Tag(1);
    shadow.on_store(off, 1, Tag(1));  // block goes mixed
    plane[off] = Tag(0);
    shadow.on_store(off, 1, Tag(0));  // stays mixed until rescanned
    shadow.rescan_block(off >> dift::ShadowSummary::kBlockShift);
  }
}
BENCHMARK(BM_ShadowStoreSplit);

// End-to-end ISS rate: instructions per second on the primes kernel.
template <typename VpT>
void run_iss(benchmark::State& state, bool dift) {
  std::uint64_t instret = 0;
  dift::DiftStats stats;
  for (auto _ : state) {
    VpT v;
    v.load(fw::make_primes(4000));
    auto bundle = vp::scenarios::make_permissive_policy();
    if (dift) v.apply_policy(bundle.policy);
    const auto r = v.run(sysc::Time::sec(60));
    if (!r.exited() || r.exit_code != 0) state.SkipWithError("self-check failed");
    instret += r.instret;
    stats += r.stats;
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(instret), benchmark::Counter::kIsRate);
  state.counters["lub/s"] = benchmark::Counter(
      static_cast<double>(stats.lub_calls), benchmark::Counter::kIsRate);
  state.counters["summary_hits/s"] = benchmark::Counter(
      static_cast<double>(stats.summary_hits()), benchmark::Counter::kIsRate);
  state.counters["decode_hit_pct"] =
      stats.decode_hits + stats.decode_misses
          ? 100.0 * static_cast<double>(stats.decode_hits) /
                static_cast<double>(stats.decode_hits + stats.decode_misses)
          : 0.0;
  const double block_lookups =
      static_cast<double>(stats.block_hits + stats.block_misses +
                          stats.block_invalidations + stats.chained_transfers);
  state.counters["block_hit_pct"] =
      block_lookups > 0
          ? 100.0 *
                static_cast<double>(stats.block_hits + stats.chained_transfers) /
                block_lookups
          : 0.0;
  state.counters["chained_pct"] =
      block_lookups > 0
          ? 100.0 * static_cast<double>(stats.chained_transfers) / block_lookups
          : 0.0;
  state.counters["block_invalidations"] =
      static_cast<double>(stats.block_invalidations);
  // Variant dispatch mix: what fraction of VP+ block dispatches ran the
  // plain-word (zero tag work) variant, and how often the gate had to
  // promote mid-block. Plain-VP runs report 0 for all three (the plain core
  // has no variants to pick between).
  const double variant_dispatches = static_cast<double>(
      stats.plain_variant_hits + stats.tainted_variant_hits);
  state.counters["plain_variant_pct"] =
      variant_dispatches > 0
          ? 100.0 * static_cast<double>(stats.plain_variant_hits) /
                variant_dispatches
          : 0.0;
  state.counters["variant_promotions"] =
      static_cast<double>(stats.variant_promotions);
}

void BM_IssPlainVp(benchmark::State& state) { run_iss<vp::Vp>(state, false); }
BENCHMARK(BM_IssPlainVp)->Unit(benchmark::kMillisecond);

void BM_IssDiftVp(benchmark::State& state) { run_iss<vp::VpDift>(state, true); }
BENCHMARK(BM_IssDiftVp)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
