// DIFT engine statistics.
//
// One flat counter block for everything the engine does on the hot path:
// tag combinations (LUB table lookups), flow checks, block-translation-cache
// behaviour, shadow-summary fast-path hits (see shadow.hpp) and bus traffic.
// The VP fills a DiftStats into every vp::RunResult so benchmark harnesses
// can emit machine-readable reports (BENCH_*.json) and perf PRs have a
// baseline to beat. Counters are plain 64-bit adds — cheap enough to stay
// enabled in both the plain VP and the VP+ (and the block engine hoists the
// per-instruction ones to block boundaries anyway).
#pragma once

#include <cstdint>
#include <string>

namespace vpdift::dift {

/// Name and member pointer of one field of a flat counter block `S`. A
/// counter block lists its fields once, as `static constexpr
/// CounterField<S> kFields[]`; arithmetic, report JSON and every decoder
/// iterate that table, so adding a counter takes one line.
template <typename S>
struct CounterField {
  const char* name;  ///< field name, also its JSON key
  std::uint64_t S::*member;
};

/// `a += b`, field by field over S::kFields.
template <typename S>
S& add_counters(S& a, const S& b) {
  for (const auto& f : S::kFields) a.*f.member += b.*f.member;
  return a;
}

/// `a - b`, field by field over S::kFields.
template <typename S>
S sub_counters(S a, const S& b) {
  for (const auto& f : S::kFields) a.*f.member -= b.*f.member;
  return a;
}

/// Escapes `s` for embedding in a JSON string literal (without the quotes):
/// quote, backslash, newline, CR and tab get their short escapes, every
/// other control byte a \u00XX escape. The one escaper behind every JSON
/// writer in the tree (campaign reports, the service protocol, lint reports).
inline std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One flat JSON object, keys in S::kFields order.
template <typename S>
std::string counters_to_json(const S& s) {
  std::string out = "{";
  for (const auto& f : S::kFields) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += f.name;
    out += "\":";
    out += std::to_string(s.*f.member);
  }
  return out + "}";
}

// The engine counters, one X(field) row each.
#define VPDIFT_DIFT_STATS_FIELDS(X)                                            \
  X(lub_calls) /* LUB table lookups (a != b slow path) */                      \
  X(flow_checks) /* flow-table lookups (from != to) */                         \
  X(decode_hits) /* instructions executed from cached blocks */                \
  X(decode_misses) /* instructions decoded into micro-ops */                   \
  X(block_hits) /* block-cache lookups that found a valid block */             \
  X(block_misses) /* block-cache lookups that built a new block */             \
  X(block_invalidations) /* cached blocks rebuilt (raw bytes changed) */       \
  X(chained_transfers) /* block entries resolved via terminator chain */       \
  X(fetch_summary_hits) /* fetches cleared via block-span memo */              \
  X(load_summary_hits) /* loads tagged via uniform summary */                  \
  X(mem_summary_hits) /* Memory reads served via summary */                    \
  X(dma_summary_hits) /* DMA bursts forwarded as uniform */                    \
  X(bus_transactions) /* b_transport calls routed by the bus */                \
  X(plain_variant_hits) /* block dispatches via plain variant */               \
  X(tainted_variant_hits) /* block dispatches via tainted variant */           \
  X(variant_promotions) /* plain dispatches promoted pre-retire */

struct DiftStats {
#define VPDIFT_DECLARE(field) std::uint64_t field = 0;
  VPDIFT_DIFT_STATS_FIELDS(VPDIFT_DECLARE)
#undef VPDIFT_DECLARE

  /// Always 0: no dispatch bypasses the taint-liveness gate. Not a field (so
  /// outside arithmetic, JSON and the wire); perfbench/src/serve.cpp still
  /// reads it for its rv.pinned_share layer metric.
  static constexpr std::uint64_t sa_pinned_hits = 0;
  /// Always 0: the block engine forms no superblock traces. Not fields (so
  /// outside arithmetic, JSON and the wire); perfbench/src/table2.cpp still
  /// reads superblock_hits for its rv.superblock_share layer metric.
  static constexpr std::uint64_t superblock_hits = 0;
  static constexpr std::uint64_t superblock_transfers = 0;

  static constexpr CounterField<DiftStats> kFields[] = {
#define VPDIFT_ROW(field) {#field, &DiftStats::field},
      VPDIFT_DIFT_STATS_FIELDS(VPDIFT_ROW)
#undef VPDIFT_ROW
  };

  std::uint64_t summary_hits() const {
    return fetch_summary_hits + load_summary_hits + mem_summary_hits +
           dma_summary_hits;
  }

  DiftStats& operator+=(const DiftStats& o) { return add_counters(*this, o); }
  DiftStats operator-(const DiftStats& o) const {
    return sub_counters(*this, o);
  }
};

/// JSON object rendering, shared by the bench harnesses and the CLI runner.
inline std::string to_json(const DiftStats& s) { return counters_to_json(s); }

}  // namespace vpdift::dift
