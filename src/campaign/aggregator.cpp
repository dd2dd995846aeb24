#include "campaign/aggregator.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sa/analyze.hpp"

namespace vpdift::campaign {

void Aggregator::add(const JobResult& r) {
  results_.push_back(r);
  if (r.ok) ++ok_;
  if (r.verdict == "crash") ++crashed_;
  instret_ += r.run.instret;
  job_wall_ += r.wall_seconds;
  stats_ += r.run.stats;
}

std::string Aggregator::summary(const std::string& campaign_name,
                                double wall_s) const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "campaign %s: %zu jobs, %zu ok, %zu crashed, %.2f s wall",
                campaign_name.c_str(), results_.size(), ok_, crashed_, wall_s);
  return buf;
}

std::string Aggregator::to_json(const std::string& campaign_name,
                                std::size_t workers, double wall_s,
                                const std::string& extra) const {
  std::ostringstream out;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n  \"campaign\": \"%s\",\n  \"workers\": %zu,\n"
                "  \"jobs\": %zu,\n  \"ok\": %zu,\n  \"crashed\": %zu,\n"
                "  \"all_ok\": %s,\n  \"wall_s\": %.4f,\n"
                "  \"job_wall_s\": %.4f,\n  \"total_instret\": %llu,\n"
                "  \"agg_mips\": %.2f,\n",
                json_escape(campaign_name).c_str(), workers, results_.size(),
                ok_, crashed_, all_ok() ? "true" : "false", wall_s, job_wall_,
                static_cast<unsigned long long>(instret_),
                wall_s > 0 ? instret_ / wall_s / 1e6 : 0.0);
  out << buf;
  if (interrupted_) out << "  \"interrupted\": true,\n";
  if (!extra.empty()) out << "  " << extra << ",\n";
  out << "  \"dift_stats\": " << dift::to_json(stats_) << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const JobResult& r = results_[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\":\"%s\",\"verdict\":\"%s\",\"ok\":%s,"
                  "\"attempts\":%d,\"reason\":\"%s\",\"exited\":%s,"
                  "\"exit_code\":%u,\"violation\":%s,\"timed_out\":%s,"
                  "\"watchdog_resets\":%u,\"instret\":%llu,"
                  "\"wall_s\":%.4f,\"mips\":%.2f,\"sim_ms\":%llu,"
                  "\"recorded_violations\":%zu,",
                  json_escape(r.name).c_str(), json_escape(r.verdict).c_str(),
                  r.ok ? "true" : "false", r.attempts,
                  vp::to_string(r.run.reason),
                  r.run.exited() ? "true" : "false", r.run.exit_code,
                  r.run.violation() ? "true" : "false",
                  r.run.timed_out() ? "true" : "false", r.run.watchdog_resets,
                  static_cast<unsigned long long>(r.run.instret),
                  r.wall_seconds, r.run.mips,
                  static_cast<unsigned long long>(r.run.sim_time.millis()),
                  r.run.recorded_violations.size());
    out << buf;
    if (!r.error.empty()) out << "\"error\":\"" << json_escape(r.error) << "\",";
    if (r.history.size() > 1 ||
        (!r.history.empty() && r.history.front().verdict == "crash")) {
      out << "\"history\":[";
      for (std::size_t a = 0; a < r.history.size(); ++a) {
        out << (a ? "," : "") << "{\"verdict\":\""
            << json_escape(r.history[a].verdict) << "\"";
        if (!r.history[a].error.empty())
          out << ",\"error\":\"" << json_escape(r.history[a].error) << "\"";
        out << "}";
      }
      out << "],";
    }
    if (r.analysis) out << "\"analysis\":" << sa::to_json(*r.analysis) << ",";
    out << "\"dift_stats\":" << dift::to_json(r.run.stats) << "}"
        << (i + 1 < results_.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

bool Aggregator::write_json(const std::string& path,
                            const std::string& campaign_name,
                            std::size_t workers, double wall_s,
                            const std::string& extra) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json(campaign_name, workers, wall_s, extra);
  return static_cast<bool>(out);
}

}  // namespace vpdift::campaign
