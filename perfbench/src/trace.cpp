#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {
thread_local std::int64_t t_current = -1;  // innermost open span on this thread
}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

Tracer::Scope::Scope(const char* name, std::uint64_t id, const char* detail) {
  Tracer& t = get();
  if (!t.on_) return;
  const std::size_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(t.mu_);
  Span s;
  s.name = name;
  s.detail = detail;
  s.parent = t_current;
  s.id = id != kInherit ? id : (t_current >= 0 ? t.spans_[t_current].id : 0);
  s.thread = t.threads_.emplace(tid, static_cast<int>(t.threads_.size()))
                 .first->second;
  s.t0_ms = t.now_ms();
  index_ = static_cast<std::int64_t>(t.spans_.size());
  t.spans_.push_back(s);
  saved_parent_ = t_current;
  t_current = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Tracer& t = get();
  std::lock_guard<std::mutex> lock(t.mu_);
  t.spans_[index_].t1_ms = t.now_ms();
  t_current = saved_parent_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::self_ms(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].t1_ms - spans[i].t0_ms;
  // Children run on their parent's thread, nested inside it, so their
  // durations never overlap each other.
  for (const Span& s : spans)
    if (s.parent >= 0) self[s.parent] -= s.t1_ms - s.t0_ms;
  return self;
}

bool Tracer::write(const std::string& path, const std::string& summary) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_ms(all);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"summary\": " << summary << ",\n\"spans\": [\n";
  char buf[384];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"i\":%zu,\"name\":\"%s\",\"detail\":\"%s\","
                  "\"start_ms\":%.6f,\"end_ms\":%.6f,\"self_ms\":%.6f,"
                  "\"parent\":%lld,\"id\":%llu,\"thread\":%d}\n",
                  i ? "," : "", i, s.name, s.detail, s.t0_ms, s.t1_ms, self[i],
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.id), s.thread);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
