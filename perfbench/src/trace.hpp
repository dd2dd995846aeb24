// Span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a vpdift layer in a Scope.
// Spans stay in memory (one vector, appended under a mutex) and are written
// out once, when the run ends. With tracing off a Scope is a single branch,
// so the untraced run measures the program, not the recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";    ///< layer call, e.g. "vp.run"
  const char* detail = "";  ///< sub-kind, e.g. "plain" / "dift"
  double t0_ms = 0, t1_ms = 0;  ///< relative to the tracer's origin
  std::int64_t parent = -1;     ///< index of the enclosing span, -1 = root
  std::uint64_t id = 0;         ///< job or submission the span belongs to
  int thread = 0;
};

class Tracer {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  static Tracer& get();

  void enable() {
    origin_ = Clock::now();
    on_ = true;
  }
  bool on() const { return on_; }

  /// One span: opened by the constructor, closed by the destructor. `id`
  /// defaults to the enclosing span's id.
  class Scope {
   public:
    explicit Scope(const char* name, std::uint64_t id = kInherit,
                   const char* detail = "");
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  /// Copy of every span recorded so far (all closed once the run ends).
  std::vector<Span> spans() const;

  /// Self time of each span: its duration minus the time its children cover.
  static std::vector<double> self_ms(const std::vector<Span>& spans);

  /// Writes the spans plus `summary` (raw JSON object text) to `path`.
  bool write(const std::string& path, const std::string& summary) const;

 private:
  Tracer() = default;
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::size_t, int> threads_;  // std::thread::id hash -> small id
};

}  // namespace perfbench
