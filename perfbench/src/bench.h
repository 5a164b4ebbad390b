// Shared plumbing of the end-to-end benchmark binary (bagcq_bench): command
// line, clocks, resource readings, latency statistics, and the result that
// every workload fills in. The workloads themselves live in
// decide_workload.cc, prove_workload.cc and serve_workload.cc.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in milliseconds.
double ThreadCpuMs();
/// User+system CPU time of this process (every thread), in milliseconds.
double ProcessCpuMs();
/// Peak resident set of this process, in MiB.
double PeakRssMib();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The bagcq_server binary (serve workloads).
  std::string server;
  /// Work directory for sockets and span dumps, inside the checkout.
  std::string workdir = ".";
};

/// What one run reports. `metrics` holds whatever the workload measured;
/// main() completes the per-layer set with zeros for layers the workload
/// never crosses and prints the final JSON line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// First few correctness violations, echoed to stderr.
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a wrong answer: the run stays complete but is not correct.
  void Wrong(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Nearest-rank percentile (q in [0, 1]) of a sample; 0 for an empty one.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The six end-to-end metrics every workload reports. `busy_s` is the time
/// the timed operations took (checks between operations excluded).
void SetEndToEnd(RunResult* out, const std::vector<double>& latencies_ms,
                 double busy_s, double cpu_ms, double peak_rss_mib,
                 double setup_s);

/// How many times an in-process run times its set-up (setup_s is the
/// median). Set-up takes milliseconds there, so many repetitions are cheap.
inline constexpr int kSetupRepeats = 41;

/// Times an in-process workload's set-up kSetupRepeats times. The first
/// repetition builds the state the run uses; the others build throwaway
/// copies, spread evenly over the measured part between its timed calls
/// (whenever Due() says so), and any still missing when it ends run after
/// it. The host has slow phases of a fraction of a second to seconds;
/// spreading the repetitions keeps one such phase from setting the median.
class SetupTimer {
 public:
  /// Times one set-up.
  template <typename F>
  void Time(F&& setup) {
    const int64_t start = NowNs();
    setup();
    const int64_t end = NowNs();
    times_.push_back(double(end - start) / 1e9);
    next_ns_ = end + interval_ns_;
  }
  /// Spreads the remaining repetitions over the next `seconds`.
  void Spread(double seconds) {
    interval_ns_ = int64_t(seconds * 1e9 / kSetupRepeats);
    next_ns_ = NowNs() + interval_ns_;
  }
  bool Due() const { return !Done() && NowNs() >= next_ns_; }
  bool Done() const { return times_.size() >= size_t(kSetupRepeats); }
  double MedianSeconds() const;

 private:
  std::vector<double> times_;
  int64_t interval_ns_ = 0;
  int64_t next_ns_ = 0;
};

/// Traced in-process runs make every kAllocSample-th engine call with the
/// heap-allocation counter on, and leave it out of the timing comparison.
inline constexpr int kAllocSample = 4;

RunResult RunDecideAcyclic(const Args& args);
RunResult RunProveShannon(const Args& args);
RunResult RunServeReplay(const Args& args);

}  // namespace perfbench
