// bagcq_bench — the end-to-end benchmark binary.
//
//   bagcq_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--server PATH] [--workdir DIR]
//
// Runs one seeded workload (decide_acyclic, prove_shannon, serve_replay)
// for about S seconds of measurement, checks every
// answer, and prints one JSON object as its last line of standard output:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced and the metrics are the per-layer ones (a layer the
// workload never crosses reads 0). perfbench/run.py builds this binary and
// is the command to use; perfbench/README.md describes the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return double(tv.tv_sec) * 1e3 + double(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMib() {
  // VmHWM of this process image. (getrusage's ru_maxrss would also count
  // the peak of the process that exec'd this one.)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * double(values.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double SetupTimer::MedianSeconds() const { return Median(times_); }

void SetEndToEnd(RunResult* out, const std::vector<double>& latencies_ms,
                 double busy_s, double cpu_ms, double peak_rss_mib,
                 double setup_s) {
  const double ops = double(latencies_ms.size());
  out->Set("ops_per_s", busy_s > 0 ? ops / busy_s : 0.0, "ops/s");
  out->Set("op_p50_ms", Percentile(latencies_ms, 0.50), "ms");
  out->Set("op_p99_ms", Percentile(latencies_ms, 0.99), "ms");
  out->Set("cpu_ms_per_kop", ops > 0 ? cpu_ms / ops * 1000.0 : 0.0, "ms/kop");
  out->Set("peak_rss_mib", peak_rss_mib, "MiB");
  out->Set("setup_s", setup_s, "s");
}

namespace {

// Every per-layer metric, with its unit. A traced run reports all of them;
// perfbench/README.md maps each to the end-to-end metric it should move.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"cq.dedup_us", "us"},
    {"cq.hom_search_us", "us"},
    {"core.analyze_us", "us"},
    {"core.inequality_us", "us"},
    {"api.decide_rest_us", "us"},
    {"cq.homs_per_pair", "count"},
    {"core.witness_ms", "ms"},
    {"core.witness_tuples", "count"},
    {"cq.witness_count_ms", "ms"},
    {"entropy.maxii_normal_ms", "ms"},
    {"entropy.maxii_gamma_ms", "ms"},
    {"entropy.prove_ms.n4", "ms"},
    {"entropy.prove_ms.n5", "ms"},
    {"entropy.prove_ms.n6", "ms"},
    {"entropy.prover_build_ms", "ms"},
    {"lp.solve_ms", "ms"},
    {"lp.solves_per_op", "count"},
    {"lp.pivots_per_op", "count"},
    {"lp.us_per_pivot", "us"},
    {"lp.warm_accept_ratio", "ratio"},
    {"lp.escalations", "count/kop"},
    {"alloc.count_per_op", "count"},
    {"alloc.bytes_per_op", "B"},
    {"wire.canonical_key_us", "us"},
    {"wire.bytes_per_decision", "B"},
    {"wire.encode_request_us", "us"},
    {"wire.decode_response_us", "us"},
    {"client.cpu_ms_per_kop", "ms/kop"},
    {"service.server_cpu_ms_per_kop", "ms/kop"},
    {"service.handle_us", "us"},
    {"service.unattributed_us", "us"},
    {"service.bytes_in_per_op", "B"},
    {"service.bytes_out_per_op", "B"},
    {"service.ready_s", "s"},
    {"service.queue_hwm", "count"},
    {"api.memo_hit_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

const char* const kEndToEnd[] = {"ops_per_s",      "op_p50_ms",
                                 "op_p99_ms",      "cpu_ms_per_kop",
                                 "peak_rss_mib",   "setup_s"};

int Usage() {
  std::fprintf(stderr,
               "usage: bagcq_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--server PATH] [--workdir DIR]\n"
               "  workloads: decide_acyclic prove_shannon serve_replay\n");
  return 2;
}

void PrintJson(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  bool first = true;
  for (const auto& [name, value_unit] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value_unit.first,
                value_unit.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      args.trace = std::string_view(value) == "1";
      have_trace = true;
    } else if (arg == "--server") {
      args.server = value;
    } else if (arg == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  if (!have_trace || args.seconds <= 0) return Usage();

  RunResult result;
  if (args.workload == "decide_acyclic") {
    result = RunDecideAcyclic(args);
  } else if (args.workload == "prove_shannon") {
    result = RunProveShannon(args);
  } else if (args.workload == "serve_replay") {
    result = RunServeReplay(args);
  } else {
    return Usage();
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "bagcq_bench: %s attempted no operation\n",
                 args.workload.c_str());
    return 1;
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "bagcq_bench: WRONG: %s\n", error.c_str());
  }

  // Keep exactly the set the mode reports: end-to-end metrics untraced,
  // every per-layer metric (0 where the layer is not crossed) traced.
  RunResult printed = result;
  printed.metrics.clear();
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      auto it = result.metrics.find(name);
      printed.Set(name, it != result.metrics.end() ? it->second.first : 0.0,
                  unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      auto it = result.metrics.find(name);
      if (it == result.metrics.end()) {
        std::fprintf(stderr, "bagcq_bench: %s did not report %s\n",
                     args.workload.c_str(), name);
        return 1;
      }
      printed.metrics[name] = it->second;
    }
  }
  PrintJson(printed);
  return 0;
}
