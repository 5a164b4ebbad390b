// The serving workload, serve_replay, run against the real bagcq_server
// binary (default fork mode, 2 workers) over a Unix socket inside the
// benchmark's work directory. Set-up serves the corpus once; the timed part
// re-streams it as DecideBatchStream chunks over one connection, so every
// pair is a memo hit and no LP runs.
//
// A pass is timed as a client sees it: each chunk is encoded as it is sent
// and each reply decoded as it arrives. The decoded answers are checked
// after the pass: every first answer against the generator's constructed
// verdict, every repeat byte for byte (CallStats excluded) against the
// first answer for that pair.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench.h"
#include "corpus.h"
#include "service/message.h"
#include "service/service.h"
#include "service/transport.h"
#include "trace.h"
#include "wire/wire.h"

namespace perfbench {

using namespace bagcq;

namespace {

// ------------------------------------------------------------ the server

/// One bagcq_server child process. Its CPU time and peak RSS are read from
/// /proc for the server and every process it forked (fork-mode workers).
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Starts the server on `socket_path` and waits until it answers a Stats
  /// request. Returns the seconds from fork to that answer.
  util::Result<double> Start(const std::string& binary,
                             const std::string& socket_path,
                             const std::vector<std::string>& flags,
                             const std::string& log_path) {
    Stop();
    ::unlink(socket_path.c_str());
    const int64_t start = NowNs();
    const pid_t pid = ::fork();
    if (pid < 0) return util::Status::Internal("fork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int log = ::open(log_path.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      std::vector<std::string> args = {binary, "--socket", socket_path};
      args.insert(args.end(), flags.begin(), flags.end());
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    socket_path_ = socket_path;
    const std::string stats = service::EncodeRequest(service::StatsRequest{});
    while (NowNs() - start < int64_t(60e9)) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return util::Status::Internal("bagcq_server exited during start-up");
      }
      auto fd = service::DialUnix(socket_path);
      if (fd.ok()) {
        std::string reply;
        bool eof = false;
        const bool answered = service::WriteFrame(*fd, stats).ok() &&
                              service::ReadFrame(*fd, &reply, &eof).ok() &&
                              !eof;
        ::close(*fd);
        if (answered) return double(NowNs() - start) / 1e9;
      }
      ::usleep(2000);
    }
    Stop();
    return util::Status::Internal("bagcq_server did not become ready");
  }

  /// SIGTERM (the graceful drain), then SIGKILL after 10 s; waits for the
  /// server and for every process it had forked.
  void Stop() {
    if (pid_ <= 0) return;
    const std::vector<pid_t> children = Children();
    ::kill(pid_, SIGTERM);
    int status = 0;
    const int64_t start = NowNs();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() - start > int64_t(10e9)) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    for (pid_t child : children) {
      const int64_t child_start = NowNs();
      while (::kill(child, 0) == 0) {
        if (NowNs() - child_start > int64_t(5e9)) ::kill(child, SIGKILL);
        ::usleep(2000);
      }
    }
    pid_ = -1;
    ::unlink(socket_path_.c_str());
  }

  /// User+system CPU of the server and its children, in milliseconds.
  double CpuMs() const {
    double ticks = 0.0;
    for (pid_t pid : Pids()) {
      std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
      std::string line;
      std::getline(in, line);
      const size_t close = line.rfind(')');
      if (close == std::string::npos) continue;
      std::istringstream fields(line.substr(close + 2));
      std::string field;
      // Fields after the command: state is field 3, utime 14, stime 15.
      for (int index = 3; fields >> field && index <= 15; ++index) {
        if (index == 14 || index == 15) ticks += std::stod(field);
      }
    }
    return ticks * 1000.0 / double(::sysconf(_SC_CLK_TCK));
  }

  /// Sum of the peak resident sets (VmHWM) of the server and its children.
  double PeakRssMib() const {
    double kib = 0.0;
    for (pid_t pid : Pids()) {
      std::ifstream in("/proc/" + std::to_string(pid) + "/status");
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) kib += std::stod(line.substr(6));
      }
    }
    return kib / 1024.0;
  }

 private:
  std::vector<pid_t> Children() const {
    std::vector<pid_t> out;
    const std::string self = std::to_string(pid_);
    std::ifstream in("/proc/" + self + "/task/" + self + "/children");
    pid_t child = 0;
    while (in >> child) out.push_back(child);
    return out;
  }
  std::vector<pid_t> Pids() const {
    if (pid_ <= 0) return {};
    std::vector<pid_t> out = Children();
    out.push_back(pid_);
    return out;
  }

  pid_t pid_ = -1;
  std::string socket_path_;
};

// ------------------------------------------------------------ the client

util::Result<service::StatsResponse> ReadStats(int fd) {
  BAGCQ_RETURN_NOT_OK(service::WriteFrame(
      fd, service::EncodeRequest(service::StatsRequest{})));
  std::string reply;
  bool eof = false;
  BAGCQ_RETURN_NOT_OK(service::ReadFrame(fd, &reply, &eof));
  if (eof) return util::Status::Internal("server closed the connection");
  BAGCQ_ASSIGN_OR_RETURN(service::Response response,
                         service::DecodeResponse(reply));
  auto* stats = std::get_if<service::StatsResponse>(&response);
  if (stats == nullptr) return util::Status::Internal("non-Stats reply");
  return *stats;
}

/// A decision's wire encoding with its per-call cost counters (CallStats)
/// zeroed: what must be identical every time a pair is served.
std::string AnswerBytes(api::DecisionResult result) {
  result.stats = api::CallStats{};
  wire::Encoder encoder;
  wire::EncodeDecisionResult(result, &encoder);
  return encoder.Take();
}

/// Checks one served answer. The first answer for a pair is held against
/// the constructed verdict (witness recounted) and becomes the reference;
/// later ones must match it byte for byte.
class AnswerChecker {
 public:
  explicit AnswerChecker(RunResult* out) : out_(out) {}

  void Check(const std::string& key, const cq::GeneratedPair& pair,
             const service::DecisionResponse& response) {
    ++out_->attempted;
    if (!response.status.ok() || !response.result.has_value()) {
      ++out_->failed;
      return;
    }
    std::string bytes = AnswerBytes(*response.result);
    auto it = reference_.find(key);
    if (it == reference_.end()) {
      std::string why;
      if (!CheckDecision(pair, *response.result, /*recount=*/true, &why)) {
        out_->Wrong(why);
      }
      reference_.emplace(key, std::move(bytes));
    } else if (it->second != bytes) {
      out_->Wrong("a repeat was answered differently from the first time: " +
                  cq::ToBatchLine(pair.pair));
    }
  }

 private:
  RunResult* out_;
  std::map<std::string, std::string> reference_;
};

std::string PairKey(const api::QueryPair& pair) {
  return wire::CanonicalPairKey(pair.q1, pair.q2, /*bag_bag=*/false);
}

/// In-process Service::HandleBytes on the chunk frames with a warm memo (one
/// untimed pass fills it): service.handle_us per pair and the alloc.*
/// counts of that handling. Also times wire::CanonicalPairKey per pair.
void SetInProcessLayers(RunResult* out,
                        const std::vector<cq::GeneratedPair>& corpus,
                        const std::vector<std::string>& frames) {
  constexpr int kPasses = 5;
  const double pairs = double(corpus.size());
  service::Service service(
      api::EngineOptions().set_memoize_decisions(true));
  for (const std::string& frame : frames) service.HandleBytes(frame);
  const int64_t start = NowNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const std::string& frame : frames) service.HandleBytes(frame);
  }
  out->Set("service.handle_us",
           double(NowNs() - start) / (pairs * kPasses) / 1e3, "us");
  const alloc::Counts allocs = alloc::CountDuring([&] {
    for (const std::string& frame : frames) service.HandleBytes(frame);
  });
  out->Set("alloc.count_per_op", double(allocs.count) / pairs, "count");
  out->Set("alloc.bytes_per_op", double(allocs.bytes) / pairs, "B");

  const int64_t key_start = NowNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const cq::GeneratedPair& pair : corpus) PairKey(pair.pair);
  }
  out->Set("wire.canonical_key_us",
           double(NowNs() - key_start) / (pairs * kPasses) / 1e3, "us");
}

// ---------------------------------------------------------- serve_replay

/// Chunk size and window of `bagcq_client batch --stream`: 512 pairs a
/// chunk, at most 8 chunks in flight.
constexpr size_t kChunkPairs = 512;
constexpr size_t kWindow = 8;
constexpr size_t kReplayPairs = 16 * kChunkPairs;
/// Set-up (server start plus a cold pass over the corpus) is repeated this
/// many times; setup_s is the median.
constexpr int kReplaySetupRepeats = 5;

/// The corpus cut into stream chunks.
std::vector<service::DecideBatchStreamRequest> MakeChunks(
    const std::vector<cq::GeneratedPair>& corpus) {
  std::vector<service::DecideBatchStreamRequest> chunks;
  for (size_t first = 0; first < corpus.size(); first += kChunkPairs) {
    service::DecideBatchStreamRequest chunk;
    chunk.first_index = first;
    const size_t end = std::min(corpus.size(), first + kChunkPairs);
    for (size_t i = first; i < end; ++i) chunk.pairs.push_back(corpus[i].pair);
    chunk.final_chunk = end == corpus.size();
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

/// One streamed pass over the corpus: the decoded reply of each chunk, each
/// chunk's latency and the reply bytes.
struct Pass {
  std::vector<util::Result<service::Response>> decoded;
  std::vector<double> chunk_ms;
  size_t reply_bytes = 0;
};

/// Streams every chunk as `bagcq_client batch --stream` does: a chunk is
/// encoded just before it is sent, at most kWindow are in flight, and each
/// reply is decoded as soon as it is read. A chunk's latency runs from the
/// start of its encoding to the end of its reply's decoding.
util::Status StreamPass(int fd,
                        const std::vector<service::DecideBatchStreamRequest>&
                            chunks,
                        Tracer* tracer, Pass* pass) {
  pass->decoded.clear();
  pass->decoded.reserve(chunks.size());
  pass->chunk_ms.assign(chunks.size(), 0.0);
  pass->reply_bytes = 0;
  std::vector<int64_t> started(chunks.size(), 0);
  std::string frame;
  std::string reply;
  size_t next_send = 0;
  for (size_t next_reply = 0; next_reply < chunks.size(); ++next_reply) {
    while (next_send < chunks.size() && next_send < next_reply + kWindow) {
      started[next_send] = NowNs();
      {
        ScopedSpan span(tracer, "wire.encode_request");
        frame = service::EncodeRequest(chunks[next_send]);
      }
      BAGCQ_RETURN_NOT_OK(service::WriteFrame(fd, frame));
      ++next_send;
    }
    bool eof = false;
    BAGCQ_RETURN_NOT_OK(service::ReadFrame(fd, &reply, &eof));
    if (eof) return util::Status::Internal("server closed the stream");
    pass->reply_bytes += reply.size();
    {
      ScopedSpan span(tracer, "wire.decode_response");
      pass->decoded.push_back(service::DecodeResponse(reply));
    }
    pass->chunk_ms[next_reply] = double(NowNs() - started[next_reply]) / 1e6;
  }
  return util::Status::OK();
}

/// Checks every pair of one pass.
void CheckReplayPass(const Pass& pass,
                     const std::vector<cq::GeneratedPair>& corpus,
                     const std::vector<std::string>& keys,
                     AnswerChecker* checker, RunResult* out) {
  for (size_t c = 0; c < pass.decoded.size(); ++c) {
    const size_t first = c * kChunkPairs;
    const size_t count = std::min(kChunkPairs, corpus.size() - first);
    auto* chunk =
        pass.decoded[c].ok()
            ? std::get_if<service::BatchChunkResponse>(&*pass.decoded[c])
            : nullptr;
    if (chunk == nullptr || chunk->first_index != first ||
        chunk->results.size() != count) {
      out->attempted += int64_t(count);
      out->failed += int64_t(count);
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      checker->Check(keys[first + i], corpus[first + i], chunk->results[i]);
    }
  }
}

}  // namespace

RunResult RunServeReplay(const Args& args) {
  RunResult out;
  const std::string socket_path = args.workdir + "/replay.sock";
  const std::string log_path = args.workdir + "/server-serve_replay.log";
  std::vector<cq::GeneratedPair> corpus;
  std::vector<service::DecideBatchStreamRequest> chunks;
  ServerProcess server;
  int fd = -1;
  Pass fill;
  std::vector<double> setup_times;
  std::vector<double> ready_times;
  for (int rep = 0; rep < kReplaySetupRepeats; ++rep) {
    if (fd >= 0) ::close(fd);
    server.Stop();
    const int64_t start = NowNs();
    corpus = AcyclicCorpus(args.seed, kReplayPairs);
    chunks = MakeChunks(corpus);
    auto ready = server.Start(args.server, socket_path, {}, log_path);
    auto dialed = ready.ok() ? service::DialUnix(socket_path)
                             : util::Result<int>(ready.status());
    const util::Status filled = dialed.ok()
                                    ? StreamPass(*dialed, chunks, nullptr, &fill)
                                    : dialed.status();
    if (!filled.ok()) {
      std::fprintf(stderr, "serve_replay set-up: %s\n",
                   filled.ToString().c_str());
      return RunResult{};
    }
    fd = *dialed;
    setup_times.push_back(double(NowNs() - start) / 1e9);
    ready_times.push_back(*ready);
  }
  const double setup_s = Median(setup_times);
  std::vector<std::string> keys;
  for (const cq::GeneratedPair& pair : corpus) keys.push_back(PairKey(pair.pair));
  AnswerChecker checker(&out);
  CheckReplayPass(fill, corpus, keys, &checker, &out);
  // The fill pass is set-up: its answers are the references, not operations.
  const int64_t fill_attempted = out.attempted;
  const int64_t fill_failed = out.failed;
  out.attempted = 0;
  out.failed = 0;
  if (fill_failed != 0 || fill_attempted != int64_t(corpus.size())) {
    out.Wrong("the set-up pass failed " + std::to_string(fill_failed) +
              " pairs");
  }

  auto stats_before = ReadStats(fd);
  const double server_cpu_before = server.CpuMs();
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>()
                                              : nullptr;
  std::vector<double> latencies_ms;
  double busy_ns = 0.0;
  double client_cpu_ms = 0.0;
  size_t reply_bytes = 0;
  Pass pass;
  const int64_t deadline = NowNs() + int64_t(args.seconds * 1e9);
  while (NowNs() < deadline) {
    // The pass is timed whole, encoding and decoding included, as a client
    // sees it; only the answer checks run outside the clock.
    const double cpu_start = ProcessCpuMs();
    const int64_t start = NowNs();
    const util::Status status = StreamPass(fd, chunks, tracer.get(), &pass);
    busy_ns += double(NowNs() - start);
    client_cpu_ms += ProcessCpuMs() - cpu_start;
    if (!status.ok()) {
      std::fprintf(stderr, "serve_replay: %s\n", status.ToString().c_str());
      out.attempted += int64_t(corpus.size());
      out.failed += int64_t(corpus.size());
      break;
    }
    for (size_t c = 0; c < pass.chunk_ms.size(); ++c) {
      const size_t count = std::min(kChunkPairs, corpus.size() - c * kChunkPairs);
      latencies_ms.insert(latencies_ms.end(), count, pass.chunk_ms[c]);
    }
    reply_bytes += pass.reply_bytes;
    CheckReplayPass(pass, corpus, keys, &checker, &out);
  }
  const double server_cpu_ms = server.CpuMs() - server_cpu_before;
  const double server_rss_mib = server.PeakRssMib();
  auto stats_after = ReadStats(fd);
  ::close(fd);
  server.Stop();
  if (!stats_before.ok() || !stats_after.ok()) {
    out.Wrong("the server did not answer Stats");
    return out;
  }
  const double ops = double(latencies_ms.size());
  if (!args.trace) {
    SetEndToEnd(&out, latencies_ms, busy_ns / 1e9,
                client_cpu_ms + server_cpu_ms, server_rss_mib, setup_s);
    return out;
  }

  const service::StatsResponse& before = *stats_before;
  const service::StatsResponse& after = *stats_after;
  const double decisions = double(after.stats.decisions - before.stats.decisions);
  const double memo_hits = double(after.stats.decision_memo_hits -
                                  before.stats.decision_memo_hits);
  double queue_hwm = 0.0;
  for (int64_t hwm : after.queue_depth_hwm) {
    queue_hwm = std::max(queue_hwm, double(hwm));
  }
  out.Set("client.cpu_ms_per_kop", client_cpu_ms / ops * 1e3, "ms/kop");
  out.Set("service.server_cpu_ms_per_kop", server_cpu_ms / ops * 1e3,
          "ms/kop");
  out.Set("service.bytes_in_per_op",
          double(after.bytes_in - before.bytes_in) / ops, "B");
  out.Set("service.bytes_out_per_op",
          double(after.bytes_out - before.bytes_out) / ops, "B");
  out.Set("service.ready_s", Median(ready_times), "s");
  out.Set("service.queue_hwm", queue_hwm, "count");
  out.Set("api.memo_hit_ratio", decisions > 0 ? memo_hits / decisions : 0.0,
          "ratio");
  out.Set("wire.bytes_per_decision", double(reply_bytes) / ops, "B");
  std::vector<std::string> frames;
  for (const service::DecideBatchStreamRequest& chunk : chunks) {
    frames.push_back(service::EncodeRequest(chunk));
  }
  SetInProcessLayers(&out, corpus, frames);
  const auto totals = tracer->Totals();
  auto per_op_us = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : double(it->second.self_ns) / ops / 1e3;
  };
  const double encode_us = per_op_us("wire.encode_request");
  const double decode_us = per_op_us("wire.decode_response");
  out.Set("wire.encode_request_us", encode_us, "us");
  out.Set("wire.decode_response_us", decode_us, "us");
  out.Set("service.unattributed_us",
          busy_ns / ops / 1e3 - out.metrics["service.handle_us"].first -
              encode_us - decode_us,
          "us");
  tracer->WriteTsv(args.workdir + "/trace-serve_replay.tsv");
  return out;
}

}  // namespace perfbench
