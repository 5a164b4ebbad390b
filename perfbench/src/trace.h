// Spans for the traced runs. A span is a named interval with a parent and
// the id of the request (operation) it belongs to; spans are appended to an
// in-memory vector while the run measures and written out once it ends.
// A layer's self time is its span's duration minus the part covered by its
// direct children, so the self times of one request's spans add up to its
// root span exactly.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions; the library itself carries no tracing. The
// lp layer is reached through TracingSolver, an lp::Solver decorator that
// the traced code paths hand to the entropy layer in place of the raw
// solver.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/options.h"
#include "bench.h"
#include "lp/solver.h"

namespace perfbench {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the span vector, -1 for a root
  uint32_t request;
};

/// Per-name aggregate over every recorded span of that name.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t reserve = 1 << 20) { spans_.reserve(reserve); }

  void set_request(uint32_t id) { request_ = id; }
  int32_t Begin(const char* name) {
    spans_.push_back(Span{name, NowNs(), 0, current_, request_});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void End(int32_t index) {
    spans_[index].end_ns = NowNs();
    current_ = spans_[index].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    current_ = -1;
  }
  std::map<std::string, SpanTotals> Totals() const;
  /// Writes every span as one TSV line: request, index, parent, name,
  /// start and end (ns, relative to the first span).
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t request_ = 0;
};

/// RAII span on a tracer; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// lp::Solver decorator: every Solve/SolveFrom of the wrapped solver runs
/// inside an "lp.solve" span. Warm-start slots live in the decorator (the
/// base class keeps them), so it behaves exactly like the wrapped backend.
class TracingSolver final : public bagcq::lp::Solver {
 public:
  TracingSolver(std::unique_ptr<bagcq::lp::Solver> inner, Tracer* tracer,
                bool warm_starts)
      : Solver(warm_starts), inner_(std::move(inner)), tracer_(tracer) {}

  bagcq::lp::Solution<bagcq::util::Rational> Solve(
      const bagcq::lp::LpProblem& problem) override {
    ScopedSpan span(tracer_, "lp.solve");
    return inner_->Solve(problem);
  }
  bagcq::lp::Solution<bagcq::util::Rational> SolveFrom(
      const bagcq::lp::LpProblem& problem,
      const std::vector<bagcq::lp::BasisEntry>& hint) override {
    ScopedSpan span(tracer_, "lp.solve");
    return inner_->SolveFrom(problem, hint);
  }
  bagcq::lp::SolverBackend backend() const override {
    return inner_->backend();
  }
  /// The wrapped backend's counters (solves, pivots, warm accepts, ladder
  /// escalations); warm_pivots_saved is kept by the decorator itself.
  const bagcq::lp::SolverStats& inner_stats() const { return inner_->stats(); }

 protected:
  void ResetWorkspace() override { inner_->Reset(); }

 private:
  std::unique_ptr<bagcq::lp::Solver> inner_;
  Tracer* tracer_;
};

/// A TracingSolver around the backend, pivot rule, arithmetic and warm-start
/// setting that an Engine with `options` builds for itself.
std::unique_ptr<TracingSolver> EngineTracingSolver(
    const bagcq::api::EngineOptions& options, Tracer* tracer);

/// The lp.* per-layer metrics of a traced run: solves, pivots and warm
/// accepts per operation, LP self time per op and per pivot, and ladder
/// escalations (128-bit pivots plus BigInt promotions) per 1000 operations.
void SetLpMetrics(RunResult* out, const TracingSolver& solver,
                  double lp_self_ns, double ops);

}  // namespace perfbench
