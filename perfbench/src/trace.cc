#include "trace.h"

#include <cstdio>

namespace perfbench {

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    SpanTotals& totals = out[spans_[i].name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns[i];
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "request\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", s.request, i, s.parent,
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(file) == 0;
}

std::unique_ptr<TracingSolver> EngineTracingSolver(
    const bagcq::api::EngineOptions& options, Tracer* tracer) {
  bagcq::lp::SolverOptions solver_options;
  solver_options.pivot_rule = options.pivot_rule();
  solver_options.warm_starts = options.warm_starts();
  solver_options.exact_arithmetic = options.exact_arithmetic();
  return std::make_unique<TracingSolver>(
      bagcq::lp::MakeSolver(options.solver_backend(), solver_options), tracer,
      options.warm_starts());
}

void SetLpMetrics(RunResult* out, const TracingSolver& solver,
                  double lp_self_ns, double ops) {
  const bagcq::lp::SolverStats& stats = solver.inner_stats();
  const double solves = double(stats.solves);
  const double pivots = double(stats.exact_pivots);
  out->Set("lp.solve_ms", lp_self_ns / ops / 1e6, "ms");
  out->Set("lp.solves_per_op", solves / ops, "count");
  out->Set("lp.pivots_per_op", pivots / ops, "count");
  out->Set("lp.us_per_pivot", pivots > 0 ? lp_self_ns / pivots / 1e3 : 0.0,
           "us");
  out->Set("lp.warm_accept_ratio",
           solves > 0 ? double(stats.warm_accepts) / solves : 0.0, "ratio");
  out->Set("lp.escalations",
           double(stats.wide_pivots + stats.bigint_promotions) / ops * 1e3,
           "count/kop");
}

}  // namespace perfbench
