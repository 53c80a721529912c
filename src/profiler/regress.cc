#include "profiler/regress.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>

#include "common/error.h"

namespace multigrain::prof {

namespace {

bool
ends_with(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
contains(const std::string &s, const std::string &needle)
{
    return s.find(needle) != std::string::npos;
}

std::string
fmt_value(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
fmt_percent(double fraction)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%+.2f%%", fraction * 100.0);
    return buf;
}

std::string
describe_manifest(const RunManifest &m)
{
    std::string s = m.git_sha.substr(0, 12);
    s += m.git_dirty ? " (dirty)" : " (clean)";
    if (!m.timestamp.empty()) {
        s += " @ " + m.timestamp;
    }
    return s;
}

}  // namespace

const char *
to_string(Direction direction)
{
    switch (direction) {
      case Direction::kLowerIsBetter:
        return "lower-is-better";
      case Direction::kHigherIsBetter:
        return "higher-is-better";
      case Direction::kInformational:
        return "informational";
    }
    return "?";
}

const char *
to_string(DeltaStatus status)
{
    switch (status) {
      case DeltaStatus::kOk:
        return "ok";
      case DeltaStatus::kImproved:
        return "improved";
      case DeltaStatus::kRegressed:
        return "regressed";
      case DeltaStatus::kMissingMetric:
        return "missing-metric";
      case DeltaStatus::kNewMetric:
        return "new-metric";
    }
    return "?";
}

MetricPolicy
default_metric_policy(const std::string &key)
{
    // Plan-cache counters: deterministic runs make them exact, so a
    // single stray miss (a fingerprint or device-key change breaking
    // reuse) trips the gate rather than hiding inside a percentage.
    if (key == "plan_cache.entries" || key == "plan_cache.capacity") {
        return {Direction::kInformational, 0.0, 0.0};
    }
    if (key == "plan_cache.hits" || key == "plan_cache.hit_rate") {
        return {Direction::kHigherIsBetter, 0.0,
                key == "plan_cache.hits" ? 0.25 : 1e-9};
    }
    if (key == "plan_cache.misses" || key == "plan_cache.evictions") {
        return {Direction::kLowerIsBetter, 0.0, 0.25};
    }
    // Engine work counters (gpusim/engine.h) are a pure function of the
    // submitted launches, so one extra simulated unit or event is a real
    // change in how much the engine simulates.
    if (key.rfind("gpusim.", 0) == 0) {
        return {Direction::kLowerIsBetter, 0.0, 0.25};
    }
    // Serving counters (mgserve rows): gpusim-backed serving runs are
    // deterministic, so shed/timeout/deadline counts are exact — one
    // extra shed request is a real admission or scheduling change.
    // Volume/shape counters (requests issued, rounds dispatched, queue
    // high-water mark, mean batch size) describe the workload rather
    // than a cost and never gate.
    if (key == "rejected" || key == "timed_out" || key == "deadline_miss") {
        return {Direction::kLowerIsBetter, 0.0, 0.25};
    }
    if (key == "requests" || key == "completed" || key == "admitted" ||
        key == "rounds" || key == "max_queue_depth" ||
        key == "avg_batch" || key == "max_batch" || key == "count") {
        return {Direction::kInformational, 0.0, 0.0};
    }
    if (ends_with(key, "_rps") || ends_with(key, "_qps")) {
        return {Direction::kHigherIsBetter, 0.02, 1e-6};
    }
    if (contains(key, "speedup") || ends_with(key, "_x")) {
        return {Direction::kHigherIsBetter, 0.02, 0.01};
    }
    if (ends_with(key, "gflops") || ends_with(key, "_gbps") ||
        ends_with(key, "_rate") || contains(key, "util") ||
        contains(key, "overlap")) {
        return {Direction::kHigherIsBetter, 0.02, 1e-6};
    }
    // Static memory-plan metrics (core/memplan.h): the planner is
    // deterministic, so footprints are exact — one grown byte is a real
    // plan or annotation change, not noise. Savings gate the other way:
    // losing pooling is the regression. These must outrank the generic
    // "_bytes" rule below, which tolerates 2 %.
    if (key == "max_queued_hbm_bytes") {
        return {Direction::kInformational, 0.0, 0.0};
    }
    if (ends_with(key, "hbm_bytes")) {
        return {Direction::kLowerIsBetter, 0.0, 0.0};
    }
    if (ends_with(key, "pooling_savings")) {
        return {Direction::kHigherIsBetter, 0.0, 0.0};
    }
    if (key == "shed_memory" || key == "shed_ratelimit") {
        return {Direction::kLowerIsBetter, 0.0, 0.25};
    }
    if (ends_with(key, "_us") || ends_with(key, "_ms")) {
        return {Direction::kLowerIsBetter, 0.02, 0.05};
    }
    if (ends_with(key, "_bytes")) {
        return {Direction::kLowerIsBetter, 0.02, 1024.0};
    }
    if (ends_with(key, "_j") || ends_with(key, "_watts")) {
        return {Direction::kLowerIsBetter, 0.02, 1e-6};
    }
    // Unknown metrics gate conservatively as costs.
    return {Direction::kLowerIsBetter, 0.02, 0.0};
}

namespace {

MetricDelta
judge_metric(const std::string &key, double baseline, double current,
             const CompareOptions &options)
{
    MetricDelta d;
    d.metric = key;
    d.baseline = baseline;
    d.current = current;
    d.policy = default_metric_policy(key);
    d.rel_change =
        baseline != 0 ? (current - baseline) / std::fabs(baseline) : 0.0;

    if (d.policy.direction == Direction::kInformational) {
        d.status = DeltaStatus::kOk;
        return d;
    }
    const double worse = d.policy.direction == Direction::kLowerIsBetter
                             ? current - baseline
                             : baseline - current;
    const double allowed =
        std::max(d.policy.abs_tol * options.tol_scale,
                 d.policy.rel_tol * options.tol_scale *
                     std::fabs(baseline));
    if (worse > allowed) {
        d.status = DeltaStatus::kRegressed;
    } else if (worse < -allowed) {
        d.status = DeltaStatus::kImproved;
    } else {
        d.status = DeltaStatus::kOk;
    }
    return d;
}

}  // namespace

RegressionReport
compare_runs(const BenchRun &baseline, const BenchRun &current,
             const CompareOptions &options)
{
    MG_CHECK(options.tol_scale >= 0) << "tol_scale must be non-negative";
    RegressionReport report;
    report.name = current.name.empty() ? baseline.name : current.name;
    report.baseline_manifest = baseline.manifest;
    report.current_manifest = current.manifest;

    std::set<std::string> baseline_keys;
    for (const BenchRow &brow : baseline.rows) {
        const std::string key = brow.key();
        baseline_keys.insert(key);
        RowDelta rd;
        rd.row_key = key;
        const BenchRow *crow = current.find_row(key);
        if (crow == nullptr) {
            rd.status = RowStatus::kMissingInCurrent;
            ++report.missing_rows;
            report.rows.push_back(std::move(rd));
            continue;
        }
        rd.status = RowStatus::kMatched;
        for (const auto &[metric, bvalue] : brow.metrics) {
            const double *cvalue = crow->find_metric(metric);
            if (cvalue == nullptr) {
                MetricDelta d;
                d.metric = metric;
                d.baseline = bvalue;
                d.policy = default_metric_policy(metric);
                d.status = DeltaStatus::kMissingMetric;
                ++report.missing_metrics;
                rd.metrics.push_back(std::move(d));
                continue;
            }
            MetricDelta d = judge_metric(metric, bvalue, *cvalue, options);
            switch (d.status) {
              case DeltaStatus::kRegressed:
                ++report.regressed;
                break;
              case DeltaStatus::kImproved:
                ++report.improved;
                break;
              default:
                ++report.ok;
                break;
            }
            rd.metrics.push_back(std::move(d));
        }
        for (const auto &[metric, cvalue] : crow->metrics) {
            if (brow.find_metric(metric) == nullptr) {
                MetricDelta d;
                d.metric = metric;
                d.current = cvalue;
                d.policy = default_metric_policy(metric);
                d.status = DeltaStatus::kNewMetric;
                rd.metrics.push_back(std::move(d));
            }
        }
        report.rows.push_back(std::move(rd));
    }

    for (const BenchRow &crow : current.rows) {
        if (baseline_keys.count(crow.key()) == 0) {
            RowDelta rd;
            rd.row_key = crow.key();
            rd.status = RowStatus::kNewInCurrent;
            ++report.new_rows;
            report.rows.push_back(std::move(rd));
        }
    }
    return report;
}

void
print_report(const RegressionReport &report, std::ostream &os,
             bool verbose)
{
    os << "### " << report.name << " — "
       << (report.gate_failed() ? "FAIL" : "ok") << " ("
       << report.regressed << " regressed, " << report.improved
       << " improved, " << report.ok << " ok";
    if (report.new_rows > 0) {
        os << ", " << report.new_rows << " new rows";
    }
    if (report.missing_rows > 0) {
        os << ", " << report.missing_rows << " missing rows";
    }
    if (report.missing_metrics > 0) {
        os << ", " << report.missing_metrics << " missing metrics";
    }
    os << ")\n";
    os << "baseline " << describe_manifest(report.baseline_manifest)
       << " | current " << describe_manifest(report.current_manifest)
       << "\n";

    bool header = false;
    const auto emit_header = [&] {
        if (!header) {
            os << "\n| row | metric | baseline | current | change |"
                  " status |\n";
            os << "|---|---|---|---|---|---|\n";
            header = true;
        }
    };
    for (const RowDelta &rd : report.rows) {
        if (rd.status == RowStatus::kMissingInCurrent) {
            emit_header();
            os << "| " << rd.row_key
               << " | — | — | — | — | missing-row |\n";
            continue;
        }
        if (rd.status == RowStatus::kNewInCurrent) {
            if (verbose) {
                emit_header();
                os << "| " << rd.row_key
                   << " | — | — | — | — | new-row |\n";
            }
            continue;
        }
        for (const MetricDelta &d : rd.metrics) {
            const bool interesting = d.status == DeltaStatus::kRegressed ||
                                     d.status == DeltaStatus::kImproved ||
                                     d.status ==
                                         DeltaStatus::kMissingMetric;
            if (!interesting && !verbose) {
                continue;
            }
            emit_header();
            os << "| " << rd.row_key << " | " << d.metric << " | "
               << fmt_value(d.baseline) << " | " << fmt_value(d.current)
               << " | " << fmt_percent(d.rel_change) << " | "
               << to_string(d.status) << " |\n";
        }
    }
    if (!header) {
        os << "no deltas outside tolerance\n";
    }
    os << "\n";
}

void
write_report_json(JsonWriter &w, const RegressionReport &report)
{
    w.begin_object();
    w.field("name", report.name);
    w.field("gate_failed", report.gate_failed());
    w.field("regressed", report.regressed);
    w.field("improved", report.improved);
    w.field("ok", report.ok);
    w.field("new_rows", report.new_rows);
    w.field("missing_rows", report.missing_rows);
    w.field("missing_metrics", report.missing_metrics);
    w.key("baseline_manifest");
    write_manifest(w, report.baseline_manifest);
    w.key("current_manifest");
    write_manifest(w, report.current_manifest);
    w.key("rows");
    w.begin_array();
    for (const RowDelta &rd : report.rows) {
        w.begin_object();
        w.field("key", rd.row_key);
        const char *status =
            rd.status == RowStatus::kMatched
                ? "matched"
                : (rd.status == RowStatus::kMissingInCurrent
                       ? "missing-in-current"
                       : "new-in-current");
        w.field("status", status);
        w.key("metrics");
        w.begin_array();
        for (const MetricDelta &d : rd.metrics) {
            w.begin_object();
            w.field("metric", d.metric);
            w.field("baseline", d.baseline);
            w.field("current", d.current);
            w.field("rel_change", d.rel_change);
            w.field("direction", to_string(d.policy.direction));
            w.field("rel_tol", d.policy.rel_tol);
            w.field("abs_tol", d.policy.abs_tol);
            w.field("status", to_string(d.status));
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

}  // namespace multigrain::prof
