#include "serve/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "gpusim/trace.h"
#include "profiler/export.h"
#include "profiler/history.h"
#include "serve/cost.h"

namespace multigrain::serve {

// ---- Event names --------------------------------------------------------

const char *
to_string(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::kArrive:
        return "arrive";
      case TraceEventKind::kAdmit:
        return "admit";
      case TraceEventKind::kShed:
        return "shed";
      case TraceEventKind::kShedRateLimit:
        return "shed_ratelimit";
      case TraceEventKind::kAgeOut:
        return "age_out";
      case TraceEventKind::kBatchForm:
        return "batch_form";
      case TraceEventKind::kRoundDispatch:
        return "round_dispatch";
      case TraceEventKind::kBatchDone:
        return "batch_done";
      case TraceEventKind::kComplete:
        return "complete";
      case TraceEventKind::kRoundDone:
        return "round_done";
    }
    return "?";
}

TraceEventKind
trace_event_kind_by_name(const std::string &name)
{
    static const TraceEventKind kinds[] = {
        TraceEventKind::kArrive,        TraceEventKind::kAdmit,
        TraceEventKind::kShed,          TraceEventKind::kShedRateLimit,
        TraceEventKind::kAgeOut,        TraceEventKind::kBatchForm,
        TraceEventKind::kRoundDispatch, TraceEventKind::kBatchDone,
        TraceEventKind::kComplete,      TraceEventKind::kRoundDone,
    };
    for (const TraceEventKind kind : kinds) {
        if (name == to_string(kind)) {
            return kind;
        }
    }
    throw Error("unknown trace event kind \"" + name + "\"");
}

// ---- Event serialization ------------------------------------------------

namespace {

/// Emits one event object. Field presence is a deterministic function
/// of the kind, so same-seed logs are byte-identical; +inf deadlines
/// (classes without a budget) are represented by omitting the field.
void
write_event(JsonWriter &w, const TraceEvent &e)
{
    w.begin_object();
    w.field("seq", static_cast<std::int64_t>(e.seq));
    w.field("kind", to_string(e.kind));
    w.field("t_us", e.t_us);
    switch (e.kind) {
      case TraceEventKind::kArrive:
        w.field("request", e.request);
        w.field("tenant", e.tenant);
        w.field("model", e.model);
        w.field("slo", e.slo);
        w.field("valid_len", static_cast<std::int64_t>(e.valid_len));
        if (std::isfinite(e.deadline_us)) {
            w.field("deadline_us", e.deadline_us);
        }
        break;
      case TraceEventKind::kAdmit:
      case TraceEventKind::kShed:
      case TraceEventKind::kShedRateLimit:
      case TraceEventKind::kAgeOut:
        w.field("request", e.request);
        break;
      case TraceEventKind::kBatchForm:
        w.field("request", e.request);
        w.field("batch", e.batch);
        w.field("round", e.round);
        w.field("model", e.model);
        w.field("bucket", static_cast<std::int64_t>(e.bucket));
        w.field("planned_batch", e.planned_batch);
        w.field("actual_batch", e.actual_batch);
        break;
      case TraceEventKind::kRoundDispatch:
        w.field("round", e.round);
        w.field("actual_batch", e.actual_batch);
        w.field("hbm_bytes", static_cast<std::int64_t>(e.hbm_bytes));
        break;
      case TraceEventKind::kBatchDone:
        w.field("batch", e.batch);
        w.field("round", e.round);
        break;
      case TraceEventKind::kComplete:
        w.field("request", e.request);
        w.field("batch", e.batch);
        w.field("round", e.round);
        w.field("flag", e.flag);
        break;
      case TraceEventKind::kRoundDone:
        w.field("round", e.round);
        break;
    }
    w.end_object();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::string
event_to_json(const TraceEvent &event)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        write_event(w, event);
    }
    return os.str();
}

TraceEvent
event_from_json(const JsonValue &doc)
{
    MG_CHECK(doc.is_object()) << "trace event must be a JSON object";
    TraceEvent e;
    e.seq = static_cast<std::uint64_t>(doc.at("seq").as_number());
    e.kind = trace_event_kind_by_name(doc.at("kind").as_string());
    e.t_us = doc.at("t_us").as_number();
    const auto number = [&doc](const char *k, double fallback) {
        const JsonValue *v = doc.find(k);
        return v != nullptr ? v->as_number() : fallback;
    };
    e.request = static_cast<std::int64_t>(number("request", -1));
    e.batch = static_cast<std::int64_t>(number("batch", -1));
    e.round = static_cast<std::int64_t>(number("round", -1));
    if (const JsonValue *v = doc.find("tenant")) {
        e.tenant = v->as_string();
    }
    if (const JsonValue *v = doc.find("model")) {
        e.model = v->as_string();
    }
    e.slo = static_cast<int>(number("slo", -1));
    e.valid_len = static_cast<index_t>(number("valid_len", 0));
    e.deadline_us = e.kind == TraceEventKind::kArrive
                        ? number("deadline_us", kInf)
                        : number("deadline_us", 0);
    e.bucket = static_cast<index_t>(number("bucket", 0));
    e.planned_batch = static_cast<int>(number("planned_batch", 0));
    e.actual_batch = static_cast<int>(number("actual_batch", 0));
    e.hbm_bytes = static_cast<std::uint64_t>(number("hbm_bytes", 0));
    if (const JsonValue *v = doc.find("flag")) {
        e.flag = v->as_bool();
    }
    return e;
}

void
write_events_jsonl(const std::vector<TraceEvent> &events, std::ostream &os)
{
    for (const TraceEvent &e : events) {
        os << event_to_json(e) << "\n";
    }
}

std::vector<TraceEvent>
events_from_jsonl(const std::string &text)
{
    std::vector<TraceEvent> events;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty()) {
            continue;
        }
        events.push_back(event_from_json(json_parse(line)));
    }
    return events;
}

// ---- TraceLog + flight recorder -----------------------------------------

TraceLog::TraceLog(TraceConfig config) : config_(config)
{
    MG_CHECK(config_.ring_rounds > 0)
        << "flight recorder needs at least one round of window";
}

void
TraceLog::record(TraceEvent event)
{
    event.seq = next_seq_++;
    if (config_.retain_full) {
        events_.push_back(event);
    }
    ring_.push_back(event);
    if (event.kind == TraceEventKind::kRoundDispatch) {
        round_start_seqs_.push_back(event.seq);
        if (round_start_seqs_.size() > config_.ring_rounds) {
            // The ring keeps the last ring_rounds rounds: drop the
            // oldest retained round and every event before the new
            // oldest round's dispatch.
            round_start_seqs_.pop_front();
            while (!ring_.empty() &&
                   ring_.front().seq < round_start_seqs_.front()) {
                ring_.pop_front();
            }
        }
    }
    detect(ring_.back());
}

void
TraceLog::record_round_sim(std::int64_t round, double dispatch_us,
                           const sim::SimResult &result)
{
    if (!config_.capture_sim) {
        return;
    }
    RoundSim rs;
    rs.round = round;
    rs.dispatch_us = dispatch_us;
    rs.result = result;
    round_sims_.push_back(std::move(rs));
}

void
TraceLog::detect(const TraceEvent &event)
{
    switch (event.kind) {
      case TraceEventKind::kAdmit:
        ratelimit_run_ = 0;
        break;
      case TraceEventKind::kShedRateLimit: {
        ++ratelimit_run_;
        if (config_.ratelimit_streak > 0 &&
            ratelimit_run_ >= config_.ratelimit_streak) {
            std::ostringstream os;
            os << ratelimit_run_
               << " consecutive token-bucket sheds";
            fire("ratelimit_burst", event.t_us, os.str());
            ratelimit_run_ = 0;
        }
        break;
      }
      case TraceEventKind::kShed: {
        ratelimit_run_ = 0;
        recent_shed_us_.push_back(event.t_us);
        while (!recent_shed_us_.empty() &&
               recent_shed_us_.front() <
                   event.t_us - config_.shed_window_us) {
            recent_shed_us_.pop_front();
        }
        if (config_.shed_burst > 0 &&
            recent_shed_us_.size() >=
                static_cast<std::size_t>(config_.shed_burst)) {
            std::ostringstream os;
            os << recent_shed_us_.size() << " sheds within "
               << config_.shed_window_us << " us";
            fire("shed_burst", event.t_us, os.str());
            recent_shed_us_.clear();  // Re-arm from an empty window.
        }
        break;
      }
      case TraceEventKind::kComplete: {
        if (event.flag) {
            miss_run_ = 0;
            break;
        }
        ++miss_run_;
        if (config_.miss_streak > 0 && miss_run_ >= config_.miss_streak) {
            std::ostringstream os;
            os << miss_run_ << " consecutive deadline misses";
            fire("deadline_miss_streak", event.t_us, os.str());
            miss_run_ = 0;
        }
        break;
      }
      case TraceEventKind::kRoundDispatch: {
        if (config_.stall_us > 0 && last_round_done_us_ >= 0 &&
            event.t_us - last_round_done_us_ > config_.stall_us) {
            std::ostringstream os;
            os << "device idle " << event.t_us - last_round_done_us_
               << " us between rounds";
            fire("empty_round_stall", event.t_us, os.str());
        }
        break;
      }
      case TraceEventKind::kRoundDone:
        last_round_done_us_ = event.t_us;
        break;
      default:
        break;
    }
}

void
TraceLog::fire(const char *trigger, double t_us, std::string detail)
{
    Incident inc;
    inc.trigger = trigger;
    inc.t_us = t_us;
    inc.detail = std::move(detail);
    MG_CHECK(!ring_.empty()) << "anomaly fired on an empty ring";
    inc.first_seq = ring_.front().seq;
    inc.last_seq = ring_.back().seq;
    inc.events.assign(ring_.begin(), ring_.end());
    incidents_.push_back(std::move(inc));
}

// ---- Incident serialization ---------------------------------------------

std::string
incident_to_json(const Incident &incident, const TraceRunInfo &info,
                 const TraceConfig &config)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("schema", prof::kServeIncidentSchema);
        w.field("schema_version", prof::kServeIncidentVersion);
        w.field("preset", info.preset);
        w.field("device", info.device);
        w.field("seed", static_cast<std::int64_t>(info.seed));
        w.field("trigger", incident.trigger);
        w.field("t_us", incident.t_us);
        w.field("detail", incident.detail);
        w.field("first_seq", static_cast<std::int64_t>(incident.first_seq));
        w.field("last_seq", static_cast<std::int64_t>(incident.last_seq));
        w.key("thresholds");
        w.begin_object();
        w.field("ring_rounds", static_cast<std::int64_t>(config.ring_rounds));
        w.field("shed_burst", config.shed_burst);
        w.field("shed_window_us", config.shed_window_us);
        w.field("miss_streak", config.miss_streak);
        w.field("stall_us", config.stall_us);
        w.field("ratelimit_streak", config.ratelimit_streak);
        w.end_object();
        w.key("events");
        w.begin_array();
        for (const TraceEvent &e : incident.events) {
            write_event(w, e);
        }
        w.end_array();
        w.end_object();
    }
    return os.str();
}

Incident
incident_from_json(const JsonValue &doc)
{
    MG_CHECK(doc.is_object()) << "incident must be a JSON object";
    MG_CHECK(doc.at("schema").as_string() == prof::kServeIncidentSchema)
        << "not an mgtrace.incident document";
    MG_CHECK(static_cast<int>(doc.at("schema_version").as_number()) ==
             prof::kServeIncidentVersion)
        << "unsupported incident schema version";
    Incident inc;
    inc.trigger = doc.at("trigger").as_string();
    inc.t_us = doc.at("t_us").as_number();
    inc.detail = doc.at("detail").as_string();
    inc.first_seq =
        static_cast<std::uint64_t>(doc.at("first_seq").as_number());
    inc.last_seq =
        static_cast<std::uint64_t>(doc.at("last_seq").as_number());
    const JsonValue &events = doc.at("events");
    MG_CHECK(events.is_array()) << "incident events must be an array";
    inc.events.reserve(events.array.size());
    for (const JsonValue &e : events.array) {
        inc.events.push_back(event_from_json(e));
    }
    return inc;
}

Incident
incident_from_json(const std::string &text)
{
    return incident_from_json(json_parse(text));
}

// ---- Spans --------------------------------------------------------------

std::vector<RequestSpans>
spans_from_events(const std::vector<TraceEvent> &events)
{
    // Keyed by request id so the result is sorted and deterministic
    // regardless of completion interleaving.
    std::map<std::int64_t, RequestSpans> by_request;
    struct BatchInfo {
        double useful_tokens = 0;
        std::vector<std::int64_t> members;
    };
    std::map<std::int64_t, BatchInfo> batches;
    std::map<std::int64_t, std::vector<std::int64_t>> round_members;

    for (const TraceEvent &e : events) {
        switch (e.kind) {
          case TraceEventKind::kArrive: {
            RequestSpans s;
            s.request = e.request;
            s.tenant = e.tenant;
            s.model = e.model;
            s.slo = e.slo;
            s.valid_len = e.valid_len;
            s.arrive_us = s.admit_us = s.batched_us = s.dispatched_us =
                s.finish_us = e.t_us;
            by_request[e.request] = std::move(s);
            break;
          }
          case TraceEventKind::kAdmit: {
            const auto it = by_request.find(e.request);
            if (it == by_request.end()) {
                break;  // Arrival outside this window.
            }
            it->second.admit_us = it->second.batched_us =
                it->second.dispatched_us = it->second.finish_us = e.t_us;
            break;
          }
          case TraceEventKind::kShed:
          case TraceEventKind::kShedRateLimit: {
            const auto it = by_request.find(e.request);
            if (it == by_request.end()) {
                break;
            }
            RequestSpans &s = it->second;
            s.outcome = e.kind == TraceEventKind::kShed ? "shed"
                                                        : "rate_limited";
            s.deadline_met = false;
            s.admit_us = s.batched_us = s.dispatched_us = s.finish_us =
                e.t_us;
            break;
          }
          case TraceEventKind::kAgeOut: {
            const auto it = by_request.find(e.request);
            if (it == by_request.end()) {
                break;
            }
            RequestSpans &s = it->second;
            s.outcome = "aged_out";
            s.deadline_met = false;
            s.batched_us = s.dispatched_us = s.finish_us = e.t_us;
            break;
          }
          case TraceEventKind::kBatchForm: {
            const auto it = by_request.find(e.request);
            if (it == by_request.end()) {
                break;
            }
            RequestSpans &s = it->second;
            s.batch = e.batch;
            s.round = e.round;
            s.bucket = e.bucket;
            s.planned_batch = e.planned_batch;
            s.actual_batch = e.actual_batch;
            s.batched_us = s.dispatched_us = s.finish_us = e.t_us;
            BatchInfo &b = batches[e.batch];
            b.useful_tokens += static_cast<double>(s.valid_len);
            b.members.push_back(e.request);
            round_members[e.round].push_back(e.request);
            break;
          }
          case TraceEventKind::kRoundDispatch: {
            // Batch formation and dispatch coincide today; keep the
            // boundary honest anyway so a future scheduler that forms
            // batches ahead of dispatch reports batch-wait > 0.
            const auto it = round_members.find(e.round);
            if (it == round_members.end()) {
                break;
            }
            for (const std::int64_t request : it->second) {
                RequestSpans &s = by_request.at(request);
                s.dispatched_us = s.finish_us = e.t_us;
            }
            break;
          }
          case TraceEventKind::kComplete: {
            const auto it = by_request.find(e.request);
            if (it == by_request.end()) {
                break;
            }
            RequestSpans &s = it->second;
            MG_CHECK(s.batch >= 0)
                << "completion for request " << e.request
                << " that was never batched";
            s.outcome = "completed";
            s.deadline_met = e.flag;
            s.finish_us = e.t_us;
            break;
          }
          case TraceEventKind::kBatchDone:
          case TraceEventKind::kRoundDone:
            break;
        }
    }

    std::vector<RequestSpans> spans;
    spans.reserve(by_request.size());
    for (auto &[id, s] : by_request) {
        if (s.outcome.empty()) {
            continue;  // Still in flight at the end of the window.
        }
        if (s.outcome == "completed") {
            // Padding share of the batch's device time: the plan ran
            // planned_batch × bucket tokens, the members brought
            // useful_tokens of real work.
            const double planned_tokens =
                static_cast<double>(s.planned_batch) *
                static_cast<double>(s.bucket);
            if (planned_tokens > 0) {
                const BatchInfo &b = batches.at(s.batch);
                const double frac =
                    1.0 - b.useful_tokens / planned_tokens;
                s.pad_us = s.device_us() * std::max(0.0, frac);
            }
        }
        spans.push_back(std::move(s));
    }
    return spans;
}

std::vector<RequestSpans>
spans_from_events(const std::deque<TraceEvent> &events)
{
    return spans_from_events(
        std::vector<TraceEvent>(events.begin(), events.end()));
}

// ---- SLO attribution + reconciliation -----------------------------------

namespace {

/// Interpolated percentile breakdown over completed spans sorted by
/// (latency, request id) — the same closest-ranks formula as
/// prof::percentile, applied to every component between the same two
/// ranked requests, so the component interpolations sum to the latency
/// interpolation and the total reconciles with the ServeReport figure.
SpanBreakdown
breakdown_at(const std::vector<const RequestSpans *> &sorted, double p)
{
    SpanBreakdown b;
    if (sorted.empty()) {
        return b;
    }
    const std::size_t n = sorted.size();
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const std::size_t lo =
        std::min(static_cast<std::size_t>(std::floor(rank)), n - 1);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    const auto interp = [&](double lo_v, double hi_v) {
        return lo_v + (hi_v - lo_v) * frac;
    };
    const RequestSpans &a = *sorted[lo];
    const RequestSpans &z = *sorted[hi];
    b.total_us = interp(a.latency_us(), z.latency_us());
    b.admission_us = interp(a.admission_us(), z.admission_us());
    b.queue_us = interp(a.queue_us(), z.queue_us());
    b.batch_wait_us = interp(a.batch_wait_us(), z.batch_wait_us());
    b.pad_us = interp(a.pad_us, z.pad_us);
    b.device_us = interp(a.compute_us(), z.compute_us());
    return b;
}

SpanBreakdown
breakdown_mean(const std::vector<const RequestSpans *> &spans)
{
    SpanBreakdown b;
    if (spans.empty()) {
        return b;
    }
    for (const RequestSpans *s : spans) {
        b.total_us += s->latency_us();
        b.admission_us += s->admission_us();
        b.queue_us += s->queue_us();
        b.batch_wait_us += s->batch_wait_us();
        b.pad_us += s->pad_us;
        b.device_us += s->compute_us();
    }
    const double n = static_cast<double>(spans.size());
    b.total_us /= n;
    b.admission_us /= n;
    b.queue_us /= n;
    b.batch_wait_us /= n;
    b.pad_us /= n;
    b.device_us /= n;
    return b;
}

void
write_breakdown(JsonWriter &w, const char *key, const SpanBreakdown &b)
{
    w.key(key);
    w.begin_object();
    w.field("total_us", b.total_us);
    w.field("admission_us", b.admission_us);
    w.field("queue_us", b.queue_us);
    w.field("batch_wait_us", b.batch_wait_us);
    w.field("pad_us", b.pad_us);
    w.field("device_us", b.device_us);
    w.end_object();
}

}  // namespace

TraceReport
build_trace_report(const TraceLog &log, const ServeReport &report,
                   const TraceRunInfo &info)
{
    TraceReport tr;
    tr.info = info;
    tr.events = log.events().size();
    tr.incidents = log.incidents();
    std::vector<std::string> &errors = tr.reconcile_errors;
    const auto check = [&errors](bool ok, const std::string &msg) {
        if (!ok) {
            errors.push_back(msg);
        }
    };
    const auto mismatch = [](const std::string &what, double got,
                             double want) {
        std::ostringstream os;
        os << what << ": trace says " << got << ", ServeReport says "
           << want;
        return os.str();
    };

    const std::vector<RequestSpans> spans =
        spans_from_events(log.events());
    tr.requests = spans.size();

    std::vector<const RequestSpans *> completed[kNumSloClasses];
    std::vector<const RequestSpans *> all_completed;
    double first_arrival = kInf;
    double last_finish = -kInf;
    for (const RequestSpans &s : spans) {
        // Boundary chaining: consecutive timestamps, so the components
        // telescope to the latency exactly. A violation means the
        // instrumentation emitted out-of-order times.
        check(s.arrive_us <= s.admit_us && s.admit_us <= s.batched_us &&
                  s.batched_us <= s.dispatched_us &&
                  s.dispatched_us <= s.finish_us,
              "request " + std::to_string(s.request) +
                  ": span boundaries not monotone");
        check(s.pad_us >= 0 && s.pad_us <= s.device_us(),
              "request " + std::to_string(s.request) +
                  ": pad outside device span");
        const double sum = s.admission_us() + s.queue_us() +
                           s.batch_wait_us() + s.pad_us + s.compute_us();
        check(close_rel(sum, s.latency_us()),
              mismatch("request " + std::to_string(s.request) +
                           " component sum",
                       sum, s.latency_us()));
        if (s.outcome == "shed") {
            ++tr.shed;
        } else if (s.outcome == "rate_limited") {
            ++tr.rate_limited;
        } else if (s.outcome == "aged_out") {
            ++tr.aged_out;
        } else {
            ++tr.completed;
            if (!s.deadline_met) {
                ++tr.deadline_miss;
            }
            MG_CHECK(s.slo >= 0 && s.slo < kNumSloClasses)
                << "span with unknown SLO class " << s.slo;
            completed[s.slo].push_back(&s);
            all_completed.push_back(&s);
            first_arrival = std::min(first_arrival, s.arrive_us);
            last_finish = std::max(last_finish, s.finish_us);
        }
    }
    tr.rounds = report.rounds;

    // ---- Counters must reconcile exactly (they are integers) ----------
    check(tr.requests == report.admission.offered,
          mismatch("offered requests", static_cast<double>(tr.requests),
                   static_cast<double>(report.admission.offered)));
    check(tr.shed + tr.rate_limited == report.admission.rejected,
          mismatch("shed requests",
                   static_cast<double>(tr.shed + tr.rate_limited),
                   static_cast<double>(report.admission.rejected)));
    check(tr.rate_limited == report.admission.shed_ratelimit,
          mismatch("rate-limited requests",
                   static_cast<double>(tr.rate_limited),
                   static_cast<double>(report.admission.shed_ratelimit)));
    check(tr.aged_out == report.admission.timed_out,
          mismatch("aged-out requests", static_cast<double>(tr.aged_out),
                   static_cast<double>(report.admission.timed_out)));
    check(tr.completed == report.completed,
          mismatch("completed requests",
                   static_cast<double>(tr.completed),
                   static_cast<double>(report.completed)));
    check(tr.deadline_miss == report.deadline_miss,
          mismatch("deadline misses",
                   static_cast<double>(tr.deadline_miss),
                   static_cast<double>(report.deadline_miss)));

    // ---- Latency figures within tolerance -----------------------------
    const auto sort_by_latency =
        [](std::vector<const RequestSpans *> &v) {
            std::sort(v.begin(), v.end(),
                      [](const RequestSpans *a, const RequestSpans *b) {
                          if (a->latency_us() != b->latency_us()) {
                              return a->latency_us() < b->latency_us();
                          }
                          return a->request < b->request;
                      });
        };
    sort_by_latency(all_completed);
    const SpanBreakdown all_p50 = breakdown_at(all_completed, 50);
    const SpanBreakdown all_p95 = breakdown_at(all_completed, 95);
    const SpanBreakdown all_p99 = breakdown_at(all_completed, 99);
    check(close_rel(all_p50.total_us, report.latency.p50),
          mismatch("p50", all_p50.total_us, report.latency.p50));
    check(close_rel(all_p95.total_us, report.latency.p95),
          mismatch("p95", all_p95.total_us, report.latency.p95));
    check(close_rel(all_p99.total_us, report.latency.p99),
          mismatch("p99", all_p99.total_us, report.latency.p99));
    if (tr.completed > 0) {
        check(close_rel(last_finish - first_arrival, report.makespan_us),
              mismatch("makespan", last_finish - first_arrival,
                       report.makespan_us));
    }

    for (int c = 0; c < kNumSloClasses; ++c) {
        ClassAttribution &attr = tr.classes[c];
        attr.slo = c;
        attr.count = completed[c].size();
        sort_by_latency(completed[c]);
        attr.mean = breakdown_mean(completed[c]);
        attr.p50 = breakdown_at(completed[c], 50);
        attr.p95 = breakdown_at(completed[c], 95);
        attr.p99 = breakdown_at(completed[c], 99);

        const prof::LatencySummary &want = report.latency_by_class[c];
        const std::string cls =
            std::string(to_string(static_cast<SloClass>(c)));
        check(attr.count == want.count,
              mismatch(cls + " count", static_cast<double>(attr.count),
                       static_cast<double>(want.count)));
        check(close_rel(attr.mean.total_us, want.mean),
              mismatch(cls + " mean", attr.mean.total_us, want.mean));
        check(close_rel(attr.p50.total_us, want.p50),
              mismatch(cls + " p50", attr.p50.total_us, want.p50));
        check(close_rel(attr.p95.total_us, want.p95),
              mismatch(cls + " p95", attr.p95.total_us, want.p95));
        check(close_rel(attr.p99.total_us, want.p99),
              mismatch(cls + " p99", attr.p99.total_us, want.p99));
    }
    return tr;
}

std::string
trace_report_json(const TraceReport &report)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("schema", prof::kServeTraceReportSchema);
        w.field("schema_version", prof::kServeTraceReportVersion);
        w.key("manifest");
        prof::RunManifest manifest =
            prof::RunManifest::collect(report.info.device);
        prof::write_manifest(w, manifest);
        w.field("preset", report.info.preset);
        w.field("device", report.info.device);
        w.field("seed", static_cast<std::int64_t>(report.info.seed));
        w.field("events", static_cast<std::int64_t>(report.events));
        w.field("requests", static_cast<std::int64_t>(report.requests));
        w.field("completed", static_cast<std::int64_t>(report.completed));
        w.field("shed", static_cast<std::int64_t>(report.shed));
        w.field("rate_limited",
                static_cast<std::int64_t>(report.rate_limited));
        w.field("aged_out", static_cast<std::int64_t>(report.aged_out));
        w.field("deadline_miss",
                static_cast<std::int64_t>(report.deadline_miss));
        w.field("rounds", report.rounds);
        w.field("reconciled", report.reconciled());
        w.key("reconcile_errors");
        w.begin_array();
        for (const std::string &e : report.reconcile_errors) {
            w.value(e);
        }
        w.end_array();
        w.key("classes");
        w.begin_array();
        for (const ClassAttribution &attr : report.classes) {
            w.begin_object();
            w.field("class",
                    to_string(static_cast<SloClass>(attr.slo)));
            w.field("count", static_cast<std::int64_t>(attr.count));
            write_breakdown(w, "mean", attr.mean);
            write_breakdown(w, "p50", attr.p50);
            write_breakdown(w, "p95", attr.p95);
            write_breakdown(w, "p99", attr.p99);
            w.end_object();
        }
        w.end_array();
        w.key("incidents");
        w.begin_array();
        for (const Incident &inc : report.incidents) {
            w.begin_object();
            w.field("trigger", inc.trigger);
            w.field("t_us", inc.t_us);
            w.field("detail", inc.detail);
            w.field("first_seq", static_cast<std::int64_t>(inc.first_seq));
            w.field("last_seq", static_cast<std::int64_t>(inc.last_seq));
            w.field("events",
                    static_cast<std::int64_t>(inc.events.size()));
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    return os.str();
}

// ---- Perfetto export ----------------------------------------------------

namespace {

constexpr int kServePid = 0;
constexpr int kDevicePid = 1;
constexpr int kRoundLane = 5;
constexpr int kBatchLaneBase = 10;

/// Where one replica's tracks land in the shared timeline: its serving
/// lanes under `serve_pid`, its gpusim replays under `device_pid`, and
/// every track name / async category prefixed with `prefix` ("" for the
/// single-server export — which keeps it byte-identical to the
/// pre-fleet output).
struct TrackIds {
    int serve_pid = kServePid;
    int device_pid = kDevicePid;
    std::string prefix;
};

void
meta_name(JsonWriter &w, int pid, int tid, const char *what,
          const std::string &name)
{
    w.begin_object();
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", tid);
    w.field("name", what);
    w.key("args");
    w.begin_object();
    w.field("name", name);
    w.end_object();
    w.end_object();
}

void
async_event(JsonWriter &w, const TrackIds &ids, const char *ph,
            std::int64_t id, const std::string &name, double ts)
{
    w.begin_object();
    w.field("ph", ph);
    w.field("pid", ids.serve_pid);
    w.field("tid", 0);
    w.field("cat", ids.prefix + "request");
    w.field("id", id);
    w.field("name", name);
    w.field("ts", ts);
    w.end_object();
}

void
counter_event(JsonWriter &w, const TrackIds &ids, const std::string &name,
              double ts, double value)
{
    w.begin_object();
    w.field("ph", "C");
    w.field("pid", ids.serve_pid);
    w.field("tid", 0);
    w.field("name", ids.prefix + name);
    w.field("ts", ts);
    w.key("args");
    w.begin_object();
    w.field("value", value);
    w.end_object();
    w.end_object();
}

/// Emits one replica's complete track set into an open traceEvents
/// array — the whole single-server export body, parameterized by where
/// the tracks land.
void
append_serve_tracks(JsonWriter &w, const TraceLog &log,
                    const ServeTraceOptions &options, const TrackIds &ids)
{
    const std::vector<TraceEvent> &events = log.events();
    const std::vector<RequestSpans> spans = spans_from_events(events);

    meta_name(w, ids.serve_pid, 0, "process_name",
              ids.prefix + "serving");
    meta_name(w, ids.serve_pid, kRoundLane, "thread_name", "rounds");

    // ---- Async request spans: one track per request, nested phases ----
    for (const RequestSpans &s : spans) {
        std::ostringstream name;
        name << "req " << s.request << " (" << s.tenant << "/"
             << to_string(static_cast<SloClass>(
                    std::max(0, std::min(s.slo, kNumSloClasses - 1))))
             << ")";
        w.begin_object();
        w.field("ph", "b");
        w.field("pid", ids.serve_pid);
        w.field("tid", 0);
        w.field("cat", ids.prefix + "request");
        w.field("id", s.request);
        w.field("name", name.str());
        w.field("ts", s.arrive_us);
        w.key("args");
        w.begin_object();
        w.field("tenant", s.tenant);
        w.field("model", s.model);
        w.field("outcome", s.outcome);
        w.field("valid_len", static_cast<std::int64_t>(s.valid_len));
        w.field("bucket", static_cast<std::int64_t>(s.bucket));
        w.field("batch", s.batch);
        w.field("round", s.round);
        w.field("deadline_met", s.deadline_met);
        w.field("queue_us", s.queue_us());
        w.field("pad_us", s.pad_us);
        w.field("device_us", s.device_us());
        w.end_object();
        w.end_object();
        if (s.outcome == "completed") {
            async_event(w, ids, "b", s.request, "queue", s.admit_us);
            async_event(w, ids, "e", s.request, "queue", s.dispatched_us);
            async_event(w, ids, "b", s.request, "device", s.dispatched_us);
            async_event(w, ids, "e", s.request, "device", s.finish_us);
        }
        async_event(w, ids, "e", s.request, name.str(), s.finish_us);
    }

    // ---- Batch + round lanes ------------------------------------------
    struct BatchLane {
        int slot = 0;
        std::int64_t round = -1;
        double dispatch_us = 0;
        std::string model;
        index_t bucket = 0;
        int planned = 0;
        int actual = 0;
    };
    std::map<std::int64_t, BatchLane> batch_lanes;
    std::map<std::int64_t, int> round_batches;  ///< round -> slots used.
    std::map<std::int64_t, double> round_dispatch_us;
    int max_slot = -1;
    for (const TraceEvent &e : events) {
        if (e.kind == TraceEventKind::kBatchForm) {
            if (batch_lanes.count(e.batch) == 0) {
                BatchLane lane;
                lane.slot = round_batches[e.round]++;
                lane.round = e.round;
                lane.dispatch_us = e.t_us;
                lane.model = e.model;
                lane.bucket = e.bucket;
                lane.planned = e.planned_batch;
                lane.actual = e.actual_batch;
                max_slot = std::max(max_slot, lane.slot);
                batch_lanes.emplace(e.batch, std::move(lane));
            }
        } else if (e.kind == TraceEventKind::kRoundDispatch) {
            round_dispatch_us[e.round] = e.t_us;
        } else if (e.kind == TraceEventKind::kBatchDone) {
            const auto it = batch_lanes.find(e.batch);
            if (it == batch_lanes.end()) {
                continue;
            }
            const BatchLane &lane = it->second;
            w.begin_object();
            w.field("ph", "X");
            w.field("pid", ids.serve_pid);
            w.field("tid", kBatchLaneBase + lane.slot);
            std::ostringstream name;
            name << "B" << e.batch << " " << lane.model << " b"
                 << lane.bucket << " x" << lane.planned;
            w.field("name", name.str());
            w.field("ts", lane.dispatch_us);
            w.field("dur", e.t_us - lane.dispatch_us);
            w.key("args");
            w.begin_object();
            w.field("round", lane.round);
            w.field("actual_batch", lane.actual);
            w.field("planned_batch", lane.planned);
            w.end_object();
            w.end_object();
        } else if (e.kind == TraceEventKind::kRoundDone) {
            const auto it = round_dispatch_us.find(e.round);
            if (it == round_dispatch_us.end()) {
                continue;
            }
            w.begin_object();
            w.field("ph", "X");
            w.field("pid", ids.serve_pid);
            w.field("tid", kRoundLane);
            w.field("name", "round " + std::to_string(e.round));
            w.field("ts", it->second);
            w.field("dur", e.t_us - it->second);
            w.end_object();
        }
    }
    for (int slot = 0; slot <= max_slot; ++slot) {
        meta_name(w, ids.serve_pid, kBatchLaneBase + slot, "thread_name",
                  "batch slot " + std::to_string(slot));
    }

    // ---- Serving counter tracks ---------------------------------------
    if (options.counters) {
        double queue_depth = 0;
        double in_flight = 0;
        double sheds = 0;
        double ratelimit_sheds = 0;
        for (const TraceEvent &e : events) {
            switch (e.kind) {
              case TraceEventKind::kAdmit:
                counter_event(w, ids, "queue_depth", e.t_us,
                              ++queue_depth);
                break;
              case TraceEventKind::kAgeOut:
                counter_event(w, ids, "queue_depth", e.t_us,
                              --queue_depth);
                break;
              case TraceEventKind::kBatchForm:
                counter_event(w, ids, "queue_depth", e.t_us,
                              --queue_depth);
                counter_event(w, ids, "in_flight", e.t_us, ++in_flight);
                break;
              case TraceEventKind::kComplete:
                counter_event(w, ids, "in_flight", e.t_us, --in_flight);
                break;
              case TraceEventKind::kShed:
                counter_event(w, ids, "sheds", e.t_us, ++sheds);
                break;
              case TraceEventKind::kShedRateLimit:
                counter_event(w, ids, "sheds", e.t_us, ++sheds);
                counter_event(w, ids, "ratelimit_sheds", e.t_us,
                              ++ratelimit_sheds);
                break;
              default:
                break;
            }
        }
    }

    // ---- Telemetry time-series counter tracks ------------------------
    // Fixed-interval samples from the TelemetryRecorder, prefixed
    // "tele." so they sit beside — not inside — the event-edge counters
    // above (the events fire at state changes, the samples on a grid).
    if (options.telemetry != nullptr) {
        const TelemetryRecorder &tele = *options.telemetry;
        const std::vector<std::string> &tenants = tele.tenants();
        for (const TelemetrySample &s : tele.samples()) {
            counter_event(w, ids, "tele.in_flight", s.t_us,
                          static_cast<double>(s.in_flight));
            counter_event(w, ids, "tele.round_hbm_bytes", s.t_us,
                          static_cast<double>(s.round_hbm_bytes));
            for (std::size_t t = 0; t < tenants.size(); ++t) {
                counter_event(w, ids, "tele.queue_depth." + tenants[t],
                              s.t_us,
                              static_cast<double>(s.queue_depth[t]));
                counter_event(w, ids, "tele.bucket_fill." + tenants[t],
                              s.t_us, s.bucket_fill[t]);
            }
        }
    }

    // ---- Per-round gpusim replays on the shared clock -----------------
    if (options.device_lanes && !log.round_sims().empty()) {
        meta_name(w, ids.device_pid, 0, "process_name",
                  ids.prefix + "gpusim replays");
        std::set<int> streams;
        for (const TraceLog::RoundSim &rs : log.round_sims()) {
            for (const sim::KernelStats &k : rs.result.kernels) {
                streams.insert(k.stream);
            }
        }
        for (const int s : streams) {
            meta_name(w, ids.device_pid, s, "thread_name",
                      "stream " + std::to_string(s));
        }
        for (const TraceLog::RoundSim &rs : log.round_sims()) {
            sim::append_kernel_slices(w, rs.result, rs.dispatch_us,
                                      ids.device_pid);
        }
    }
}

}  // namespace

void
write_serve_trace(const TraceLog &log, std::ostream &os,
                  const ServeTraceOptions &options)
{
    JsonWriter w(os);
    w.begin_object();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_array();
    append_serve_tracks(w, log, options, TrackIds{});
    w.end_array();
    w.end_object();
}

std::string
serve_trace_json(const TraceLog &log, const ServeTraceOptions &options)
{
    std::ostringstream os;
    write_serve_trace(log, os, options);
    return os.str();
}

void
write_serve_trace_file(const TraceLog &log, const std::string &path,
                       const ServeTraceOptions &options)
{
    std::ofstream file(path);
    MG_CHECK(file.good()) << "cannot open trace file " << path;
    write_serve_trace(log, file, options);
    file.flush();
    MG_CHECK(file.good()) << "failed writing trace file " << path;
}

void
write_fleet_trace(const std::vector<FleetReplicaTrace> &replicas,
                  std::ostream &os, const ServeTraceOptions &options)
{
    JsonWriter w(os);
    w.begin_object();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_array();
    for (std::size_t k = 0; k < replicas.size(); ++k) {
        const FleetReplicaTrace &replica = replicas[k];
        MG_CHECK(replica.log != nullptr)
            << "fleet trace replica " << k << " has no log";
        ServeTraceOptions replica_options = options;
        replica_options.telemetry = replica.telemetry;
        TrackIds ids;
        ids.serve_pid = static_cast<int>(2 * k);
        ids.device_pid = static_cast<int>(2 * k + 1);
        ids.prefix =
            replica.label.empty() ? "" : replica.label + ".";
        append_serve_tracks(w, *replica.log, replica_options, ids);
    }
    w.end_array();
    w.end_object();
}

std::string
fleet_trace_json(const std::vector<FleetReplicaTrace> &replicas,
                 const ServeTraceOptions &options)
{
    std::ostringstream os;
    write_fleet_trace(replicas, os, options);
    return os.str();
}

void
write_fleet_trace_file(const std::vector<FleetReplicaTrace> &replicas,
                       const std::string &path,
                       const ServeTraceOptions &options)
{
    std::ofstream file(path);
    MG_CHECK(file.good()) << "cannot open trace file " << path;
    write_fleet_trace(replicas, file, options);
    file.flush();
    MG_CHECK(file.good()) << "failed writing trace file " << path;
}

}  // namespace multigrain::serve
