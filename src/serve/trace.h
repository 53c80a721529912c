#ifndef MULTIGRAIN_SERVE_TRACE_H_
#define MULTIGRAIN_SERVE_TRACE_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.h"
#include "gpusim/engine.h"
#include "serve/server.h"
#include "serve/traffic.h"

/// End-to-end request tracing for the serving layer.
///
/// The ServeReport says *how bad* the tail is; this layer says
/// *where the time went*. When tracing is enabled, the Server emits one
/// structured TraceEvent at every state transition a request goes
/// through — arrival, admission decision, batch formation, round
/// dispatch, device completion, or a terminal shed/age-out — each
/// stamped with the virtual serving clock and the stable
/// request/tenant/batch/round ids the rest of the system already uses.
/// Everything downstream is a pure function of the event log:
///
///  * spans_from_events() folds the log into per-request span timelines
///    whose boundary timestamps chain exactly (admission → queue →
///    batch-wait → device), so the components telescope to the
///    end-to-end latency by construction;
///  * build_trace_report() decomposes each SLO class's latency
///    percentiles into queue / batch-wait / pad / device components and
///    reconciles every derived number against the ServeReport the same
///    run produced — a disagreement means the instrumentation lies and
///    is reported as a validation failure (mgserve exits 2);
///  * TraceLog's flight recorder keeps a bounded ring of the last N
///    rounds of events and, on an anomaly trigger (shed burst,
///    deadline-miss streak, empty-round stall), freezes it into a
///    self-contained incident that serializes to JSON and replays —
///    parse the dump, rebuild the spans, get byte-for-byte the same
///    answer the live log gives;
///  * write_serve_trace() renders the run as one correlated Perfetto
///    timeline: async request spans per tenant, batch-slot and round
///    lanes, serving counter tracks (queue depth, in-flight, sheds),
///    and — when per-round simulator capture is on — every round's
///    gpusim kernel replay overlaid at its dispatch offset via
///    sim::append_kernel_slices.
///
/// Tracing is off by default: the Server's hot loop guards every
/// emission behind a null check, and an untraced run is byte-identical
/// to a pre-trace one. Same (preset, seed, device) runs produce
/// byte-identical event logs — the property the determinism tests pin.
namespace multigrain::serve {

// ---- Events -------------------------------------------------------------

enum class TraceEventKind {
    kArrive = 0,     ///< Request issued by the traffic source.
    kAdmit,          ///< Admission accepted it into the tenant queue.
    kShed,           ///< Terminal: rejected at the door (queue/memory).
    kShedRateLimit,  ///< Terminal: shed by the tenant's token bucket.
    kAgeOut,         ///< Terminal: expired waiting past the queue bound.
    kBatchForm,      ///< Packed into a batch (one event per member).
    kRoundDispatch,  ///< A round of batches started on the device.
    kBatchDone,      ///< A batch's replay finished.
    kComplete,       ///< Terminal: request served (deadline_met in flag).
    kRoundDone,      ///< The round released the device.
};

const char *to_string(TraceEventKind kind);
/// Inverse of to_string; throws Error on an unknown name.
TraceEventKind trace_event_kind_by_name(const std::string &name);

/// One structured log record. Fields beyond (seq, kind, t_us) are
/// meaningful per kind and left defaulted otherwise; the serializer
/// emits only the meaningful ones, deterministically, so same-seed runs
/// write byte-identical logs.
struct TraceEvent {
    std::uint64_t seq = 0;  ///< Dense log position, assigned by TraceLog.
    TraceEventKind kind = TraceEventKind::kArrive;
    double t_us = 0;  ///< Virtual serving-clock timestamp.
    std::int64_t request = -1;
    std::int64_t batch = -1;
    std::int64_t round = -1;
    std::string tenant;  ///< kArrive.
    std::string model;   ///< kArrive, kBatchForm.
    int slo = -1;        ///< kArrive (SloClass as int).
    index_t valid_len = 0;      ///< kArrive.
    double deadline_us = 0;     ///< kArrive.
    index_t bucket = 0;         ///< kBatchForm.
    int planned_batch = 0;      ///< kBatchForm (padded plan size).
    int actual_batch = 0;       ///< kBatchForm members; kRoundDispatch batches.
    /// kRoundDispatch: projected HBM footprint of the round's plans
    /// (sum of each batch's MemPlan peak), bytes.
    std::uint64_t hbm_bytes = 0;
    bool flag = false;          ///< kComplete: deadline met.
};

/// One line of the JSONL event log (no trailing newline).
std::string event_to_json(const TraceEvent &event);
TraceEvent event_from_json(const JsonValue &doc);
void write_events_jsonl(const std::vector<TraceEvent> &events,
                        std::ostream &os);
std::vector<TraceEvent> events_from_jsonl(const std::string &text);

// ---- The log + flight recorder ------------------------------------------

struct TraceConfig {
    /// Keep the complete event log in memory (what the attribution
    /// report and the event-log export read).
    /// false = flight-recorder-only: memory stays bounded by the ring.
    bool retain_full = true;
    /// Capture each round's gpusim SimResult for the Perfetto overlay.
    /// Off by default — it retains per-kernel stats for every round.
    bool capture_sim = false;
    /// Flight-recorder window: events of the last `ring_rounds` rounds.
    std::size_t ring_rounds = 8;
    /// Anomaly trigger: >= shed_burst sheds within shed_window_us.
    int shed_burst = 8;
    double shed_window_us = 1000;
    /// Anomaly trigger: this many consecutive completions that missed
    /// their deadline.
    int miss_streak = 4;
    /// Anomaly trigger: device idle for longer than this between rounds
    /// (an empty-round stall). 0 disables.
    double stall_us = 0;
    /// Anomaly trigger: this many consecutive offers shed by a token
    /// bucket (no admit or other shed in between) — a tenant hammering
    /// past its rate allowance. 0 disables.
    int ratelimit_streak = 6;
};

/// A frozen flight-recorder window: the trigger plus a copy of the ring
/// at the moment it fired.
struct Incident {
    /// "shed_burst" | "deadline_miss_streak" | "empty_round_stall" |
    /// "ratelimit_burst".
    std::string trigger;
    double t_us = 0;      ///< Serving-clock time of the trigger.
    std::string detail;   ///< Human-readable trigger context.
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    std::vector<TraceEvent> events;
};

/// Identity of the traced run, stamped into incidents and the report.
struct TraceRunInfo {
    std::string preset;
    std::string device;
    std::uint64_t seed = 0;
};

/// Self-contained "mgtrace.incident" v1 document: run identity, trigger,
/// thresholds, and the full event window — everything needed to rebuild
/// the spans with no access to the original process.
std::string incident_to_json(const Incident &incident,
                             const TraceRunInfo &info,
                             const TraceConfig &config);
/// Validates schema/version; throws Error on mismatch.
Incident incident_from_json(const JsonValue &doc);
Incident incident_from_json(const std::string &text);

class TraceLog {
  public:
    explicit TraceLog(TraceConfig config = {});

    const TraceConfig &config() const { return config_; }

    /// Appends one event: assigns the next seq, maintains the ring
    /// window, and runs the anomaly detectors (which may freeze an
    /// incident including this event).
    void record(TraceEvent event);

    /// Stores one round's simulator result for the Perfetto overlay
    /// (no-op unless config().capture_sim).
    void record_round_sim(std::int64_t round, double dispatch_us,
                          const sim::SimResult &result);

    /// The full log (empty when retain_full is off).
    const std::vector<TraceEvent> &events() const { return events_; }
    /// The current flight-recorder window (last ring_rounds rounds).
    const std::deque<TraceEvent> &ring() const { return ring_; }
    const std::vector<Incident> &incidents() const { return incidents_; }

    struct RoundSim {
        std::int64_t round = -1;
        double dispatch_us = 0;
        sim::SimResult result;
    };
    const std::vector<RoundSim> &round_sims() const { return round_sims_; }

  private:
    void detect(const TraceEvent &event);
    void fire(const char *trigger, double t_us, std::string detail);

    TraceConfig config_;
    std::uint64_t next_seq_ = 0;
    std::vector<TraceEvent> events_;
    std::deque<TraceEvent> ring_;
    /// seq of each retained kRoundDispatch, oldest first.
    std::deque<std::uint64_t> round_start_seqs_;
    std::vector<Incident> incidents_;
    std::vector<RoundSim> round_sims_;
    /// Detector state.
    std::deque<double> recent_shed_us_;
    int miss_run_ = 0;
    int ratelimit_run_ = 0;
    double last_round_done_us_ = -1;  ///< -1 until a round completes.
};

// ---- Spans --------------------------------------------------------------

/// One request's reconstructed timeline. The five boundaries are taken
/// verbatim from event timestamps (arrive <= admit <= batched <=
/// dispatched <= finish), so the four boundary components plus the
/// pad/compute split of device time telescope to latency_us() exactly.
/// Terminal outcomes collapse the unreached boundaries onto the
/// terminal time: a shed request has all five equal to its arrival; an
/// aged-out request spends everything after admit in queue_us().
struct RequestSpans {
    std::int64_t request = -1;
    std::string tenant;
    std::string model;
    int slo = 0;
    /// "completed" | "shed" | "rate_limited" | "aged_out".
    std::string outcome;
    bool deadline_met = true;
    index_t valid_len = 0;
    index_t bucket = 0;
    int planned_batch = 0;
    int actual_batch = 0;
    std::int64_t batch = -1;
    std::int64_t round = -1;

    double arrive_us = 0;
    double admit_us = 0;
    double batched_us = 0;
    double dispatched_us = 0;
    double finish_us = 0;
    /// Share of device time spent on padding (bucket slack + pow2 batch
    /// slack): device_us() * (1 - useful_tokens / planned work).
    double pad_us = 0;

    double admission_us() const { return admit_us - arrive_us; }
    double queue_us() const { return batched_us - admit_us; }
    double batch_wait_us() const { return dispatched_us - batched_us; }
    double device_us() const { return finish_us - dispatched_us; }
    double compute_us() const { return device_us() - pad_us; }
    double latency_us() const { return finish_us - arrive_us; }
};

/// Folds an event stream into per-request spans, sorted by request id.
/// Requests whose arrival lies outside the stream (possible in a
/// flight-recorder window) are skipped — a span without its arrival has
/// no defined latency. Throws Error on a malformed stream (e.g. a
/// completion for a request that was never batched).
std::vector<RequestSpans> spans_from_events(
    const std::vector<TraceEvent> &events);
std::vector<RequestSpans> spans_from_events(
    const std::deque<TraceEvent> &events);

// ---- SLO attribution report ---------------------------------------------

/// One latency figure decomposed into its span components. The
/// components sum to total_us (up to float rounding of the percentile
/// interpolation, bounded by the reconciliation tolerance).
struct SpanBreakdown {
    double total_us = 0;
    double admission_us = 0;
    double queue_us = 0;
    double batch_wait_us = 0;
    double pad_us = 0;
    double device_us = 0;  ///< Compute share (padding reported apart).
};

struct ClassAttribution {
    int slo = 0;
    std::size_t count = 0;  ///< Completed requests of this class.
    SpanBreakdown mean;
    SpanBreakdown p50;
    SpanBreakdown p95;
    SpanBreakdown p99;
};

struct TraceReport {
    TraceRunInfo info;
    std::size_t events = 0;
    std::size_t requests = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;          ///< Depth/memory sheds.
    std::size_t rate_limited = 0;  ///< Token-bucket sheds.
    std::size_t aged_out = 0;
    std::size_t deadline_miss = 0;
    std::int64_t rounds = 0;
    ClassAttribution classes[kNumSloClasses];
    /// Trigger summaries of every incident the run froze (the event
    /// windows live in the separate incident documents).
    std::vector<Incident> incidents;
    /// Empty iff every span chains exactly and every derived figure
    /// matches the ServeReport. mgserve turns a non-empty list into a
    /// ValidationError (exit 2).
    std::vector<std::string> reconcile_errors;

    bool reconciled() const { return reconcile_errors.empty(); }
};

/// Builds the attribution report from a finished run's log + report and
/// cross-checks every figure (span chaining, admission counters, class
/// counts, p50/p95/p99/mean/makespan). Never throws on mismatch — the
/// failures are collected in reconcile_errors so the CLI and tests can
/// show all of them.
TraceReport build_trace_report(const TraceLog &log,
                               const ServeReport &report,
                               const TraceRunInfo &info);

/// The validated "mgtrace.report" v1 JSON document (manifest-stamped).
std::string trace_report_json(const TraceReport &report);

// ---- Perfetto export ----------------------------------------------------

class TelemetryRecorder;  // serve/cost.h

struct ServeTraceOptions {
    /// Serving counter tracks: queue depth, in-flight requests,
    /// cumulative sheds.
    bool counters = true;
    /// Overlay each captured round's kernel replay (needs a TraceLog
    /// built with capture_sim).
    bool device_lanes = true;
    /// When set, the telemetry time-series samples are rendered as extra
    /// counter tracks ("tele.*": per-tenant queue depth and bucket fill,
    /// in-flight requests, round HBM watermark) beside the event-derived
    /// lanes above. Must outlive the export call.
    const TelemetryRecorder *telemetry = nullptr;
};

/// Renders the traced run as one Chrome/Perfetto timeline: async
/// request spans (grouped per tenant), batch-slot and round lanes, the
/// serving counter tracks, and the per-round gpusim replays under a
/// second process, all on the shared serving clock.
void write_serve_trace(const TraceLog &log, std::ostream &os,
                       const ServeTraceOptions &options);
std::string serve_trace_json(const TraceLog &log,
                             const ServeTraceOptions &options = {});
void write_serve_trace_file(const TraceLog &log, const std::string &path,
                            const ServeTraceOptions &options = {});

/// One replica's contribution to a fleet timeline (ISSUE 9). The label
/// (e.g. "r0") prefixes the replica's process names, counter tracks and
/// async categories so N replicas coexist in one Perfetto view; the
/// optional telemetry recorder overrides ServeTraceOptions::telemetry
/// for this replica only. Both pointers must outlive the export call.
struct FleetReplicaTrace {
    const TraceLog *log = nullptr;
    const TelemetryRecorder *telemetry = nullptr;
    std::string label;
};

/// Renders N replicas' event logs as one correlated timeline on the
/// shared cluster clock: replica k's serving lanes run under pid 2k and
/// its gpusim replays under pid 2k+1, every track name prefixed
/// "<label>.". A single-replica fleet with an empty label is
/// byte-identical to write_serve_trace of the same log.
void write_fleet_trace(const std::vector<FleetReplicaTrace> &replicas,
                       std::ostream &os,
                       const ServeTraceOptions &options = {});
std::string fleet_trace_json(const std::vector<FleetReplicaTrace> &replicas,
                             const ServeTraceOptions &options = {});
void write_fleet_trace_file(const std::vector<FleetReplicaTrace> &replicas,
                            const std::string &path,
                            const ServeTraceOptions &options = {});

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_TRACE_H_
