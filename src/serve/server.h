#ifndef MULTIGRAIN_SERVE_SERVER_H_
#define MULTIGRAIN_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "profiler/history.h"
#include "profiler/percentile.h"
#include "serve/admission.h"
#include "serve/cost.h"
#include "serve/scheduler.h"
#include "serve/traffic.h"
#include "transformer/runner.h"

/// mgserve: the multi-tenant serving layer over gpusim (ISSUE 4).
///
/// A Server drives one traffic preset end to end, deterministically:
/// requests arrive (serve/traffic.h), pass admission control
/// (serve/admission.h), are packed into compatible batches
/// (serve/scheduler.h), and every round of batches is replayed into one
/// GpuSim — each batch's PlanCache'd layer graphs under its own name
/// prefix and stream binding, so concurrent batches overlap across
/// simulated streams. A round's simulated result depends only on its
/// composition, so each Server memoizes it per composition and a repeated
/// round skips GpuSim entirely. Virtual serving time advances on two
/// kinds of events only (request arrival, round completion), so the
/// entire run — queue depths, batch shapes, per-request latencies — is a
/// pure function of (preset, seed, device), which is what lets mgperf
/// gate serving behavior as tightly as it gates kernel time.
///
/// The simulation nests two clocks: gpusim's microsecond timeline inside
/// one round, and the serving clock across rounds. A round dispatched at
/// time T with round makespan M occupies the device until T + M; each of
/// its batches finishes at T + finish_us(batch prefix), which is earlier
/// than T + M when a short batch overlaps a long one on other streams.
namespace multigrain::serve {

struct ServeConfig {
    std::string preset = "custom";
    TrafficConfig traffic;
    AdmissionConfig admission;
    SchedulerConfig scheduler;
    /// Processing method applied to every request of the preset.
    SliceMode mode = SliceMode::kMultigrain;
};

/// Registered traffic presets ("tiny" | "steady" | "overload" |
/// "closed" | "memtight" | "noisy"); throws Error on unknown names.
ServeConfig serve_preset_by_name(const std::string &name);

struct ServePresetInfo {
    const char *name;
    const char *description;
};
const std::vector<ServePresetInfo> &serve_presets();

struct RequestRecord {
    enum class Outcome {
        kCompleted,
        kRejected,
        kTimedOut,
        /// Dispatched to a replica that went down before the round
        /// finished (ISSUE 9): the work is lost fleet-wide. finish_us is
        /// the fault time; deadline_met is always false.
        kLostReplica,
    };

    Request request;
    Outcome outcome = Outcome::kCompleted;
    double dispatch_us = 0;
    double finish_us = 0;
    index_t bucket = 0;
    int batch_size = 0;  ///< Actual co-batched requests (not padded).
    bool deadline_met = true;

    /// Arrival-to-completion latency (the SLO metric).
    double latency_us() const { return finish_us - request.arrival_us; }
    /// Time spent queued before dispatch.
    double queue_us() const { return dispatch_us - request.arrival_us; }
};

struct ServeReport {
    std::string preset;
    std::string device;
    std::vector<RequestRecord> records;
    AdmissionStats admission;
    /// Plan-cache counter movement attributable to this run.
    PlanCacheStats plan_cache;
    prof::LatencySummary latency;  ///< Completed requests only.
    prof::LatencySummary latency_by_class[kNumSloClasses];
    /// Actual batch size -> number of batches dispatched at that size.
    std::map<int, int> batch_histogram;
    int rounds = 0;
    /// Rounds whose composition was simulated by GpuSim, and rounds that
    /// reused the memoized result of an earlier identical composition;
    /// together they are `rounds`.
    int round_sims = 0;
    int round_sim_hits = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadline_miss = 0;
    /// Requests lost in flight when this replica was killed (ISSUE 9);
    /// always 0 in single-server runs.
    std::uint64_t lost_in_flight = 0;
    double makespan_us = 0;  ///< First arrival to last completion.
    double busy_us = 0;      ///< Device-occupied time (sum of rounds).
    double throughput_rps = 0;
    double avg_batch = 0;
    int max_batch = 0;
    /// busy / makespan — how much of the serving window the device
    /// spent executing rounds.
    double gpu_util = 0;
    /// Projected HBM footprint of each dispatched round (sum of its
    /// batches' MemPlan peaks x layers), in dispatch order — the
    /// per-round byte watermarks, and their maximum.
    std::vector<std::uint64_t> round_hbm_bytes;
    std::uint64_t peak_round_hbm_bytes = 0;
    /// Per-tenant cost attribution (serve/cost.h): every run carries its
    /// ledger so bench rows and the mgcost report read the same numbers.
    CostReport cost;
};

class TraceLog;  // serve/trace.h

class Server {
  public:
    Server(ServeConfig config, sim::DeviceSpec device);

    /// Attaches a request-level event log (serve/trace.h). Off by
    /// default; every emission in the serving loop is guarded behind
    /// this pointer, so an untraced run takes the pre-trace fast path
    /// and a traced run observes — never perturbs — the virtual clock.
    /// The log must outlive run().
    void set_trace(TraceLog *trace) { trace_ = trace; }

    /// Attaches a fixed-interval time-series sampler (serve/cost.h).
    /// Same contract as set_trace: a pure observer of the virtual clock,
    /// off by default, must outlive run().
    void set_telemetry(TelemetryRecorder *telemetry)
    {
        telemetry_ = telemetry;
    }

    /// Runs the preset to completion as a fleet of one: the serving loop
    /// (run_serving_loop, serve/cluster.h) behind a one-replica router.
    /// May be called once.
    ServeReport run();

    // ---- Step-wise driving (ISSUE 9) --------------------------------
    // The serving loop drives every replica through the methods below in
    // a fixed per-event order on one shared virtual clock, so a
    // standalone run and a replica inside a cluster execute the same
    // operations in the same order.

    /// Builds the queue/ledger/scheduler and snapshots the plan cache.
    /// Must be called once before any other stepping method (the serving
    /// loop calls it).
    void begin();
    /// One arrival at `now_us`: stamps the preset's slice mode, prices
    /// the footprint when a byte budget is configured, offers it to
    /// admission, and records the shed outcome if refused.
    void ingest(Request r, double now_us);
    /// Failover re-admission of a request drained from a dead replica:
    /// same as ingest but through AdmissionQueue::reoffer (the tenant's
    /// token bucket is not billed twice for a fault-caused move).
    /// Returns false when this replica's depth/byte valves shed it —
    /// then the request is terminal here, recorded as rejected.
    bool reingest(Request r, double now_us);
    /// Ages out requests that waited past the admission bound.
    void expire(double now_us);
    /// True when a round can start: up, device idle, work queued.
    bool can_dispatch() const;
    /// Forms and dispatches the next round; requires can_dispatch().
    void dispatch(double now_us);
    bool busy() const { return gpu_busy_; }
    /// When the running round releases the device; +infinity while idle.
    double busy_until() const;
    /// Completes the round due at busy_until(): records, charges the
    /// ledger, feeds closed-loop traffic, pushes WFQ debt.
    void complete(TrafficSource &source);
    /// Telemetry snapshot at a virtual-clock event (no-op untelemetered).
    void observe(double now_us);
    /// Queued + in-flight projected HBM bytes — the load figure the
    /// cluster router's least-bytes policy balances on.
    std::uint64_t outstanding_bytes() const;

    /// Takes this replica down at `now_us` (ISSUE 9): the running round
    /// is truncated — its device time up to now_us is charged, its
    /// requests are recorded as lost in flight — and every
    /// admitted-but-undispatched request is drained and returned for the
    /// router to re-offer fleet-wide. The replica stays down (dispatch
    /// refuses) until revive().
    std::vector<Request> kill(double now_us);
    void revive();
    bool down() const { return down_; }

    /// Finishes instrumentation at `now_us` and reduces the records into
    /// the final report. Call exactly once, after the event stream ends.
    ServeReport finish(double now_us);

  private:
    struct InFlightBatch {
        Batch batch;
        std::int64_t id = -1;     ///< Stable batch id (trace events).
        std::int64_t round = -1;  ///< Round that dispatched it.
        double dispatch_us = 0;
        double finish_us = 0;
        /// The batch's projected HBM footprint (batch_footprint), kept
        /// for the ledger's byte-time charge.
        std::uint64_t footprint_bytes = 0;
    };

    TransformerRunner &runner_for(const Batch &batch);
    TransformerRunner &runner_for(const std::string &model, SliceMode mode,
                                  index_t bucket, int planned_batch);
    /// Pushes the ledger's per-tenant charged device time into the
    /// admission queue (the WFQ debt feedback); no-op unless the
    /// preset enables weighted fair queueing.
    void push_wfq_charges();
    /// Books a door shed: ledger counter, trace event, kRejected record
    /// terminal at `finish_us`.
    void record_shed(Request copy, AdmitDecision::Shed reason,
                     double now_us, double finish_us);
    /// Projected HBM bytes of one batch's execution: the bucketed layer
    /// plan's MemPlan peak x the model's layer count. Memoized per
    /// (model, mode, bucket, planned batch); the MemPlan itself is a
    /// PlanCache hit beside the batch's layer graph.
    std::uint64_t batch_footprint(const std::string &model, SliceMode mode,
                                  index_t bucket, int planned_batch);
    void dispatch_round(double now_us, std::int64_t round,
                        const Scheduler &scheduler, AdmissionQueue &queue);
    void complete_round(ServeReport &report, TrafficSource &source,
                        TenantLedger &ledger);

    ServeConfig config_;
    sim::DeviceSpec device_;
    /// Serving-loop state, built by begin(). Optional so a Server can be
    /// constructed cheaply before the run starts.
    std::optional<AdmissionQueue> queue_;
    std::optional<TenantLedger> ledger_;
    std::optional<Scheduler> scheduler_;
    ServeReport report_;
    PlanCacheStats cache_before_;
    int rounds_ = 0;
    double busy_accum_us_ = 0;
    bool begun_ = false;
    bool down_ = false;
    /// Plan holders per (model, mode, bucket, planned batch) — the
    /// steady-state working set of the serving loop. The underlying
    /// layer graphs live in the process-wide PlanCache.
    std::map<std::string, std::unique_ptr<TransformerRunner>> runners_;
    /// Memoized batch_footprint results, same key space as runners_.
    std::map<std::string, std::uint64_t> footprints_;
    /// Simulated result per round composition: the runner keys of the
    /// round's batches in dispatch order.
    std::map<std::string, sim::SimResult> round_results_;
    int round_sims_ = 0;
    int round_sim_hits_ = 0;
    /// Per-round projected byte watermarks, moved into the report.
    std::vector<std::uint64_t> round_bytes_;
    std::vector<InFlightBatch> in_flight_;
    TraceLog *trace_ = nullptr;
    TelemetryRecorder *telemetry_ = nullptr;
    std::int64_t next_batch_id_ = 0;
    std::int64_t current_round_ = -1;
    double gpu_free_us_ = 0;
    bool gpu_busy_ = false;
    bool ran_ = false;
};

/// The completed-request reduction a replica's report and the fleet
/// report share: latency percentiles overall and per SLO class, first
/// arrival to last completion, and completions per second over that
/// window. `parts` are walked in order, so one replica's records reduce
/// exactly as they do inside a fleet.
struct CompletedSummary {
    std::uint64_t completed = 0;
    std::uint64_t deadline_miss = 0;
    prof::LatencySummary latency;
    prof::LatencySummary latency_by_class[kNumSloClasses];
    double makespan_us = 0;
    double throughput_rps = 0;
};

CompletedSummary summarize_completed(
    const std::vector<const std::vector<RequestRecord> *> &parts);

/// One registered serving metric over a finished report — how the CLI
/// table, the bench rows, and the tests enumerate the summary without
/// hand-maintained column lists (same style as phase_metric_registry).
struct ServeMetricDef {
    const char *key;
    const char *unit;
    const char *description;
    double (*get)(const ServeReport &);
};

const std::vector<ServeMetricDef> &serve_metric_registry();

/// Appends the report's bench rows to `run` in the pinned "mgprof.bench"
/// schema: one "serve" summary row (every registry metric), one "slo"
/// row per service class, and one "batch_hist" row per observed batch
/// size. Shared by tools/mgserve and the mgperf "serve_tiny" preset so
/// the CLI artifact and the gated rows are the same bytes.
void append_serve_rows(prof::BenchRun &run, const ServeReport &report);

/// The complete manifest-stamped bench document for one run, named
/// "serve_<preset>@<device_name>" to match the committed baseline files
/// (`device_name` is the CLI name, e.g. "a100").
prof::BenchRun serve_bench_run(const ServeReport &report,
                               const std::string &device_name);

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_SERVER_H_
