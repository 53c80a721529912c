#ifndef MULTIGRAIN_SERVE_CLUSTER_H_
#define MULTIGRAIN_SERVE_CLUSTER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "profiler/history.h"
#include "serve/cost.h"
#include "serve/router.h"
#include "serve/server.h"

/// Scale-out serving across simulated devices, and the one
/// serving event loop.
///
/// A Cluster drives N data-parallel replicas — each an ordinary Server
/// over its own GpuSim/DeviceSpec, heterogeneous fleets allowed — on
/// one shared virtual clock, behind a Router that places every arrival
/// (serve/router.h). run_serving_loop is the only serving event loop:
/// at each timestamp it applies due fault transitions, ingests due
/// arrivals through the router, expires every queue, dispatches every
/// eligible idle replica in index order, then advances the clock to the
/// next arrival / round completion / fault. Server::run is the same loop
/// over a fleet of one. The whole fleet run is a pure function of
/// (preset, seed, devices, policy).
///
/// Failover is scripted on the same clock: a ReplicaFault kills its
/// replica at down_us — the running round is truncated and its
/// requests recorded as lost in flight, the admitted-but-undispatched
/// backlog is drained and re-offered fleet-wide through the router —
/// and optionally revives it at up_us. Every request is conserved
/// through the move: per replica, offered == terminal outcomes +
/// drained; fleet-wide, arrivals == terminal outcomes + failover
/// sheds, with the router's exact counters closing the telescope.
/// reconcile_cluster() re-derives all of it and mgserve turns any
/// disagreement into a ValidationError (exit 2).
namespace multigrain::serve {

/// One scripted replica outage on the virtual clock.
struct ReplicaFault {
    std::size_t replica = 0;
    double down_us = 0;
    /// Revival time; infinity (the default) keeps the replica down for
    /// the rest of the run. Must be > down_us.
    double up_us = std::numeric_limits<double>::infinity();
};

struct ClusterConfig {
    std::string preset = "custom";
    /// The per-replica serving configuration (admission, scheduler,
    /// mode) and the *fleet* arrival stream — one TrafficSource feeds
    /// the router, not N sources. Closed-loop traffic needs a fault-free
    /// fleet (an outage would break the completion feedback).
    ServeConfig serve;
    /// One device per replica; heterogeneous fleets allowed.
    std::vector<sim::DeviceSpec> devices;
    /// CLI names parallel to `devices` ("a100" | "rtx3090"), stamped
    /// into reports.
    std::vector<std::string> device_names;
    RoutePolicy policy = RoutePolicy::kRoundRobin;
    /// Seeds the router (round-robin start, affinity hash). Defaults to
    /// the traffic seed in the presets.
    std::uint64_t router_seed = 0;
    std::vector<ReplicaFault> faults;
};

/// Registered fleet presets ("fleet2" | "fleet4" | "hetero" |
/// "failover"); homogeneous presets replicate the device named by
/// `device_cli_name`, "hetero" pins an a100 + rtx3090 pair and ignores
/// it. Throws Error on unknown names.
ClusterConfig cluster_preset_by_name(const std::string &name,
                                     const std::string &device_cli_name);

struct ClusterPresetInfo {
    const char *name;
    const char *description;
};
const std::vector<ClusterPresetInfo> &cluster_presets();

struct ClusterReport {
    std::string preset;
    RoutePolicy policy = RoutePolicy::kRoundRobin;
    /// One finished ServeReport per replica, index-aligned with
    /// device_names.
    std::vector<ServeReport> replicas;
    std::vector<std::string> device_names;
    RouterStats router;
    std::vector<ReplicaFault> faults;

    // ---- Fleet aggregates ------------------------------------------
    std::uint64_t arrivals = 0;  ///< Requests the traffic source issued.
    std::uint64_t completed = 0;
    std::uint64_t deadline_miss = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t lost_in_flight = 0;
    prof::LatencySummary latency;  ///< Completed requests, fleet-wide.
    prof::LatencySummary latency_by_class[kNumSloClasses];
    int rounds = 0;
    double makespan_us = 0;  ///< Fleet first arrival to last completion.
    double busy_us = 0;      ///< Sum of replica busy time.
    double throughput_rps = 0;
    /// Per-replica busy / fleet makespan, index-aligned; and the
    /// max - min spread — the load-balance figure of merit.
    std::vector<double> replica_util;
    double util_skew = 0;
    /// The merged fleet ledger: per-replica TenantLedgers summed cell
    /// by cell (add_cell), latencies re-summarized from the merged
    /// completed records.
    CostReport cost;
    /// Fleet-wide plan-cache movement (the cache is process-wide, so
    /// same-device replicas share entries and per-replica deltas
    /// overlap; only this fleet delta is gated).
    PlanCacheStats plan_cache;
};

class TraceLog;  // serve/trace.h

/// The serving event loop: begins every replica, then drives them on one
/// virtual clock until the source is exhausted and every replica is
/// idle, placing arrivals (and a killed replica's drained backlog)
/// through `router` and applying `faults` on schedule. Returns the clock
/// at which the loop ended, the time each replica's finish() takes.
double run_serving_loop(const std::vector<Server *> &replicas,
                        Router &router, TrafficSource &source,
                        const std::vector<ReplicaFault> &faults);

class Cluster {
  public:
    explicit Cluster(ClusterConfig config);

    std::size_t size() const { return servers_.size(); }

    /// Attaches a per-replica event log / telemetry recorder (same
    /// observer contract as the Server setters; must outlive run()).
    void set_trace(std::size_t replica, TraceLog *trace);
    void set_telemetry(std::size_t replica, TelemetryRecorder *telemetry);

    /// Runs the fleet to completion. May be called once.
    ClusterReport run();

  private:
    ClusterConfig config_;
    std::vector<Server> servers_;
    Router router_;
    bool ran_ = false;
};

/// Sums the replicas' cost reports into the fleet ledger: tenant cells
/// merged by name (spec order, extras appended in replica order),
/// per-tenant latencies re-summarized from the merged completed
/// records. Shared by Cluster::run and reconcile_cluster, so the
/// reconciliation recomputes the merge it checks.
CostReport merge_replica_costs(const std::vector<ServeReport> &replicas);

/// Cross-checks the fleet report: every replica's own ledger
/// reconciles, the router counters close the conservation telescope
/// (arrivals == terminal outcomes + failover sheds; drained ==
/// rerouted + shed_reroutes), the merged ledger equals the per-replica
/// sum, and every aggregate re-derives from the replica reports.
/// Returns the collected failures (empty = conserved); never throws.
std::vector<std::string> reconcile_cluster(const ClusterReport &report);

/// Adds `offset` to the report's rerouted counter — the seeded
/// corruption mgserve's --perturb-counter flag and the tests use to
/// prove the fleet conservation gate fails closed. (Ledger corruption
/// goes through scale_tenant_charges on report.cost.)
void perturb_router_counter(ClusterReport &report, std::int64_t offset);

/// Identity of the fleet run, stamped into the report document.
struct ClusterRunInfo {
    std::string preset;
    /// CLI device label: the replicated device name, or "mixed" for the
    /// hetero preset.
    std::string device;
    std::uint64_t seed = 0;
};

/// The validated "mgcluster.report" v1 JSON document. The two-argument
/// form stamps a freshly collected manifest; pass an explicit manifest
/// to make the document a pure function of (report, info) — what the
/// byte-identical tests pin.
std::string cluster_report_json(const ClusterReport &report,
                                const ClusterRunInfo &info,
                                const std::vector<std::string> &errors,
                                const prof::RunManifest &manifest);
std::string cluster_report_json(const ClusterReport &report,
                                const ClusterRunInfo &info,
                                const std::vector<std::string> &errors);

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_CLUSTER_H_
