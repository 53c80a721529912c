#include "serve/cluster.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "profiler/export.h"
#include "serve/traffic.h"

namespace multigrain::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One endpoint of a scripted fault, on the shared clock.
struct Transition {
    double t_us = 0;
    std::size_t replica = 0;
    bool down = false;
};

std::vector<Transition>
fault_transitions(const std::vector<ReplicaFault> &faults)
{
    std::vector<Transition> transitions;
    for (const ReplicaFault &f : faults) {
        transitions.push_back({f.down_us, f.replica, true});
        if (f.up_us < kInf) {
            transitions.push_back({f.up_us, f.replica, false});
        }
    }
    // Downs before ups at equal times so a fault window of zero length
    // still drains; replica index breaks the remaining ties.
    std::sort(transitions.begin(), transitions.end(),
              [](const Transition &a, const Transition &b) {
                  return std::tie(a.t_us, b.down, a.replica) <
                         std::tie(b.t_us, a.down, b.replica);
              });
    return transitions;
}

}  // namespace

// ---- Presets ------------------------------------------------------------

namespace {

/// Shared base of the fleet presets: the tiny traffic shape scaled up
/// to keep N replicas busy, with a generous (never-shedding) byte
/// budget so every request is priced — the least-bytes policy balances
/// on those footprints.
ClusterConfig
cluster_base(const char *name, std::size_t replicas,
             const std::string &device_cli_name)
{
    ClusterConfig c;
    c.preset = name;
    c.serve = serve_preset_by_name("tiny");
    c.serve.preset = name;
    c.serve.traffic.num_requests =
        static_cast<int>(64 * replicas);
    c.serve.admission.hbm_budget_bytes = 1ull << 30;  // Prices, never sheds.
    const sim::DeviceSpec device =
        sim::device_spec_by_name(device_cli_name);
    for (std::size_t k = 0; k < replicas; ++k) {
        c.devices.push_back(device);
        c.device_names.push_back(device_cli_name);
    }
    c.router_seed = c.serve.traffic.seed;
    return c;
}

}  // namespace

const std::vector<ClusterPresetInfo> &
cluster_presets()
{
    static const std::vector<ClusterPresetInfo> presets = {
        {"fleet2", "2 homogeneous replicas, round-robin routing"},
        {"fleet4",
         "4 homogeneous replicas, least-outstanding-bytes routing"},
        {"hetero",
         "a100 + rtx3090 pair, tenant-affinity routing (plan-cache "
         "locality)"},
        {"failover",
         "2 replicas, round-robin; replica 0 dies mid-run and its "
         "backlog reroutes"},
    };
    return presets;
}

ClusterConfig
cluster_preset_by_name(const std::string &name,
                       const std::string &device_cli_name)
{
    if (name == "fleet2") {
        return cluster_base("fleet2", 2, device_cli_name);
    }
    if (name == "fleet4") {
        ClusterConfig c = cluster_base("fleet4", 4, device_cli_name);
        c.serve.traffic.rate_rps = 40000;
        c.policy = RoutePolicy::kLeastBytes;
        return c;
    }
    if (name == "hetero") {
        ClusterConfig c = cluster_base("hetero", 2, "a100");
        c.devices[1] = sim::device_spec_by_name("rtx3090");
        c.device_names[1] = "rtx3090";
        c.policy = RoutePolicy::kTenantAffinity;
        return c;
    }
    if (name == "failover") {
        ClusterConfig c = cluster_base("failover", 2, device_cli_name);
        // Arrivals outpace the fleet early so replica 0 dies holding
        // real backlog (its queue drains through the router: the
        // self-tests assert rerouted > 0 and lost_in_flight > 0), then
        // it revives in time to absorb the tail.
        c.serve.traffic.rate_rps = 60000;
        c.faults.push_back({0, 1500.0, 4000.0});
        return c;
    }
    throw Error("unknown cluster preset \"" + name +
                "\" (fleet2|fleet4|hetero|failover)");
}

// ---- Cluster ------------------------------------------------------------

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      router_(config_.policy, config_.devices.size(),
              config_.router_seed)
{
    MG_CHECK(!config_.devices.empty())
        << "a cluster needs at least one replica";
    MG_CHECK(config_.device_names.size() == config_.devices.size())
        << "device_names must parallel devices";
    MG_CHECK(config_.serve.traffic.arrivals != ArrivalProcess::kClosedLoop ||
             config_.faults.empty())
        << "closed-loop traffic needs a fault-free fleet";
    for (const ReplicaFault &f : config_.faults) {
        MG_CHECK(f.replica < config_.devices.size())
            << "fault on unknown replica " << f.replica;
        MG_CHECK(f.down_us >= 0 && f.up_us > f.down_us)
            << "fault window must be ordered";
    }
    servers_.reserve(config_.devices.size());
    for (const sim::DeviceSpec &device : config_.devices) {
        servers_.emplace_back(config_.serve, device);
    }
}

void
Cluster::set_trace(std::size_t replica, TraceLog *trace)
{
    MG_CHECK(replica < servers_.size()) << "no replica " << replica;
    servers_[replica].set_trace(trace);
}

void
Cluster::set_telemetry(std::size_t replica, TelemetryRecorder *telemetry)
{
    MG_CHECK(replica < servers_.size()) << "no replica " << replica;
    servers_[replica].set_telemetry(telemetry);
}

double
run_serving_loop(const std::vector<Server *> &replicas, Router &router,
                 TrafficSource &source,
                 const std::vector<ReplicaFault> &faults)
{
    for (Server *s : replicas) {
        s->begin();
    }
    const std::vector<Transition> transitions = fault_transitions(faults);
    std::size_t next_transition = 0;
    std::vector<ReplicaView> views(replicas.size());
    const auto current_views = [&]() -> const std::vector<ReplicaView> & {
        for (std::size_t k = 0; k < replicas.size(); ++k) {
            views[k] = {!replicas[k]->down(),
                        replicas[k]->outstanding_bytes()};
        }
        return views;
    };

    double now = 0;
    for (;;) {
        // Fault transitions due first: a kill at this timestamp drains
        // before the timestamp's arrivals are placed, so the reroutes
        // and the arrivals see the same fleet state. (A round completing
        // exactly at the fault time already completed on the previous
        // clock advance — the fault truncates strictly running work.)
        while (next_transition < transitions.size() &&
               transitions[next_transition].t_us <= now) {
            const Transition &tr = transitions[next_transition++];
            if (tr.down) {
                for (Request &r : replicas[tr.replica]->kill(now)) {
                    const int target = router.reroute(r, current_views());
                    if (target >= 0) {
                        replicas[static_cast<std::size_t>(target)]
                            ->reingest(std::move(r), now);
                    }
                }
            } else {
                replicas[tr.replica]->revive();
            }
        }
        // Ingest every arrival due by now through the router; a fleet
        // with no replica alive sheds at the router with its own
        // counter (no replica ledger ever saw the request).
        while (source.peek_us() <= now) {
            Request r = source.pop();
            const int target = router.route(r, current_views());
            if (target >= 0) {
                replicas[static_cast<std::size_t>(target)]->ingest(
                    std::move(r), now);
            }
        }
        for (Server *s : replicas) {
            s->expire(now);
        }
        // Every eligible idle replica starts a round, in index order.
        for (Server *s : replicas) {
            if (s->can_dispatch()) {
                s->dispatch(now);
            }
        }
        for (Server *s : replicas) {
            s->observe(now);
        }

        double next = source.peek_us();
        for (const Server *s : replicas) {
            next = std::min(next, s->busy_until());
        }
        if (next_transition < transitions.size()) {
            next = std::min(next, transitions[next_transition].t_us);
        }
        if (next == kInf) {
            break;
        }
        now = next;
        for (Server *s : replicas) {
            if (s->busy() && now >= s->busy_until()) {
                s->complete(source);
            }
        }
    }
    MG_CHECK(source.exhausted())
        << "serving loop ended with arrivals pending";
    for (const Server *s : replicas) {
        MG_CHECK(!s->busy() && !s->can_dispatch())
            << "serving loop ended with work in the system";
    }
    return now;
}

ClusterReport
Cluster::run()
{
    MG_CHECK(!ran_) << "Cluster::run may be called once";
    ran_ = true;

    const PlanCacheStats cache_before = PlanCache::instance().stats();
    std::vector<Server *> replicas;
    for (Server &s : servers_) {
        replicas.push_back(&s);
    }
    TrafficSource source(config_.serve.traffic);
    const double end_us =
        run_serving_loop(replicas, router_, source, config_.faults);

    // ---- Reduce the fleet ---------------------------------------------
    ClusterReport report;
    report.preset = config_.preset;
    report.policy = config_.policy;
    report.device_names = config_.device_names;
    report.faults = config_.faults;
    report.router = router_.stats();
    report.arrivals = static_cast<std::uint64_t>(source.issued());
    report.replicas.reserve(servers_.size());
    std::vector<const std::vector<RequestRecord> *> records;
    for (Server &s : servers_) {
        report.replicas.push_back(s.finish(end_us));
    }
    for (const ServeReport &rep : report.replicas) {
        report.rejected += rep.admission.rejected;
        report.timed_out += rep.admission.timed_out;
        report.lost_in_flight += rep.lost_in_flight;
        report.rounds += rep.rounds;
        report.busy_us += rep.busy_us;
        records.push_back(&rep.records);
    }
    const CompletedSummary done = summarize_completed(records);
    report.completed = done.completed;
    report.deadline_miss = done.deadline_miss;
    report.latency = done.latency;
    std::copy(std::begin(done.latency_by_class),
              std::end(done.latency_by_class), report.latency_by_class);
    report.makespan_us = done.makespan_us;
    report.throughput_rps = done.throughput_rps;
    report.replica_util.reserve(report.replicas.size());
    double util_min = kInf;
    double util_max = 0;
    for (const ServeReport &rep : report.replicas) {
        const double util =
            report.makespan_us > 0
                ? std::min(1.0, rep.busy_us / report.makespan_us)
                : 0.0;
        report.replica_util.push_back(util);
        util_min = std::min(util_min, util);
        util_max = std::max(util_max, util);
    }
    report.util_skew =
        report.replicas.empty() ? 0.0 : util_max - util_min;
    report.cost = merge_replica_costs(report.replicas);
    report.plan_cache =
        stats_delta(cache_before, PlanCache::instance().stats());
    return report;
}

// ---- Fleet ledger merge -------------------------------------------------

CostReport
merge_replica_costs(const std::vector<ServeReport> &replicas)
{
    CostReport merged;
    std::vector<std::vector<double>> latencies;
    const auto index_of = [&merged,
                           &latencies](const std::string &tenant) {
        for (std::size_t i = 0; i < merged.tenants.size(); ++i) {
            if (merged.tenants[i].tenant == tenant) {
                return i;
            }
        }
        merged.tenants.emplace_back();
        merged.tenants.back().tenant = tenant;
        latencies.emplace_back();
        return merged.tenants.size() - 1;
    };
    for (const ServeReport &rep : replicas) {
        merged.rounds += rep.cost.rounds;
        merged.busy_us += rep.cost.busy_us;
        merged.charged_device_us += rep.cost.charged_device_us;
        merged.charged_queue_us += rep.cost.charged_queue_us;
        merged.charged_hbm_byte_us += rep.cost.charged_hbm_byte_us;
        for (const TenantCost &t : rep.cost.tenants) {
            TenantCost &into = merged.tenants[index_of(t.tenant)];
            add_cell(into.total, t.total);
            for (int c = 0; c < kNumSloClasses; ++c) {
                add_cell(into.by_class[c], t.by_class[c]);
            }
        }
        for (const RequestRecord &rec : rep.records) {
            if (rec.outcome != RequestRecord::Outcome::kCompleted) {
                continue;
            }
            latencies[index_of(rec.request.tenant)].push_back(
                rec.latency_us());
        }
    }
    for (std::size_t i = 0; i < merged.tenants.size(); ++i) {
        merged.tenants[i].latency =
            prof::summarize_latencies(std::move(latencies[i]));
    }
    return merged;
}

// ---- Reconciliation -----------------------------------------------------

std::vector<std::string>
reconcile_cluster(const ClusterReport &report)
{
    std::vector<std::string> errors;
    const auto check = [&errors](bool ok, const std::string &msg) {
        if (!ok) {
            errors.push_back(msg);
        }
    };
    const auto mismatch = [](const std::string &what, double got,
                             double want) {
        std::ostringstream os;
        os << what << ": report says " << got << ", re-derived " << want;
        return os.str();
    };

    const std::size_t n = report.replicas.size();
    const RouterStats &router = report.router;
    check(router.per_replica.size() == n,
          "router per-replica counters do not match the replica count");

    // ---- Per-replica ledgers + the router's placement counters -------
    std::uint64_t offered = 0;
    std::uint64_t drained = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadline_miss = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t lost = 0;
    int rounds = 0;
    double busy = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const ServeReport &rep = report.replicas[k];
        const std::string prefix =
            "replica " + std::to_string(k) + ": ";
        for (const std::string &e : reconcile_cost(rep.cost, rep)) {
            errors.push_back(prefix + e);
        }
        if (k < router.per_replica.size()) {
            check(router.per_replica[k] == rep.admission.offered,
                  mismatch(prefix + "router placements vs offered",
                           static_cast<double>(router.per_replica[k]),
                           static_cast<double>(rep.admission.offered)));
        }
        offered += rep.admission.offered;
        drained += rep.admission.drained;
        completed += rep.completed;
        deadline_miss += rep.deadline_miss;
        rejected += rep.admission.rejected;
        timed_out += rep.admission.timed_out;
        lost += rep.lost_in_flight;
        rounds += rep.rounds;
        busy += rep.busy_us;
    }

    // ---- The fleet conservation telescope -----------------------------
    // Arrivals split at the router, offers split at each replica, and
    // drains come back through the router: the three identities chain
    // into arrivals == terminal outcomes + failover sheds.
    check(report.arrivals == router.routed + router.shed_arrivals,
          mismatch("arrivals vs routed + shed_arrivals",
                   static_cast<double>(report.arrivals),
                   static_cast<double>(router.routed +
                                       router.shed_arrivals)));
    check(offered == router.routed + router.rerouted,
          mismatch("fleet offered vs routed + rerouted",
                   static_cast<double>(offered),
                   static_cast<double>(router.routed + router.rerouted)));
    check(drained == router.rerouted + router.shed_reroutes,
          mismatch("fleet drained vs rerouted + shed_reroutes",
                   static_cast<double>(drained),
                   static_cast<double>(router.rerouted +
                                       router.shed_reroutes)));
    check(report.arrivals == completed + rejected + timed_out + lost +
                                 router.failover_sheds(),
          mismatch("fleet conservation (arrivals vs outcomes)",
                   static_cast<double>(report.arrivals),
                   static_cast<double>(completed + rejected + timed_out +
                                       lost + router.failover_sheds())));

    // ---- Fleet aggregates re-derived from the replica reports ---------
    check(report.completed == completed,
          mismatch("completed", static_cast<double>(report.completed),
                   static_cast<double>(completed)));
    check(report.deadline_miss == deadline_miss,
          mismatch("deadline_miss",
                   static_cast<double>(report.deadline_miss),
                   static_cast<double>(deadline_miss)));
    check(report.rejected == rejected,
          mismatch("rejected", static_cast<double>(report.rejected),
                   static_cast<double>(rejected)));
    check(report.timed_out == timed_out,
          mismatch("timed_out", static_cast<double>(report.timed_out),
                   static_cast<double>(timed_out)));
    check(report.lost_in_flight == lost,
          mismatch("lost_in_flight",
                   static_cast<double>(report.lost_in_flight),
                   static_cast<double>(lost)));
    check(report.rounds == rounds,
          mismatch("rounds", static_cast<double>(report.rounds),
                   static_cast<double>(rounds)));
    check(close_rel(report.busy_us, busy),
          mismatch("busy_us", report.busy_us, busy));
    check(report.latency.count == report.completed,
          mismatch("fleet latency samples",
                   static_cast<double>(report.latency.count),
                   static_cast<double>(report.completed)));

    double first_arrival = kInf;
    double last_finish = 0;
    for (const ServeReport &rep : report.replicas) {
        for (const RequestRecord &rec : rep.records) {
            if (rec.outcome != RequestRecord::Outcome::kCompleted) {
                continue;
            }
            first_arrival =
                std::min(first_arrival, rec.request.arrival_us);
            last_finish = std::max(last_finish, rec.finish_us);
        }
    }
    const double want_makespan =
        completed > 0 ? last_finish - first_arrival : 0.0;
    check(close_rel(report.makespan_us, want_makespan),
          mismatch("makespan_us", report.makespan_us, want_makespan));
    const double want_throughput =
        want_makespan > 0
            ? static_cast<double>(completed) / (want_makespan / 1e6)
            : 0.0;
    check(close_rel(report.throughput_rps, want_throughput),
          mismatch("throughput_rps", report.throughput_rps,
                   want_throughput));
    check(report.replica_util.size() == n,
          "replica_util does not match the replica count");
    double util_min = n > 0 ? kInf : 0.0;
    double util_max = 0;
    for (std::size_t k = 0; k < n && k < report.replica_util.size();
         ++k) {
        const double want =
            want_makespan > 0
                ? std::min(1.0,
                           report.replicas[k].busy_us / want_makespan)
                : 0.0;
        check(close_rel(report.replica_util[k], want),
              mismatch("replica " + std::to_string(k) + " util",
                       report.replica_util[k], want));
        util_min = std::min(util_min, want);
        util_max = std::max(util_max, want);
    }
    check(close_rel(report.util_skew,
                    n > 0 ? util_max - util_min : 0.0),
          mismatch("util_skew", report.util_skew,
                   n > 0 ? util_max - util_min : 0.0));

    // ---- The merged ledger equals the per-replica sum -----------------
    const CostReport want = merge_replica_costs(report.replicas);
    check(report.cost.rounds == want.rounds,
          mismatch("merged rounds",
                   static_cast<double>(report.cost.rounds),
                   static_cast<double>(want.rounds)));
    check(close_rel(report.cost.busy_us, want.busy_us),
          mismatch("merged busy_us", report.cost.busy_us, want.busy_us));
    check(close_rel(report.cost.charged_device_us,
                    want.charged_device_us),
          mismatch("merged charged device", report.cost.charged_device_us,
                   want.charged_device_us));
    check(close_rel(report.cost.charged_queue_us, want.charged_queue_us),
          mismatch("merged charged queue", report.cost.charged_queue_us,
                   want.charged_queue_us));
    check(close_rel(report.cost.charged_hbm_byte_us,
                    want.charged_hbm_byte_us),
          mismatch("merged charged HBM byte-time",
                   report.cost.charged_hbm_byte_us,
                   want.charged_hbm_byte_us));
    check(report.cost.tenants.size() == want.tenants.size(),
          "merged ledger tenant count does not match the replica sum");
    for (std::size_t i = 0;
         i < report.cost.tenants.size() && i < want.tenants.size();
         ++i) {
        const TenantCost &got_t = report.cost.tenants[i];
        const TenantCost &want_t = want.tenants[i];
        const std::string label = "merged tenant " + got_t.tenant;
        check(got_t.tenant == want_t.tenant,
              label + ": order differs from the replica sum");
        check(got_t.total.completed == want_t.total.completed &&
                  got_t.total.offered() == want_t.total.offered() &&
                  got_t.total.deadline_miss ==
                      want_t.total.deadline_miss,
              label + ": counters do not sum across replicas");
        check(close_rel(got_t.total.device_us(),
                        want_t.total.device_us()) &&
                  close_rel(got_t.total.queue_us, want_t.total.queue_us) &&
                  close_rel(got_t.total.hbm_byte_us,
                            want_t.total.hbm_byte_us),
              label + ": charges do not sum across replicas");
        check(got_t.latency.count == got_t.total.completed,
              label + ": latency samples vs completed");
        for (int c = 0; c < kNumSloClasses; ++c) {
            check(got_t.by_class[c].offered() ==
                          want_t.by_class[c].offered() &&
                      close_rel(got_t.by_class[c].device_us(),
                                want_t.by_class[c].device_us()),
                  label + ": class " +
                      to_string(static_cast<SloClass>(c)) +
                      " cell does not sum across replicas");
        }
    }
    return errors;
}

void
perturb_router_counter(ClusterReport &report, std::int64_t offset)
{
    report.router.rerouted = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(report.router.rerouted) + offset);
}

// ---- Report document ----------------------------------------------------

namespace {

void
write_latency(JsonWriter &w, const prof::LatencySummary &s)
{
    w.begin_object();
    w.field("count", static_cast<std::int64_t>(s.count));
    w.field("mean_us", s.mean);
    w.field("p50_us", s.p50);
    w.field("p95_us", s.p95);
    w.field("p99_us", s.p99);
    w.field("max_us", s.max);
    w.end_object();
}

}  // namespace

std::string
cluster_report_json(const ClusterReport &report,
                    const ClusterRunInfo &info,
                    const std::vector<std::string> &errors,
                    const prof::RunManifest &manifest)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("schema", prof::kClusterReportSchema);
        w.field("schema_version", prof::kClusterReportVersion);
        w.key("manifest");
        prof::write_manifest(w, manifest);
        w.field("preset", info.preset);
        w.field("device", info.device);
        w.field("policy", to_string(report.policy));
        w.field("seed", static_cast<std::int64_t>(info.seed));
        w.field("replicas", static_cast<std::int64_t>(
                                report.replicas.size()));

        w.key("fleet");
        w.begin_object();
        w.field("arrivals", static_cast<std::int64_t>(report.arrivals));
        w.field("completed",
                static_cast<std::int64_t>(report.completed));
        w.field("deadline_miss",
                static_cast<std::int64_t>(report.deadline_miss));
        w.field("rejected", static_cast<std::int64_t>(report.rejected));
        w.field("timed_out",
                static_cast<std::int64_t>(report.timed_out));
        w.field("lost_in_flight",
                static_cast<std::int64_t>(report.lost_in_flight));
        w.field("failover_sheds", static_cast<std::int64_t>(
                                      report.router.failover_sheds()));
        w.field("rounds", report.rounds);
        w.field("makespan_us", report.makespan_us);
        w.field("busy_us", report.busy_us);
        w.field("throughput_rps", report.throughput_rps);
        w.field("util_skew", report.util_skew);
        w.key("latency");
        write_latency(w, report.latency);
        w.key("latency_by_class");
        w.begin_array();
        for (int c = 0; c < kNumSloClasses; ++c) {
            w.begin_object();
            w.field("class", to_string(static_cast<SloClass>(c)));
            w.key("latency");
            write_latency(w, report.latency_by_class[c]);
            w.end_object();
        }
        w.end_array();
        w.end_object();

        w.key("router");
        w.begin_object();
        w.field("policy", to_string(report.policy));
        w.field("routed",
                static_cast<std::int64_t>(report.router.routed));
        w.field("rerouted",
                static_cast<std::int64_t>(report.router.rerouted));
        w.field("shed_arrivals", static_cast<std::int64_t>(
                                     report.router.shed_arrivals));
        w.field("shed_reroutes", static_cast<std::int64_t>(
                                     report.router.shed_reroutes));
        w.field("affinity_repins", static_cast<std::int64_t>(
                                       report.router.affinity_repins));
        w.key("per_replica");
        w.begin_array();
        for (const std::uint64_t c : report.router.per_replica) {
            w.value(static_cast<std::int64_t>(c));
        }
        w.end_array();
        w.end_object();

        w.key("faults");
        w.begin_array();
        for (const ReplicaFault &f : report.faults) {
            w.begin_object();
            w.field("replica", static_cast<std::int64_t>(f.replica));
            w.field("down_us", f.down_us);
            w.field("up_us", f.up_us);  // null when permanent.
            w.end_object();
        }
        w.end_array();

        w.key("replica_reports");
        w.begin_array();
        for (std::size_t k = 0; k < report.replicas.size(); ++k) {
            const ServeReport &rep = report.replicas[k];
            w.begin_object();
            w.field("replica", static_cast<std::int64_t>(k));
            w.field("device", k < report.device_names.size()
                                  ? report.device_names[k]
                                  : rep.device);
            w.field("offered", static_cast<std::int64_t>(
                                   rep.admission.offered));
            w.field("admitted", static_cast<std::int64_t>(
                                    rep.admission.admitted));
            w.field("completed",
                    static_cast<std::int64_t>(rep.completed));
            w.field("rejected", static_cast<std::int64_t>(
                                    rep.admission.rejected));
            w.field("timed_out", static_cast<std::int64_t>(
                                     rep.admission.timed_out));
            w.field("drained", static_cast<std::int64_t>(
                                   rep.admission.drained));
            w.field("lost_in_flight",
                    static_cast<std::int64_t>(rep.lost_in_flight));
            w.field("rounds", rep.rounds);
            w.field("busy_us", rep.busy_us);
            w.field("util",
                    k < report.replica_util.size()
                        ? report.replica_util[k]
                        : 0.0);
            w.key("latency");
            write_latency(w, rep.latency);
            w.end_object();
        }
        w.end_array();

        w.key("plan_cache");
        w.begin_object();
        w.field("hits",
                static_cast<std::int64_t>(report.plan_cache.hits));
        w.field("misses",
                static_cast<std::int64_t>(report.plan_cache.misses));
        w.field("evictions",
                static_cast<std::int64_t>(report.plan_cache.evictions));
        w.end_object();

        w.key("tenants");
        w.begin_array();
        for (const TenantCost &t : report.cost.tenants) {
            w.begin_object();
            w.field("tenant", t.tenant);
            write_cost_cell(w, t.total, report.cost.busy_us);
            w.key("latency");
            write_latency(w, t.latency);
            w.end_object();
        }
        w.end_array();

        w.field("conserved", errors.empty());
        w.key("reconcile_errors");
        w.begin_array();
        for (const std::string &e : errors) {
            w.value(e);
        }
        w.end_array();
        w.end_object();
    }
    return os.str();
}

std::string
cluster_report_json(const ClusterReport &report,
                    const ClusterRunInfo &info,
                    const std::vector<std::string> &errors)
{
    return cluster_report_json(report, info, errors,
                               prof::RunManifest::collect(info.device));
}

}  // namespace multigrain::serve
