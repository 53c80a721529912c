// mgserve — the serving CLI: drive a traffic or fleet preset against
// simulated devices, with every serving observer attached and every
// serving ledger reconciled.
//
// Every preset runs as a serve::Cluster (src/serve/cluster.h) — a serve
// preset is a fleet of one on --device — with a request-level event log
// (serve/trace.h) and a telemetry sampler (serve/cost.h) on each
// replica. Seeded synthetic traffic passes admission control and the
// continuous-batching scheduler, and every round of batches replays into
// gpusim through the plan cache. Artifacts land in --out-dir (default:
// $MULTIGRAIN_BENCH_DIR, else .), named <kind>_<preset>@<device>:
//
//   serve preset (one replica on --device)
//     BENCH_serve_*.json        "mgprof.bench" serving summary — what the
//                               mgperf serving gate diffs against
//                               bench/baselines/serve_tiny@<device>.json
//     mgtrace_*.report.json     per-class latency split into admission /
//                               queue / batch-wait / pad / device spans
//     mgcost_*.report.json      per-tenant × SLO-class cost ledger
//     incident_*_<i>.json       flight-recorder dumps (shed burst,
//                               deadline-miss streak, stall, rate limit)
//     mgtrace_*.events.jsonl    --events: the structured event log
//     mgcost_*.timeseries.csv   --timeseries: fixed-grid telemetry
//   fleet preset (N replicas behind a router, optional failover)
//     mgcluster_*.report.json   fleet conservation report; a fleet of
//                               mixed devices is labeled "@mixed"
//   either
//     mgserve_*.trace.json      --trace: Perfetto timeline (replica k of
//                               a fleet prefixed "r<k>.")
//
// Gates, all exit 2: the fleet conservation algebra (reconcile_cluster,
// which also reconciles every replica's cost ledger), and for serve
// presets the trace reconciliation against the ServeReport plus a
// parse-and-replay of every incident dump. --perturb-ledger and
// --perturb-counter seed corruptions that must trip the gate.
//
// Typical uses:
//   mgserve --preset tiny --device a100      # the acceptance run
//   mgserve --preset overload --trace        # watch the recorder fire
//   mgserve --preset failover                # a fleet absorbs a fault
//   mgserve --all --device rtx3090 --quiet   # gate every preset
//   mgserve --preset fleet2 --perturb-counter 1   # self-test: exit 2
//
// Exit codes: 0 clean, 1 usage/runtime error, 2 validation failure
// (unknown preset/device/policy, or a reconciliation gate).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "profiler/export.h"
#include "serve/cluster.h"
#include "serve/cost.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace {

using namespace multigrain;

struct Options {
    std::string preset = "tiny";
    std::string device = "a100";
    /// Router policy override; empty keeps the preset's policy.
    std::string policy;
    bool all = false;  ///< Every serve and fleet preset on --device.
    std::uint64_t seed = 0;  ///< 0 keeps the preset's seed.
    /// Artifact directory; "." honors MULTIGRAIN_BENCH_DIR.
    std::string out_dir = ".";
    bool events = false;
    bool timeseries = false;
    bool trace = false;
    /// Gate self-tests: scale tenant 0's device charges in replica 0's
    /// ledger (1 = off), or shift the router's rerouted counter (0 =
    /// off). Either must make the run exit 2.
    double perturb_ledger = 1;
    std::int64_t perturb_counter = 0;
    bool list = false;
    bool quiet = false;
};

void
usage(std::ostream &os)
{
    os << "usage: mgserve [options]\n"
          "\n"
          "  --preset NAME   serve or fleet preset (--list to enumerate;"
          " default tiny)\n"
          "  --all           run every serve and fleet preset on"
          " --device\n"
          "  --device NAME   device spec (a100 | rtx3090; default a100;"
          " the\n"
          "                  hetero fleet pins its own pair)\n"
          "  --policy NAME   router policy override (round-robin |\n"
          "                  least-bytes | tenant-affinity)\n"
          "  --seed N        override the preset's traffic + router seed\n"
          "  --out-dir DIR   artifact directory (default\n"
          "                  $MULTIGRAIN_BENCH_DIR, else .)\n"
          "  --events        also write the event log (serve presets)\n"
          "  --timeseries    also write the telemetry CSV (serve"
          " presets)\n"
          "  --trace         also write a Perfetto timeline\n"
          "  --perturb-ledger X\n"
          "                  scale tenant 0's device charges by X\n"
          "                  (gate self-test; X != 1 must exit 2)\n"
          "  --perturb-counter N\n"
          "                  shift the router's rerouted counter by N\n"
          "                  (gate self-test; N != 0 must exit 2)\n"
          "  --list          list registered presets and exit\n"
          "  --quiet         summary lines only\n"
          "  --verbose       raise the library log level to info\n"
          "  --help          this text\n";
}

Options
parse_args(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            MG_CHECK(i + 1 < argc) << arg << " needs a value";
            return argv[++i];
        };
        if (arg == "--preset") {
            opt.preset = next();
        } else if (arg == "--all") {
            opt.all = true;
        } else if (arg == "--device") {
            opt.device = next();
        } else if (arg == "--policy") {
            opt.policy = next();
        } else if (arg == "--seed") {
            opt.seed = std::stoull(next());
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
            MG_CHECK(!opt.out_dir.empty()) << "--out-dir must be non-empty";
        } else if (arg == "--events") {
            opt.events = true;
        } else if (arg == "--timeseries") {
            opt.timeseries = true;
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--perturb-ledger") {
            opt.perturb_ledger = std::stod(next());
        } else if (arg == "--perturb-counter") {
            opt.perturb_counter = std::stoll(next());
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--verbose") {
            set_log_level(LogLevel::kInfo);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else {
            usage(std::cerr);
            throw Error("unknown argument \"" + arg + "\"");
        }
    }
    return opt;
}

/// Every registered preset name: the serve presets, then the fleets.
std::vector<std::string>
preset_names()
{
    std::vector<std::string> names;
    for (const serve::ServePresetInfo &p : serve::serve_presets()) {
        names.push_back(p.name);
    }
    for (const serve::ClusterPresetInfo &p : serve::cluster_presets()) {
        names.push_back(p.name);
    }
    return names;
}

/// The fleet to run for one preset: a serve preset becomes a fleet of
/// one on --device. Unknown preset/device/policy names surface as
/// ValidationError (exit 2).
serve::ClusterConfig
validated_config(const Options &opt, const std::string &name, bool fleet)
{
    serve::ClusterConfig config;
    try {
        const sim::DeviceSpec device = sim::device_spec_by_name(opt.device);
        if (fleet) {
            config = serve::cluster_preset_by_name(name, opt.device);
        } else {
            config.preset = name;
            config.serve = serve::serve_preset_by_name(name);
            config.devices = {device};
            config.device_names = {opt.device};
            config.router_seed = config.serve.traffic.seed;
        }
        if (!opt.policy.empty()) {
            config.policy = serve::route_policy_by_name(opt.policy);
        }
    } catch (const Error &e) {
        throw ValidationError(e.what());
    }
    if (opt.seed != 0) {
        config.serve.traffic.seed = opt.seed;
        config.router_seed = opt.seed;
    }
    return config;
}

void
print_serve(const serve::ServeReport &report)
{
    std::printf("\nmgserve: preset %s on %s\n", report.preset.c_str(),
                report.device.c_str());
    std::printf("\n%-16s %10s\n", "admission", "count");
    const auto count_row = [](const char *label, std::uint64_t n) {
        std::printf("%-16s %10llu\n", label,
                    static_cast<unsigned long long>(n));
    };
    count_row("offered", report.admission.offered);
    count_row("admitted", report.admission.admitted);
    count_row("rejected", report.admission.rejected);
    count_row("timed_out", report.admission.timed_out);
    count_row("completed", report.completed);
    count_row("deadline_miss", report.deadline_miss);
    count_row("max_queue_depth", report.admission.max_depth);

    std::printf("\n%-12s %6s %10s %10s %10s %10s\n", "latency (us)",
                "n", "p50", "p95", "p99", "max");
    const auto latency_row = [](const char *label,
                                const prof::LatencySummary &s) {
        std::printf("%-12s %6zu %10.1f %10.1f %10.1f %10.1f\n", label,
                    s.count, s.p50, s.p95, s.p99, s.max);
    };
    latency_row("all", report.latency);
    for (int c = 0; c < serve::kNumSloClasses; ++c) {
        latency_row(to_string(static_cast<serve::SloClass>(c)),
                    report.latency_by_class[c]);
    }

    std::printf("\nthroughput  %10.1f req/s over %.1f us makespan "
                "(gpu util %.0f%%)\n",
                report.throughput_rps, report.makespan_us,
                report.gpu_util * 100.0);
    std::printf("batching    %d rounds, avg batch %.2f, max batch %d\n",
                report.rounds, report.avg_batch, report.max_batch);
    std::printf("round sims  %d simulated, %d reused from the round memo\n",
                report.round_sims, report.round_sim_hits);
    std::printf("\n%-12s %10s\n", "batch size", "batches");
    for (const auto &[size, count] : report.batch_histogram) {
        std::printf("%-12d %10d\n", size, count);
    }
    std::printf("\nplan cache  %llu hits / %llu misses (hit rate %.0f%%)\n",
                static_cast<unsigned long long>(report.plan_cache.hits),
                static_cast<unsigned long long>(report.plan_cache.misses),
                report.plan_cache.hit_rate() * 100.0);
}

void
print_attribution(const serve::TraceReport &report)
{
    const auto row = [](const char *label, const serve::SpanBreakdown &b) {
        std::printf("%-14s %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                    label, b.total_us, b.admission_us, b.queue_us,
                    b.batch_wait_us, b.pad_us, b.device_us);
    };
    for (const serve::ClassAttribution &attr : report.classes) {
        if (attr.count == 0) {
            continue;
        }
        std::printf("\n%s latency split (%zu completed)\n",
                    to_string(static_cast<serve::SloClass>(attr.slo)),
                    attr.count);
        std::printf("%-14s %10s %10s %10s %10s %10s %10s\n", "percentile",
                    "total", "admission", "queue", "batch_wait", "pad",
                    "device");
        row("mean", attr.mean);
        row("p50", attr.p50);
        row("p95", attr.p95);
        row("p99", attr.p99);
    }
    for (const serve::Incident &inc : report.incidents) {
        std::printf("incident    %-20s t=%.1f us  %s (%zu events)\n",
                    inc.trigger.c_str(), inc.t_us, inc.detail.c_str(),
                    inc.events.size());
    }
}

void
print_cost(const serve::CostReport &cost)
{
    std::printf("\n%-10s %6s %10s %10s %10s %9s %6s %6s %6s %6s %10s\n",
                "tenant", "done", "compute_us", "pad_us", "queue_us",
                "dev_share", "shed_c", "shed_m", "shed_r", "aged",
                "p99_us");
    for (const serve::TenantCost &t : cost.tenants) {
        const serve::CostCell &c = t.total;
        const double share =
            cost.busy_us > 0 ? c.device_us() / cost.busy_us : 0;
        std::printf("%-10s %6llu %10.1f %10.1f %10.1f %8.1f%% %6llu "
                    "%6llu %6llu %6llu %10.1f\n",
                    t.tenant.c_str(),
                    static_cast<unsigned long long>(c.completed),
                    c.compute_us, c.pad_us, c.queue_us, share * 100.0,
                    static_cast<unsigned long long>(c.shed_capacity),
                    static_cast<unsigned long long>(c.shed_memory),
                    static_cast<unsigned long long>(c.shed_ratelimit),
                    static_cast<unsigned long long>(c.aged_out),
                    t.latency.p99);
    }
}

void
print_fleet(const serve::ClusterReport &report)
{
    std::printf("\nmgserve: fleet %s, %zu replicas, policy %s\n",
                report.preset.c_str(), report.replicas.size(),
                serve::to_string(report.policy));
    std::printf("fleet: %llu arrivals — %llu completed, %llu rejected, "
                "%llu timed out, %llu lost in flight, %llu shed in "
                "failover\n",
                static_cast<unsigned long long>(report.arrivals),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.rejected),
                static_cast<unsigned long long>(report.timed_out),
                static_cast<unsigned long long>(report.lost_in_flight),
                static_cast<unsigned long long>(
                    report.router.failover_sheds()));
    std::printf("       p50 %.1f us, p95 %.1f us, p99 %.1f us — %.0f "
                "req/s over %.1f us, util skew %.3f\n",
                report.latency.p50, report.latency.p95, report.latency.p99,
                report.throughput_rps, report.makespan_us,
                report.util_skew);
    std::printf("router: %llu routed, %llu rerouted, %llu repins\n",
                static_cast<unsigned long long>(report.router.routed),
                static_cast<unsigned long long>(report.router.rerouted),
                static_cast<unsigned long long>(
                    report.router.affinity_repins));
    std::printf("\n%-8s %-10s %8s %8s %6s %6s %8s %12s %6s\n", "replica",
                "device", "offered", "done", "lost", "rounds", "busy_us",
                "p99_us", "util");
    for (std::size_t k = 0; k < report.replicas.size(); ++k) {
        const serve::ServeReport &rep = report.replicas[k];
        std::printf("r%-7zu %-10s %8llu %8llu %6llu %6d %8.1f %12.1f "
                    "%5.1f%%\n",
                    k, report.device_names[k].c_str(),
                    static_cast<unsigned long long>(rep.admission.offered),
                    static_cast<unsigned long long>(rep.completed),
                    static_cast<unsigned long long>(rep.lost_in_flight),
                    rep.rounds, rep.busy_us, rep.latency.p99,
                    report.replica_util[k] * 100.0);
    }
}

/// Incident self-test: the dump must replay — parse the JSON back and
/// require the rebuilt spans to match the spans of the in-memory ring
/// copy it froze.
void
verify_incident_replay(const serve::Incident &incident,
                       const std::string &json)
{
    const std::vector<serve::RequestSpans> live =
        serve::spans_from_events(incident.events);
    const std::vector<serve::RequestSpans> replayed =
        serve::spans_from_events(serve::incident_from_json(json).events);
    if (live.size() != replayed.size()) {
        throw ValidationError(
            "incident replay span count mismatch: live " +
            std::to_string(live.size()) + " vs replayed " +
            std::to_string(replayed.size()));
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
        const serve::RequestSpans &a = live[i];
        const serve::RequestSpans &b = replayed[i];
        const bool same =
            a.request == b.request && a.outcome == b.outcome &&
            a.arrive_us == b.arrive_us && a.admit_us == b.admit_us &&
            a.batched_us == b.batched_us &&
            a.dispatched_us == b.dispatched_us &&
            a.finish_us == b.finish_us && a.pad_us == b.pad_us &&
            a.batch == b.batch && a.round == b.round;
        if (!same) {
            throw ValidationError(
                "incident replay diverged on request " +
                std::to_string(a.request));
        }
    }
}

/// Writes one artifact; JSON documents are certified by reparsing them
/// first, the mgprof way.
void
write_artifact(const Options &opt, const std::string &path,
               const std::string &text, bool json = true)
{
    if (json) {
        json_parse(text);
    }
    prof::write_text_file(path, text);
    if (!opt.quiet) {
        std::fprintf(stderr, "mgserve: wrote %s\n", path.c_str());
    }
}

void
run_one(const Options &opt, const std::string &name)
{
    const std::vector<std::string> names = preset_names();
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) {
        std::string known;
        for (const std::string &n : names) {
            known += (known.empty() ? "" : "|") + n;
        }
        throw ValidationError("unknown preset \"" + name + "\" (" + known +
                              ")");
    }
    const bool fleet =
        it - names.begin() >=
        static_cast<std::ptrdiff_t>(serve::serve_presets().size());
    serve::ClusterConfig config = validated_config(opt, name, fleet);
    std::string device = config.device_names.front();
    for (const std::string &d : config.device_names) {
        if (d != device) {
            device = "mixed";
        }
    }
    const std::string id = name + "@" + device;
    const std::string dir = bench::default_artifact_dir(opt.out_dir) + "/";
    const std::uint64_t seed = config.serve.traffic.seed;

    // Every replica carries both observers; neither perturbs the clock.
    std::vector<std::string> tenants;
    for (const serve::TenantSpec &t : config.serve.traffic.tenants) {
        tenants.push_back(t.name);
    }
    serve::TraceConfig trace_config;
    trace_config.capture_sim = opt.trace;
    const std::size_t n = config.devices.size();
    std::vector<serve::TraceLog> logs(n, serve::TraceLog(trace_config));
    std::vector<serve::TelemetryRecorder> telemetry(
        n, serve::TelemetryRecorder({}, tenants));
    serve::Cluster cluster(std::move(config));
    for (std::size_t k = 0; k < n; ++k) {
        cluster.set_trace(k, &logs[k]);
        cluster.set_telemetry(k, &telemetry[k]);
    }
    serve::ClusterReport report = cluster.run();

    serve::CostReport &ledger = report.replicas.front().cost;
    if (opt.perturb_ledger != 1 && !ledger.tenants.empty()) {
        serve::scale_tenant_charges(ledger, 0, opt.perturb_ledger);
    }
    if (opt.perturb_counter != 0) {
        serve::perturb_router_counter(report, opt.perturb_counter);
    }
    std::vector<std::string> errors = serve::reconcile_cluster(report);

    if (fleet) {
        if (!opt.quiet) {
            print_fleet(report);
        }
        const serve::ClusterRunInfo info{name, device, seed};
        write_artifact(opt, dir + "mgcluster_" + id + ".report.json",
                       serve::cluster_report_json(report, info, errors) +
                           "\n");
    } else {
        const serve::ServeReport &rep = report.replicas.front();
        const serve::TraceReport trace = serve::build_trace_report(
            logs.front(), rep, {name, device, seed});
        if (!opt.quiet) {
            print_serve(rep);
            print_attribution(trace);
            print_cost(rep.cost);
        }
        write_artifact(opt, dir + "BENCH_serve_" + id + ".json",
                       serve::serve_bench_run(rep, device).to_json() +
                           "\n");
        write_artifact(opt, dir + "mgtrace_" + id + ".report.json",
                       serve::trace_report_json(trace) + "\n");
        write_artifact(opt, dir + "mgcost_" + id + ".report.json",
                       serve::cost_report_json(rep.cost,
                                               {name, device, seed},
                                               errors) +
                           "\n");
        const std::vector<serve::Incident> &incidents =
            logs.front().incidents();
        for (std::size_t i = 0; i < incidents.size(); ++i) {
            const std::string json = serve::incident_to_json(
                incidents[i], {name, device, seed}, trace_config);
            verify_incident_replay(incidents[i], json);
            write_artifact(opt,
                           dir + "incident_" + id + "_" +
                               std::to_string(i) + ".json",
                           json + "\n");
        }
        if (opt.events) {
            std::ostringstream os;
            serve::write_events_jsonl(logs.front().events(), os);
            write_artifact(opt, dir + "mgtrace_" + id + ".events.jsonl",
                           os.str(), false);
        }
        if (opt.timeseries) {
            write_artifact(opt, dir + "mgcost_" + id + ".timeseries.csv",
                           serve::telemetry_csv(telemetry.front()), false);
        }
        for (const std::string &e : trace.reconcile_errors) {
            errors.push_back("trace: " + e);
        }
    }
    if (opt.trace) {
        // A fleet of one renders exactly as a standalone serving trace.
        std::vector<serve::FleetReplicaTrace> lanes;
        for (std::size_t k = 0; k < n; ++k) {
            lanes.push_back({&logs[k], &telemetry[k],
                             fleet ? "r" + std::to_string(k) : ""});
        }
        write_artifact(opt, dir + "mgserve_" + id + ".trace.json",
                       serve::fleet_trace_json(lanes));
    }

    if (opt.quiet) {
        std::printf("mgserve: %s — %zu replica(s), %llu/%llu completed, "
                    "%llu rejected, %llu rerouted, p99 %.1f us, %s\n",
                    id.c_str(), n,
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(report.arrivals),
                    static_cast<unsigned long long>(report.rejected),
                    static_cast<unsigned long long>(report.router.rerouted),
                    report.latency.p99,
                    errors.empty() ? "reconciled" : "RECONCILE FAILED");
    }
    if (!errors.empty()) {
        std::string what = id + " does not reconcile:";
        for (const std::string &e : errors) {
            what += "\n  " + e;
        }
        throw ValidationError(what);
    }
}

int
run(const Options &opt)
{
    if (opt.list) {
        for (const serve::ServePresetInfo &p : serve::serve_presets()) {
            std::printf("%-10s %s\n", p.name, p.description);
        }
        for (const serve::ClusterPresetInfo &p : serve::cluster_presets()) {
            std::printf("%-10s %s\n", p.name, p.description);
        }
        return 0;
    }
    std::filesystem::create_directories(
        bench::default_artifact_dir(opt.out_dir));
    if (!opt.all) {
        run_one(opt, opt.preset);
        return 0;
    }
    for (const std::string &name : preset_names()) {
        run_one(opt, name);
        // Each preset starts cold, so its artifacts do not depend on
        // which presets ran before it.
        PlanCache::instance().clear();
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const ValidationError &e) {
        std::fprintf(stderr, "mgserve: validation failed: %s\n", e.what());
        return 2;
    } catch (const Error &e) {
        std::fprintf(stderr, "mgserve: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mgserve: %s\n", e.what());
        return 1;
    }
}
