#ifndef MULTIGRAIN_BENCH_BENCH_UTIL_H_
#define MULTIGRAIN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "core/attention.h"
#include "core/plan_cache.h"
#include "formats/convert.h"
#include "gpusim/device.h"
#include "kernels/blocked_baseline.h"
#include "kernels/coarse.h"
#include "patterns/presets.h"
#include "patterns/slice.h"
#include "profiler/history.h"
#include "serve/cluster.h"
#include "serve/server.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

/// The benchmark harness's shared pieces. Every bench binary collects
/// the rows its paper table or figure reports into one prof::BenchRun,
/// prints its console tables, and writes the run as `BENCH_<name>.json`
/// through write_bench_artifact().
///
/// This header also hosts the bench-preset registry mgperf runs its
/// regression gate over: deterministic in-process versions of the
/// headline figures, parameterized by device so baselines exist per
/// (preset, device) pair. A gated figure has one definition: the fig9
/// and fig11 binaries print the A100 preset rows, fig12 reuses fig11's
/// kernel pair per batch size, and fig7's binary and preset share one
/// per-sample runner (the binary averages three samples per device, the
/// preset takes one).
namespace multigrain::bench {

inline void
print_rule(int width = 78)
{
    for (int i = 0; i < width; ++i) {
        std::putchar('-');
    }
    std::putchar('\n');
}

inline void
print_title(const std::string &title)
{
    std::printf("\n");
    print_rule();
    std::printf("%s\n", title.c_str());
    print_rule();
}

/// "1.83x" style formatting for speedup cells.
inline std::string
fmt_speedup(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", ratio);
    return buf;
}

inline std::string
fmt_ms(double us)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", us / 1000.0);
    return buf;
}

inline std::string
fmt_gb(double bytes)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", bytes / 1e9);
    return buf;
}

// ---- Shared CLI plumbing -------------------------------------------------
// The tools repeat the same two rituals: comma-list parsing and
// resolving artifact paths against --out-dir. They live here so every
// tool resolves paths the same way.

/// Splits "a,b,c" into {"a","b","c"}; empty items are rejected.
inline std::vector<std::string>
split_csv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string item = comma == std::string::npos
                                     ? s.substr(pos)
                                     : s.substr(pos, comma - pos);
        MG_CHECK(!item.empty()) << "empty item in list \"" << s << "\"";
        out.push_back(item);
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    return out;
}

/// Directory a tool writes its artifacts to: an explicit --out-dir
/// wins; the default "." honors MULTIGRAIN_BENCH_DIR.
inline std::string
default_artifact_dir(const std::string &out_dir)
{
    if (out_dir != ".") {
        return out_dir;
    }
    if (const char *env = std::getenv("MULTIGRAIN_BENCH_DIR")) {
        if (*env != '\0') {
            return env;
        }
    }
    return ".";
}

/// Resolves a relative artifact path under --out-dir; empty paths,
/// absolute paths, and the default layout (out_dir ".") pass through
/// untouched.
inline std::string
resolve_out_path(const std::string &out_dir, const std::string &path)
{
    if (path.empty() || path.front() == '/' || out_dir == ".") {
        return path;
    }
    return out_dir + "/" + path;
}

// ---- Bench artifacts -----------------------------------------------------

/// An empty bench-binary run, stamped with the CLI name of the device
/// it runs on ("" when it covers several).
inline prof::BenchRun
new_bench_run(const std::string &name, const std::string &device = "")
{
    prof::BenchRun run;
    run.name = name;
    run.manifest = prof::RunManifest::collect(device);
    return run;
}

/// Writes `run` as `BENCH_<run.name>.json` under $MULTIGRAIN_BENCH_DIR
/// (default cwd) in the "mgprof.bench" schema — the one artifact path of
/// every bench binary. An unwritable directory is a warning, not a
/// failure: the console tables are the binary's primary output.
inline void
write_bench_artifact(const prof::BenchRun &run)
{
    const std::string path =
        default_artifact_dir(".") + "/BENCH_" + run.name + ".json";
    std::ofstream file(path);
    if (!file.good()) {
        log_message(LogLevel::kWarn, "cannot write bench artifact " + path);
        return;
    }
    file << run.to_json() << "\n";
    std::fprintf(stderr, "bench: wrote %s (%zu rows)\n", path.c_str(),
                 run.rows.size());
}

/// Appends a "plan_cache" row with the process-wide plan-cache counters,
/// recording how much planning the run amortized through capture/replay.
inline void
append_plan_cache_row(prof::BenchRun &run)
{
    const PlanCacheStats stats = PlanCache::instance().stats();
    prof::BenchRow &row = run.add_row("plan_cache");
    for (const PlanCacheMetricDef &metric : plan_cache_metric_registry()) {
        row.metric(metric.key, metric.get(stats));
    }
}

/// Metric `name` of `row`; throws when absent.
inline double
metric(const prof::BenchRow &row, const std::string &name)
{
    const double *value = row.find_metric(name);
    MG_CHECK(value != nullptr) << row.key() << " has no metric " << name;
    return *value;
}

/// The fig9 preset's row for `pattern` under `mode`; throws when absent.
inline const prof::BenchRow &
fig9_row(const prof::BenchRun &run, const std::string &pattern,
         SliceMode mode)
{
    prof::BenchRow probe;
    probe.series = "fig9";
    probe.label("pattern", pattern).label("mode", to_string(mode));
    const prof::BenchRow *row = run.find_row(probe.key());
    MG_CHECK(row != nullptr) << run.name << " has no row " << probe.key();
    return *row;
}

// ---- Shared figure runners -----------------------------------------------

/// Runs Figure 7's forwards in one order: Longformer-large then
/// QDS-Transformer-base, `samples` dataset inputs each drawn from a fresh
/// Rng(2022), each input under multigrain / coarse-only / fine-only at
/// batch 1. `fn(model, mode, runner, result)` sees every run.
template <typename Fn>
void
for_each_fig7_run(const sim::DeviceSpec &device, int samples, Fn &&fn)
{
    for (const ModelConfig &model :
         {ModelConfig::longformer_large(), ModelConfig::qds_base()}) {
        Rng rng(2022);
        for (int i = 0; i < samples; ++i) {
            const WorkloadSample sample = sample_for_model(rng, model);
            for (const SliceMode mode :
                 {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
                  SliceMode::kFineOnly}) {
                const TransformerRunner runner(model, mode, sample, 1);
                fn(model, mode, runner, runner.simulate(device));
            }
        }
    }
}

/// Figures 11 and 12: our coarse kernels and the Triton-style blocked
/// kernels over one pure coarse pattern, each simulated alone.
struct CoarseKernelTimes {
    double ours_sddmm_us = 0;
    double triton_sddmm_us = 0;
    double ours_spmm_us = 0;
    double triton_spmm_us = 0;
};

/// Times both kernel pairs over `pattern` (block 64, d_h = 64) with
/// `replicas` = batch × heads independent head-batches.
inline CoarseKernelTimes
coarse_vs_triton(const sim::DeviceSpec &device,
                 const CompoundPattern &pattern, index_t replicas)
{
    constexpr index_t kHeadDim = 64;
    const auto simulate_one = [&device](sim::KernelLaunch launch) {
        sim::GpuSim sim(device);
        sim.launch(0, std::move(launch));
        return sim.run().total_us;
    };
    SliceOptions options;
    options.block = 64;
    options.mode = SliceMode::kCoarseOnly;
    const SlicePlan plan = slice_and_dice(pattern, options);
    const BsrLayout &bsr = *plan.coarse;
    const BcooLayout bcoo = bcoo_from_bsr(bsr);
    CoarseKernelTimes t;
    t.ours_sddmm_us = simulate_one(
        kernels::plan_coarse_sddmm(device, bsr, kHeadDim, replicas));
    t.triton_sddmm_us = simulate_one(
        kernels::plan_triton_sddmm(device, bcoo, kHeadDim, replicas));
    t.ours_spmm_us = simulate_one(
        kernels::plan_coarse_spmm(device, bsr, kHeadDim, replicas));
    t.triton_spmm_us = simulate_one(
        kernels::plan_triton_spmm(device, bsr, kHeadDim, replicas));
    return t;
}

// ---- Bench-preset registry (the mgperf gate's workload table) -----------

/// One registered preset: a deterministic in-process benchmark whose rows
/// the regression gate tracks per device.
struct BenchPreset {
    const char *name;
    const char *description;
    prof::BenchRun (*run)(const sim::DeviceSpec &device);
};

namespace detail {

/// Figure 7 preset: end-to-end inference of Longformer-large and
/// QDS-Transformer-base under the three processing modes, one dataset
/// sample (the binary averages three; the gate wants speed and
/// determinism, not averaging).
inline prof::BenchRun
preset_fig7(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for_each_fig7_run(device, 1, [&](const ModelConfig &model, SliceMode mode,
                                     const TransformerRunner &runner,
                                     const EndToEndResult &r) {
        // Static memory plan of the replayed layer, scaled to the whole
        // model — exact-gated (core/memplan.h).
        const auto mem = runner.layer_memplan(
            device, TransformerRunner::LayerKind::kInference);
        const double layers = static_cast<double>(model.num_layers);
        run.add_row("fig7")
            .label("model", model.name)
            .label("mode", to_string(mode))
            .metric("total_us", r.total_us)
            .metric("attention_us", r.attention_us)
            .metric("dram_bytes", r.dram_bytes)
            .metric("attention_dram_bytes", r.attention_dram_bytes)
            .metric("peak_hbm_bytes",
                    static_cast<double>(mem->peak_hbm_bytes()) * layers)
            .metric("pooling_savings",
                    static_cast<double>(mem->pooling_savings()) * layers)
            .metric("gpusim.units", static_cast<double>(r.sim.counters.units))
            .metric("gpusim.events",
                    static_cast<double>(r.sim.counters.events()));
    });
    return run;
}

/// Figure 9 preset: the compound sparse GEMM phases across the five
/// compound patterns under the three processing modes.
inline prof::BenchRun
preset_fig9(const sim::DeviceSpec &device)
{
    constexpr index_t kSeqLen = 4096;
    constexpr double kDensity = 0.05;
    AttentionConfig config;
    config.head_dim = 64;
    config.num_heads = 4;
    config.batch = 1;
    config.block = 64;

    prof::BenchRun run;
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, 2022)) {
        for (const SliceMode mode :
             {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
              SliceMode::kFineOnly}) {
            const AttentionEngine engine(pattern, config, mode);
            const sim::SimResult r = engine.simulate(device);
            const auto mem = engine.forward_memplan(device);
            run.add_row("fig9")
                .label("pattern", label)
                .label("mode", to_string(mode))
                .metric("sddmm_us", r.span(phase::kSddmm))
                .metric("softmax_us", r.span(phase::kSoftmax))
                .metric("spmm_us", r.span(phase::kSpmm))
                .metric("total_us", r.total_us)
                .metric("peak_hbm_bytes",
                        static_cast<double>(mem->peak_hbm_bytes()))
                .metric("pooling_savings",
                        static_cast<double>(mem->pooling_savings()));
        }
    }
    return run;
}

/// Figure 11 preset: our coarse kernels vs the Triton-style blocked
/// kernels on the pure coarse patterns (batch 1, 4 heads).
inline prof::BenchRun
preset_fig11(const sim::DeviceSpec &device)
{
    constexpr index_t kSeqLen = 4096;
    constexpr index_t kHeads = 4;
    // The raw kernel plans carry no buffer annotations, so the memory
    // metrics come from the coarse-only engine over the same pattern —
    // the captured plan those kernels run inside.
    AttentionConfig mem_config;
    mem_config.head_dim = 64;
    mem_config.num_heads = kHeads;
    mem_config.batch = 1;
    mem_config.block = 64;

    prof::BenchRun run;
    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, 2022)) {
        const auto mem =
            AttentionEngine(pattern, mem_config, SliceMode::kCoarseOnly)
                .forward_memplan(device);
        const CoarseKernelTimes t =
            coarse_vs_triton(device, pattern, kHeads);
        run.add_row("fig11")
            .label("pattern", label)
            .metric("peak_hbm_bytes",
                    static_cast<double>(mem->peak_hbm_bytes()))
            .metric("pooling_savings",
                    static_cast<double>(mem->pooling_savings()))
            .metric("ours_sddmm_us", t.ours_sddmm_us)
            .metric("triton_sddmm_us", t.triton_sddmm_us)
            .metric("ours_spmm_us", t.ours_spmm_us)
            .metric("triton_spmm_us", t.triton_spmm_us);
    }
    return run;
}

/// Tiny preset: the tiny test model end to end — cheap enough for the
/// gate's perturbation self-test to run on every CI invocation.
inline prof::BenchRun
preset_tiny(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    const ModelConfig model = model_config_by_name("tiny");
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kDense}) {
        const TransformerRunner runner(model, mode, sample, 1);
        const EndToEndResult r = runner.simulate(device);
        const auto mem = runner.layer_memplan(
            device, TransformerRunner::LayerKind::kInference);
        const double layers = static_cast<double>(model.num_layers);
        run.add_row("tiny")
            .label("mode", to_string(mode))
            .metric("total_us", r.total_us)
            .metric("attention_us", r.attention_us)
            .metric("dram_bytes", r.dram_bytes)
            .metric("peak_hbm_bytes",
                    static_cast<double>(mem->peak_hbm_bytes()) * layers)
            .metric("pooling_savings",
                    static_cast<double>(mem->pooling_savings()) * layers)
            .metric("gpusim.units", static_cast<double>(r.sim.counters.units))
            .metric("gpusim.events",
                    static_cast<double>(r.sim.counters.events()));
    }
    return run;
}

/// Serving preset: the mgserve "tiny" traffic preset end to end — the
/// whole serving stack (traffic, admission, continuous batching, plan
/// reuse) reduced to one deterministic run the gate can diff. Latency
/// percentiles regress when the device slows down; the exact-policy
/// counters (rejected, plan_cache.*) regress when scheduling or plan
/// keying changes behavior, and gpusim.* when the engine simulates more
/// work for the same rounds.
inline prof::BenchRun
preset_serve_tiny(const sim::DeviceSpec &device)
{
    serve::Server server(serve::serve_preset_by_name("tiny"), device);
    const serve::ServeReport report = server.run();
    prof::BenchRun run;
    serve::append_serve_rows(run, report);
    run.add_row("gpusim")
        .metric("gpusim.units", static_cast<double>(report.engine.units))
        .metric("gpusim.events",
                static_cast<double>(report.engine.events()));
    return run;
}

/// Cluster preset: a 2-replica homogeneous fleet of the tiny traffic
/// preset behind the round-robin router (serve/cluster.h) — the
/// scale-out layer reduced to one deterministic run the gate can diff.
/// Fleet latency percentiles regress when the device slows down; the
/// exact router/outcome counters regress when placement or failover
/// behavior changes.
inline prof::BenchRun
preset_cluster_tiny(const sim::DeviceSpec &device)
{
    serve::ClusterConfig config;
    config.preset = "cluster_tiny";
    config.serve = serve::serve_preset_by_name("tiny");
    config.serve.preset = "cluster_tiny";
    config.serve.traffic.num_requests = 96;
    // Price footprints (the least-bytes signal) without ever shedding.
    config.serve.admission.hbm_budget_bytes = 1ull << 30;
    config.devices = {device, device};
    config.device_names = {"dev", "dev"};
    config.router_seed = config.serve.traffic.seed;
    serve::Cluster cluster(std::move(config));
    const serve::ClusterReport report = cluster.run();
    MG_CHECK(serve::reconcile_cluster(report).empty())
        << "cluster_tiny does not conserve";

    prof::BenchRun run;
    run.add_row("cluster")
        .label("policy", to_string(report.policy))
        .metric("arrivals", static_cast<double>(report.arrivals))
        .metric("completed", static_cast<double>(report.completed))
        .metric("deadline_miss", static_cast<double>(report.deadline_miss))
        .metric("rejected", static_cast<double>(report.rejected))
        .metric("timed_out", static_cast<double>(report.timed_out))
        .metric("lost_in_flight",
                static_cast<double>(report.lost_in_flight))
        .metric("rounds", static_cast<double>(report.rounds))
        .metric("makespan_us", report.makespan_us)
        .metric("busy_us", report.busy_us)
        .metric("throughput_rps", report.throughput_rps)
        .metric("util_skew", report.util_skew)
        .metric("p50_us", report.latency.p50)
        .metric("p95_us", report.latency.p95)
        .metric("p99_us", report.latency.p99)
        .metric("routed", static_cast<double>(report.router.routed))
        .metric("rerouted", static_cast<double>(report.router.rerouted))
        .metric("failover_sheds",
                static_cast<double>(report.router.failover_sheds()));
    for (std::size_t k = 0; k < report.replicas.size(); ++k) {
        const serve::ServeReport &rep = report.replicas[k];
        run.add_row("cluster_replica")
            .label("replica", std::to_string(k))
            .metric("offered", static_cast<double>(rep.admission.offered))
            .metric("completed", static_cast<double>(rep.completed))
            .metric("rounds", static_cast<double>(rep.rounds))
            .metric("busy_us", rep.busy_us)
            .metric("p99_us", rep.latency.p99)
            .metric("util", report.replica_util[k]);
    }
    return run;
}

}  // namespace detail

/// The registered presets, in baseline-file order.
inline const std::vector<BenchPreset> &
bench_presets()
{
    static const std::vector<BenchPreset> presets = {
        {"fig7", "end-to-end inference (Longformer + QDS, 3 modes)",
         &detail::preset_fig7},
        {"fig9", "compound sparse GEMM phases (5 patterns, 3 modes)",
         &detail::preset_fig9},
        {"fig11", "coarse kernels vs Triton-style blocked kernels",
         &detail::preset_fig11},
        {"tiny", "tiny model end-to-end (gate self-test workload)",
         &detail::preset_tiny},
        {"serve_tiny", "mgserve tiny traffic preset (serving-layer gate)",
         &detail::preset_serve_tiny},
        {"cluster_tiny",
         "2-replica round-robin fleet of the tiny preset (fleet gate)",
         &detail::preset_cluster_tiny},
    };
    return presets;
}

/// nullptr when no preset has that name.
inline const BenchPreset *
find_bench_preset(const std::string &name)
{
    for (const BenchPreset &preset : bench_presets()) {
        if (name == preset.name) {
            return &preset;
        }
    }
    return nullptr;
}

/// Runs `preset` on the device named by its CLI name ("a100"/"rtx3090")
/// and returns the manifest-stamped run named "<preset>@<device>". The
/// process-wide plan cache is cleared first so the appended "plan_cache"
/// row is a per-preset delta, reproducible regardless of what ran before
/// — a fingerprint change that kills cache reuse fails the gate next to
/// the latency it costs.
inline prof::BenchRun
run_bench_preset(const BenchPreset &preset,
                 const std::string &device_name)
{
    const sim::DeviceSpec device = sim::device_spec_by_name(device_name);
    PlanCache::instance().clear();
    prof::BenchRun run = preset.run(device);
    run.name = std::string(preset.name) + "@" + device_name;
    run.manifest = prof::RunManifest::collect(device_name);
    append_plan_cache_row(run);
    return run;
}

}  // namespace multigrain::bench

#endif  // MULTIGRAIN_BENCH_BENCH_UTIL_H_
