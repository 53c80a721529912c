// mgbench: the repository benchmark (see ../README.md).
//
//   mgbench --workload <longformer_qa|serve_poisson|qds_methods>
//           --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//           [--corrupt <functional|record>]
//
// Prints a human-readable metric table, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Exits 1 without a result line on any error.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using mgbench::Context;
using mgbench::Metrics;
using mgbench::Options;

struct MetricDef {
    std::string name;
    const char *unit;
};

// Names and units must match BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"host_op_p50_ms", "ms"},
    {"sim_requests_per_host_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"device_fwd_us", "us"},
    {"device_attn_us", "us"},
    {"device_peak_hbm_mb", "MB"},
    {"speedup_vs_coarse", "x"},
    {"speedup_vs_fine", "x"},
    {"paper_speedup_err", "ratio"},
    {"serve_p50_us", "us"},
    {"serve_p99_us", "us"},
    {"serve_goodput_rps", "1/s"},
    {"serve_slo_met_ratio", "ratio"},
    {"ok_ratio", "ratio"},
};

/// Spans the benchmark records. Root spans report their own self time as
/// "<name>.self_s"; every other span as "<name>_s".
const std::vector<const char *> kRootSpans = {"setup", "op", "check", "post"};
const std::vector<const char *> kLayerSpans = {
    "patterns.build",     "transformer.construct",
    "core.capture",       "transformer.replay", "gpusim.run",
    "core.lint",          "core.check",         "core.memplan",
    "profiler.carve",     "core.engine_construct",
    "core.attention_run", "kernels.ref_attention",
    "serve.begin",        "serve.ingest",       "serve.expire",
    "serve.dispatch",     "serve.observe",      "serve.complete",
    "serve.finish",
};

const std::vector<MetricDef> kPerLayerCounters = {
    {"gpusim.ns_per_tb", "ns"},
    {"gpusim.kernels", "count"},
    {"gpusim.tbs", "count"},
    {"gpusim.avg_concurrency", "count"},
    {"patterns.nnz", "count"},
    {"core.plan_cache.hits", "count"},
    {"core.plan_cache.misses", "count"},
    {"core.plan_cache.hit_rate", "ratio"},
    {"kernels.gemm_us", "us"},
    {"kernels.sddmm_us", "us"},
    {"kernels.softmax_us", "us"},
    {"kernels.spmm_us", "us"},
    {"kernels.ew_us", "us"},
    {"kernels.sddmm_dram_bytes", "B"},
    {"kernels.softmax_dram_bytes", "B"},
    {"kernels.spmm_dram_bytes", "B"},
    {"serve.rounds", "count"},
    {"serve.avg_batch", "count"},
    {"serve.queue_p99_us", "us"},
    {"serve.rejected", "count"},
    {"serve.gpu_util", "ratio"},
    {"trace.ops", "count"},
    {"trace.op_coverage", "ratio"},
    {"trace.host_op_p50_ms_traced", "ms"},
    {"trace.host_op_p50_ms_untraced", "ms"},
    {"trace.sim_requests_per_host_s_traced", "1/s"},
    {"trace.sim_requests_per_host_s_untraced", "1/s"},
    {"trace.overhead", "ratio"},
};

std::vector<MetricDef>
per_layer_defs()
{
    std::vector<MetricDef> defs;
    for (const char *span : kRootSpans) {
        defs.push_back({std::string(span) + ".self_s", "s"});
    }
    for (const char *span : kLayerSpans) {
        defs.push_back({std::string(span) + "_s", "s"});
    }
    defs.insert(defs.end(), kPerLayerCounters.begin(),
                kPerLayerCounters.end());
    return defs;
}

[[noreturn]] void
usage(const std::string &why)
{
    throw std::invalid_argument(
        why + "\nusage: mgbench --workload <longformer_qa|serve_poisson|"
              "qds_methods> --seed <n> --seconds <s> --trace <0|1> "
              "[--spans <file>] [--corrupt <functional|record>]");
}

Options
parse(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            std::size_t end = 0;
            opt.seed = std::stoull(value, &end);
            if (end != value.size() || value[0] == '-') {
                usage("--seed takes a non-negative integer");
            }
            have_seed = true;
        } else if (flag == "--seconds") {
            opt.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                usage("--trace takes 0 or 1");
            }
            opt.trace = value == "1";
        } else if (flag == "--spans") {
            opt.spans_out = value;
        } else if (flag == "--corrupt") {
            if (value != "functional" && value != "record") {
                usage("--corrupt takes functional or record");
            }
            opt.corrupt = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opt.workload.empty() || !have_seed) {
        usage("--workload and --seed are required");
    }
    if (!(opt.seconds > 0 && opt.seconds <= 600)) {
        usage("--seconds must be in (0, 600]");
    }
    return opt;
}

/// High-water resident set of this process, MB (VmHWM).
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) * 1024.0 / 1e6;
        }
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Turns the traced run's spans and counters into the per-layer metrics:
/// every span name's self time and every counter, per traced op.
Metrics
per_layer_metrics(const Context &ctx, const Metrics &workload)
{
    const std::set<std::string> roots(kRootSpans.begin(), kRootSpans.end());
    const std::set<std::string> layers(kLayerSpans.begin(), kLayerSpans.end());
    Metrics out;
    for (const char *name : kRootSpans) {
        out[std::string(name) + ".self_s"] = 0;
    }
    for (const char *name : kLayerSpans) {
        out[std::string(name) + "_s"] = 0;
    }
    for (const auto &def : kPerLayerCounters) {
        out[def.name] = 0;
    }
    const double ops = ctx.traced_ops;
    for (const auto &[name, self] : ctx.tracer.self_by_name()) {
        if (roots.count(name) != 0) {
            out[name + ".self_s"] = self / ops;
        } else if (layers.count(name) != 0) {
            out[name + "_s"] = self / ops;
        } else {
            throw std::logic_error("span \"" + name + "\" has no metric");
        }
    }
    Metrics m = ctx.layer;
    for (const auto &[name, value] : m) {
        if (out.count(name) != 0) {
            out[name] = value / ops;
        }
    }
    // Rates over the whole run rather than means of per-op rates. Serving
    // rounds call GpuSim::run inside Server::dispatch.
    const double lookups =
        m["core.plan_cache.hits"] + m["core.plan_cache.misses"];
    out["core.plan_cache.hit_rate"] =
        lookups > 0 ? m["core.plan_cache.hits"] / lookups : 0;
    out["gpusim.avg_concurrency"] =
        m["gpusim.busy_us"] > 0
            ? m["gpusim.concurrency_weighted_us"] / m["gpusim.busy_us"]
            : 0;
    out["gpusim.ns_per_tb"] =
        m["gpusim.tbs"] > 0
            ? (out["gpusim.run_s"] + out["serve.dispatch_s"]) * ops * 1e9 /
                  m["gpusim.tbs"]
            : 0;

    // Share of each traced op's host time that its child spans cover.
    const std::vector<mgbench::Span> &spans = ctx.tracer.spans();
    const std::vector<double> self = ctx.tracer.self_times();
    std::vector<double> coverage;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::string(spans[i].name) == "op") {
            coverage.push_back(1 - self[i] / (spans[i].end_s -
                                              spans[i].start_s));
        }
    }
    out["trace.op_coverage"] = mgbench::median(coverage);
    out["trace.ops"] = ops;
    for (const auto &[name, value] : workload) {
        if (name.rfind("trace.", 0) == 0) {
            out[name] = value;
        }
    }
    return out;
}

void
write_spans(const Context &ctx, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        throw std::runtime_error("cannot write spans to " + path);
    }
    const std::vector<double> self = ctx.tracer.self_times();
    const std::vector<mgbench::Span> &spans = ctx.tracer.spans();
    char line[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::snprintf(line, sizeof line,
                      "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"self_s\": %.9f, \"parent\": %d, \"op\": %d}\n",
                      spans[i].name, spans[i].start_s, spans[i].end_s, self[i],
                      spans[i].parent, spans[i].op);
        os << line;
    }
}

std::string
number(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        Context ctx(parse(argc, argv));
        Metrics metrics;
        if (ctx.opt.workload == "longformer_qa") {
            metrics = mgbench::run_longformer_qa(ctx);
        } else if (ctx.opt.workload == "serve_poisson") {
            metrics = mgbench::run_serve_poisson(ctx);
        } else if (ctx.opt.workload == "qds_methods") {
            metrics = mgbench::run_qds_methods(ctx);
        } else {
            usage("unknown workload " + ctx.opt.workload);
        }

        std::vector<MetricDef> defs;
        if (ctx.opt.trace) {
            metrics = per_layer_metrics(ctx, metrics);
            defs = per_layer_defs();
            if (!ctx.opt.spans_out.empty()) {
                write_spans(ctx, ctx.opt.spans_out);
            }
        } else {
            metrics["peak_rss_mb"] = peak_rss_mb();
            metrics["ok_ratio"] =
                1.0 - static_cast<double>(ctx.failed()) / ctx.attempted();
            defs = kEndToEnd;
        }

        std::string json = "{\"correct\": ";
        json += ctx.failed() == 0 ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(ctx.attempted());
        json += ", \"failed\": " + std::to_string(ctx.failed());
        json += ", \"metrics\": {";
        const char *sep = "";
        for (const MetricDef &def : defs) {
            const auto it = metrics.find(def.name);
            if (it == metrics.end() || !std::isfinite(it->second)) {
                throw std::logic_error("metric " + def.name +
                                       " was not measured");
            }
            std::printf("%-40s %22.6f %s\n", def.name.c_str(), it->second,
                        def.unit);
            json += sep;
            json += "\"" + def.name + "\": {\"value\": " +
                    number(it->second) + ", \"unit\": \"" + def.unit + "\"}";
            sep = ", ";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::cerr << "mgbench: " << e.what() << "\n";
        return 1;
    }
}
