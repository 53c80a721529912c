#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "core/attention.h"
#include "core/check.h"
#include "core/lint.h"
#include "kernels/reference.h"
#include "profiler/metrics.h"

namespace mgbench {

using mg::index_t;

Context::Context(Options options)
    : opt(std::move(options)), device(mg::sim::DeviceSpec::a100())
{
}

void
Context::check(bool ok, const std::string &what)
{
    if (!ok) {
        current_failed_ = true;
        std::cerr << "mgbench: check failed: " << what << "\n";
    }
}

bool
Context::finish_attempt()
{
    const bool passed = !current_failed_;
    ++attempted_;
    failed_ += passed ? 0 : 1;
    current_failed_ = false;
    return passed;
}

Planned
plan_model(Context &ctx, const mg::ModelConfig &model, mg::SliceMode mode,
           const mg::WorkloadSample &sample, index_t batch)
{
    Planned plan;
    {
        const Scope span(ctx.tracer, "patterns.build");
        plan.pattern_fp = mg::build_model_pattern(model, sample).fingerprint();
    }
    {
        const Scope span(ctx.tracer, "transformer.construct");
        plan.runner = std::make_unique<mg::TransformerRunner>(model, mode,
                                                              sample, batch);
    }
    if (ctx.tracer.enabled()) {
        ctx.layer["patterns.nnz"] += static_cast<double>(
            plan.runner->attention().plan().full->nnz());
    }
    {
        // Capture also plans the layer's memory (cached beside the graph);
        // the second call is that cache hit.
        const Scope span(ctx.tracer, "core.capture");
        constexpr auto kInference =
            mg::TransformerRunner::LayerKind::kInference;
        plan.graph = plan.runner->layer_graph(ctx.device, kInference);
        plan.memplan = plan.runner->layer_memplan(ctx.device, kInference);
    }
    return plan;
}

Forward
run_forward(Context &ctx, const mg::ModelConfig &model, mg::SliceMode mode,
            const mg::WorkloadSample &sample)
{
    Forward fwd;
    fwd.plan = plan_model(ctx, model, mode, sample, 1);
    mg::sim::GpuSim sim(ctx.device);
    {
        const Scope span(ctx.tracer, "transformer.replay");
        std::vector<int> binding;
        fwd.plan.runner->plan_inference_into(sim, binding);
    }
    {
        const Scope span(ctx.tracer, "gpusim.run");
        fwd.sim = sim.run();
    }
    return fwd;
}

void
read_forward(Forward &fwd)
{
    // The same reduction TransformerRunner::simulate applies.
    const index_t layers = fwd.plan.runner->model().num_layers;
    fwd.total_us = fwd.sim.total_us;
    fwd.attention_us = 0;
    for (index_t l = 0; l < layers; ++l) {
        char prefix[16];
        std::snprintf(prefix, sizeof prefix, "L%02d.attn.",
                      static_cast<int>(l));
        fwd.attention_us += fwd.sim.span(prefix);
    }
    fwd.peak_hbm_bytes = fwd.plan.memplan->peak_hbm_bytes() *
                         static_cast<std::uint64_t>(layers);
}

void
check_plan(Context &ctx, const Planned &plan, const std::string &what)
{
    {
        const Scope span(ctx.tracer, "core.lint");
        mg::LintOptions options;
        options.device = &ctx.device;
        const mg::LintReport report = mg::lint_graph(*plan.graph, options);
        ctx.check(report.clean(),
                  what + ": lint_graph: " + report.summary());
    }
    {
        const Scope span(ctx.tracer, "core.check");
        mg::CheckOptions options;
        options.memplan = plan.memplan.get();
        const mg::CheckReport report = mg::check_graph(*plan.graph, options);
        ctx.check(report.clean(),
                  what + ": check_graph: " + report.summary());
    }
    {
        const Scope span(ctx.tracer, "core.memplan");
        try {
            const mg::MemPlan fresh = mg::plan_memory(*plan.graph);
            mg::validate_memplan(*plan.graph, fresh);
            ctx.check(fresh.peak_hbm_bytes() ==
                          plan.memplan->peak_hbm_bytes(),
                      what + ": re-planned peak differs from cached memplan");
        } catch (const std::exception &e) {
            ctx.check(false, what + ": memplan: " + e.what());
        }
    }
}

void
check_sim(Context &ctx, const mg::sim::SimResult &sim,
          const std::string &what)
{
    ctx.check(std::isfinite(sim.total_us) && sim.total_us > 0,
              what + ": total_us is not finite and positive");
    ctx.check(!sim.kernels.empty(), what + ": no kernels simulated");
    for (const mg::sim::KernelStats &k : sim.kernels) {
        if (!(k.end_us >= k.start_us && k.start_us >= k.ready_us &&
              std::isfinite(k.end_us))) {
            ctx.check(false, what + ": kernel " + k.name +
                                 " violates end >= start >= ready");
            return;
        }
    }
}

void
check_forward(Context &ctx, const Forward &fwd, const std::string &what)
{
    ctx.check(fwd.plan.runner->attention().pattern_fingerprint() ==
                  fwd.plan.pattern_fp,
              what + ": runner planned a different pattern");
    check_plan(ctx, fwd.plan, what);
    check_sim(ctx, fwd.sim, what);
}

void
check_functional(Context &ctx, const mg::ModelConfig &model,
                 const mg::WorkloadSample &sample)
{
    constexpr double kTolerance = 0.03;  // FP16 through three chained ops.
    const index_t len = std::min<index_t>(512, model.max_seq_len);
    const mg::ModelConfig small = mg::bucketed_model(model, len);
    mg::WorkloadSample cut;
    cut.valid_len = std::min(sample.valid_len, len);
    for (const index_t t : sample.special_tokens) {
        if (t < len) {
            cut.special_tokens.push_back(t);
        }
    }
    const mg::CompoundPattern pattern = mg::build_model_pattern(small, cut);
    mg::AttentionConfig config;
    config.head_dim = small.head_dim();
    config.block = small.block;

    mg::Rng rng(input_seed(ctx.opt.seed, -1));
    const mg::HalfMatrix q =
        mg::random_half_matrix(rng, len, config.head_dim, -0.5f, 0.5f);
    const mg::HalfMatrix k =
        mg::random_half_matrix(rng, len, config.head_dim, -0.5f, 0.5f);
    const mg::HalfMatrix v =
        mg::random_half_matrix(rng, len, config.head_dim, -0.5f, 0.5f);

    mg::DoubleMatrix ref;
    for (const mg::SliceMode mode :
         {mg::SliceMode::kMultigrain, mg::SliceMode::kCoarseOnly,
          mg::SliceMode::kFineOnly}) {
        std::unique_ptr<mg::AttentionEngine> engine;
        {
            const Scope span(ctx.tracer, "core.engine_construct");
            engine =
                std::make_unique<mg::AttentionEngine>(pattern, config, mode);
        }
        mg::HalfMatrix out;
        {
            const Scope span(ctx.tracer, "core.attention_run");
            out = engine->run(q, k, v);
        }
        if (ref.rows() == 0) {
            // Every method attends exactly the pattern's full layout.
            const Scope span(ctx.tracer, "kernels.ref_attention");
            ref = mg::kernels::ref_attention(q, k, v, *engine->plan().full,
                                             config.effective_scale());
        }
        if (ctx.opt.corrupt == "functional" &&
            mode == mg::SliceMode::kMultigrain) {
            out.at(0, 0) = mg::half(-static_cast<float>(out.at(0, 0)) + 1.0f);
        }
        const double diff = mg::kernels::max_abs_diff(mg::widen(out), ref);
        ctx.check(diff < kTolerance,
                  std::string("functional ") + mg::to_string(mode) +
                      ": max |out - ref| = " + std::to_string(diff));
    }
}

void
count_sim(Context &ctx, const mg::sim::SimResult &sim, bool carve)
{
    Metrics &m = ctx.layer;
    double busy = 0;
    for (const mg::sim::KernelStats &k : sim.kernels) {
        m["gpusim.kernels"] += 1;
        m["gpusim.tbs"] += static_cast<double>(k.num_tbs);
        busy += k.duration_us();
        m["gpusim.concurrency_weighted_us"] +=
            k.avg_concurrency * k.duration_us();
    }
    m["gpusim.busy_us"] += busy;
    if (!carve) {
        return;
    }
    // Carve per (layer tag, phase) group: "L03.gemm.", "B0.L01.attn.spmm.".
    // Dense phases serialize on one stream, so their device time is the
    // sum of kernel durations; attention phases overlap across streams, so
    // theirs is the group's span.
    static const std::set<std::string> kPhases = {"gemm", "ew", "sddmm",
                                                  "softmax", "spmm"};
    std::map<std::string, std::string> groups;  // prefix -> phase
    for (const mg::sim::KernelStats &k : sim.kernels) {
        std::size_t begin = 0;
        while (begin < k.name.size()) {
            const std::size_t dot = k.name.find('.', begin);
            if (dot == std::string::npos) {
                break;
            }
            const std::string part = k.name.substr(begin, dot - begin);
            if (kPhases.count(part) != 0) {
                groups.emplace(k.name.substr(0, dot + 1), part);
                break;
            }
            begin = dot + 1;
        }
    }
    for (const auto &[prefix, phase] : groups) {
        const mg::prof::PhaseStats stats =
            mg::prof::carve_prefix(sim, ctx.device, prefix);
        const bool dense = phase == "gemm" || phase == "ew";
        m["kernels." + phase + "_us"] += dense ? stats.busy_us : stats.span_us;
        if (!dense) {
            m["kernels." + phase + "_dram_bytes"] += stats.dram_bytes();
        }
    }
}

std::uint64_t
input_seed(std::uint64_t seed, int index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                      static_cast<std::uint64_t>(index + 2) *
                          0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
paper_error(const mg::ModelConfig &model, double vs_coarse, double vs_fine)
{
    // EXPERIMENTS.md, Fig. 7, A100 rows: Multigrain vs Triton / Sputnik.
    const bool qds = model.family == mg::PatternFamily::kQds;
    const double paper_coarse = qds ? 1.55 : 2.07;
    const double paper_fine = qds ? 1.08 : 2.08;
    return 0.5 * (std::abs(vs_coarse / paper_coarse - 1) +
                  std::abs(vs_fine / paper_fine - 1));
}

}  // namespace mgbench
