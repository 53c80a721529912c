#include <array>
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "core/plan_cache.h"
#include "profiler/percentile.h"
#include "serve/cost.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace mgbench {

namespace {

using mg::index_t;
using mg::SliceMode;

constexpr SliceMode kModes[] = {SliceMode::kMultigrain,
                                SliceMode::kCoarseOnly, SliceMode::kFineOnly};

struct PlanSpec {
    mg::ModelConfig model;
    SliceMode mode = SliceMode::kMultigrain;
    mg::WorkloadSample sample;
    index_t batch = 1;
};

/// Set-up: plans every spec from an empty PlanCache. The first
/// repetition is traced and its plans are checked (outside the timing) as
/// one operation. measured_loop repeats the set-up before every input, so
/// its median spans the run the way the op times do: a set-up of a few
/// milliseconds timed in one burst would catch a single moment of the
/// machine's speed.
class Setup {
  public:
    Setup(Context &ctx, std::vector<PlanSpec> specs)
        : ctx_(ctx), specs_(std::move(specs))
    {
        run(true);
    }

    void repeat() { run(false); }
    double median_s() const { return median(times_); }

  private:
    void run(bool first)
    {
        mg::PlanCache::instance().clear();
        ctx_.tracer.set_enabled(ctx_.opt.trace && first);
        ctx_.tracer.set_op(kSetupOp);
        std::vector<Planned> plans;
        {
            const Scope span(ctx_.tracer, "setup");
            const double t0 = now_s();
            for (const PlanSpec &s : specs_) {
                plans.push_back(
                    plan_model(ctx_, s.model, s.mode, s.sample, s.batch));
            }
            times_.push_back(now_s() - t0);
        }
        if (first) {
            const Scope span(ctx_.tracer, "check");
            for (std::size_t i = 0; i < plans.size(); ++i) {
                check_plan(ctx_, plans[i],
                           "set-up plan " + std::to_string(i));
            }
            ctx_.finish_attempt();
        }
        ctx_.tracer.set_enabled(false);
        mg::PlanCache::instance().clear();
    }

    Context &ctx_;
    const std::vector<PlanSpec> specs_;
    std::vector<double> times_;
};

struct OpResult {
    double host_s = 0;    ///< Time of the op span alone (no checks).
    double requests = 0;  ///< Forward passes or served requests.
};

/// The measured closed loop: one op at a time over inputs 0, 1, 2, ...,
/// in whole cycles of `cycle` inputs (one per input stratum, so every run
/// weighs the strata equally). It runs at least `min_cycles` cycles and
/// starts another while at least half of one still fits in `seconds`.
/// `setup` is repeated before every input, and every op starts from an
/// empty PlanCache. In the traced run each input
/// runs twice, untraced then traced, so both medians come from the same
/// inputs and the traced op can be compared with its untraced twin.
/// Returns, per untraced input, whether all its checks passed.
std::vector<bool>
measured_loop(Context &ctx, Setup &setup, int cycle, int min_cycles,
              Metrics &out, const std::function<OpResult(int, bool)> &op)
{
    std::vector<bool> passed;
    std::vector<double> ms[2];
    double host_s[2] = {0, 0};
    double requests[2] = {0, 0};
    const int passes = ctx.opt.trace ? 2 : 1;
    const double start = now_s();
    double cycle_s = 0;
    for (int input = 0, cycles = 0;
         cycles < min_cycles ||
         now_s() - start + cycle_s / 2 < ctx.opt.seconds;
         ++cycles) {
        const double cycle_start = now_s();
        for (const int end = input + cycle; input < end; ++input) {
            setup.repeat();
            for (int pass = 0; pass < passes; ++pass) {
                const bool traced = pass == 1;
                mg::PlanCache::instance().clear();
                ctx.tracer.set_enabled(traced);
                ctx.tracer.set_op(input);
                const OpResult r = op(input, traced);
                ctx.tracer.set_enabled(false);
                ms[pass].push_back(r.host_s * 1e3);
                host_s[pass] += r.host_s;
                requests[pass] += r.requests;
                if (traced) {
                    const mg::PlanCacheStats stats =
                        mg::PlanCache::instance().stats();
                    ctx.layer["core.plan_cache.hits"] +=
                        static_cast<double>(stats.hits);
                    ctx.layer["core.plan_cache.misses"] +=
                        static_cast<double>(stats.misses);
                    ++ctx.traced_ops;
                }
                const bool ok = ctx.finish_attempt();
                if (!traced) {
                    passed.push_back(ok);
                }
            }
        }
        cycle_s = now_s() - cycle_start;
    }
    mg::PlanCache::instance().clear();
    out["setup_s"] = setup.median_s();
    if (ctx.opt.trace) {
        out["trace.host_op_p50_ms_untraced"] = median(ms[0]);
        out["trace.host_op_p50_ms_traced"] = median(ms[1]);
        out["trace.sim_requests_per_host_s_untraced"] =
            requests[0] / host_s[0];
        out["trace.sim_requests_per_host_s_traced"] = requests[1] / host_s[1];
        out["trace.overhead"] = median(ms[1]) / median(ms[0]);
    } else {
        out["host_op_p50_ms"] = median(ms[0]);
        out["sim_requests_per_host_s"] = requests[0] / host_s[0];
    }
    std::cout << "host_op_p50_ms over " << ms[0].size()
              << " untraced ops";
    if (ctx.opt.trace) {
        std::cout << " (and " << ms[1].size() << " traced)";
    }
    std::cout << "\n";
    return passed;
}

/// One attempt of work after the measured loop (the functional check and
/// any device-side reference forwards), under a "post" span.
void
post_attempt(Context &ctx, const std::function<void()> &body)
{
    ctx.tracer.set_enabled(ctx.opt.trace);
    ctx.tracer.set_op(kPostOp);
    {
        const Scope span(ctx.tracer, "post");
        body();
    }
    ctx.tracer.set_enabled(false);
    ctx.finish_attempt();
}

/// A run's inputs: a stratified sample of the dataset generator. The seed
/// draws kCandidates samples, which are ordered by an estimate of their
/// attention work under multigrain and coarse-only; input i comes from
/// stratum i mod strata, its centre first and a fresh neighbour every
/// later cycle. Every run thus covers the same spread of input sizes, so
/// medians over a run's inputs vary little from seed to seed, while each
/// input is still a fresh draw that pays slicing and capture cold.
class InputSet {
  public:
    static constexpr int kCandidates = 4096;

    InputSet(const mg::ModelConfig &model, std::uint64_t seed, int strata)
        : strata_(strata)
    {
        mg::Rng rng(seed);
        std::vector<mg::WorkloadSample> drawn;
        std::vector<double> nnz, coarse;
        for (int i = 0; i < kCandidates; ++i) {
            drawn.push_back(mg::sample_for_model(rng, model));
            const mg::WorkloadSample &sample = drawn.back();
            // Multigrain's work (the pattern's nonzeros: local band plus
            // selected columns and global rows) and the coarse-only
            // baseline's (every block the pattern touches).
            const double len = static_cast<double>(sample.valid_len);
            const double reach = model.has_global_rows ? 2.0 : 1.0;
            std::set<index_t> special_blocks;
            for (const index_t t : sample.special_tokens) {
                special_blocks.insert(t / model.block);
            }
            const double block = static_cast<double>(model.block);
            const double band_blocks =
                std::ceil(2.0 * static_cast<double>(model.local_window) /
                          block) + 1.0;
            nnz.push_back(
                len * static_cast<double>(2 * model.local_window + 1) +
                reach * len *
                    static_cast<double>(sample.special_tokens.size()));
            coarse.push_back(
                std::ceil(len / block) * block * block *
                (band_blocks +
                 reach * static_cast<double>(special_blocks.size())));
        }
        // Each method's work relative to its median weighs equally.
        const double nnz_scale = median(nnz);
        const double coarse_scale = median(coarse);
        std::vector<std::pair<double, int>> order;
        for (int i = 0; i < kCandidates; ++i) {
            order.emplace_back(
                nnz[i] / nnz_scale + coarse[i] / coarse_scale, i);
        }
        std::sort(order.begin(), order.end());
        for (const auto &[key, i] : order) {
            sorted_.push_back(std::move(drawn[i]));
        }
    }

    const mg::WorkloadSample &at(int index) const
    {
        const int width = kCandidates / strata_;
        const int stratum = index % strata_;
        const int offset = (width / 2 + index / strata_) % width;
        return sorted_[static_cast<std::size_t>(stratum * width + offset)];
    }

    /// The candidate of median work.
    const mg::WorkloadSample &median_work() const
    {
        return sorted_[kCandidates / 2];
    }

    int strata() const { return strata_; }

  private:
    int strata_;
    std::vector<mg::WorkloadSample> sorted_;
};

/// The simulated request-latency metrics of a closed loop with one
/// client: each input is a request whose latency is its forward time.
void
closed_loop_serve_metrics(const std::vector<double> &fwd_us,
                          const std::vector<bool> &passed, Metrics &out)
{
    double total_us = 0;
    for (const double us : fwd_us) {
        total_us += us;
    }
    int ok = 0;
    for (std::size_t i = 0; i < fwd_us.size(); ++i) {
        ok += passed[i] ? 1 : 0;
    }
    out["serve_p50_us"] = mg::prof::percentile(fwd_us, 50);
    out["serve_p99_us"] = mg::prof::percentile(fwd_us, 99);
    out["serve_goodput_rps"] = ok / (total_us * 1e-6);
    out["serve_slo_met_ratio"] =
        static_cast<double>(ok) / static_cast<double>(fwd_us.size());
}

}  // namespace

// ---- longformer_qa ----------------------------------------------------------

Metrics
run_longformer_qa(Context &ctx)
{
    const mg::ModelConfig model = mg::ModelConfig::longformer_large();
    const InputSet inputs(model, ctx.opt.seed, 4);
    Metrics out;
    Setup setup(ctx, {{model, SliceMode::kMultigrain,
                       mg::canonical_bucket_sample(model, model.max_seq_len),
                       1}});

    std::vector<double> fwd_us, attn_us, hbm_bytes;
    std::vector<double> untraced_total;
    const std::vector<bool> passed = measured_loop(
        ctx, setup, inputs.strata(), 1, out,
        [&](int input, bool traced) {
            OpResult r;
            Forward fwd;
            {
                const Scope span(ctx.tracer, "op");
                const double t0 = now_s();
                fwd = run_forward(ctx, model, SliceMode::kMultigrain,
                                  inputs.at(input));
                r.host_s = now_s() - t0;
                r.requests = 1;
            }
            const Scope span(ctx.tracer, "check");
            const std::string what = "input " + std::to_string(input);
            check_forward(ctx, fwd, what);
            {
                const Scope carve(ctx.tracer, "profiler.carve");
                read_forward(fwd);
                if (traced) {
                    count_sim(ctx, fwd.sim, true);
                }
            }
            if (traced) {
                ctx.check(fwd.total_us == untraced_total.at(input),
                          what + ": traced forward differs from untraced");
            } else {
                untraced_total.push_back(fwd.total_us);
                if (input < inputs.strata()) {
                    fwd_us.push_back(fwd.total_us);
                    attn_us.push_back(fwd.attention_us);
                    hbm_bytes.push_back(
                        static_cast<double>(fwd.peak_hbm_bytes));
                }
            }
            return r;
        });

    post_attempt(ctx, [&] {
        const mg::WorkloadSample &sample = inputs.median_work();
        check_functional(ctx, model, sample);
        if (ctx.opt.trace) {
            return;
        }
        // The Fig. 7 cell for the median-work input: the two baselines
        // cost ~4 s of host time together, so they run on one input only.
        double base_us[2] = {0, 0};
        for (int b = 0; b < 2; ++b) {
            Forward fwd = run_forward(ctx, model, kModes[b + 1], sample);
            check_forward(ctx, fwd, std::string("median input ") +
                                        mg::to_string(kModes[b + 1]));
            read_forward(fwd);
            base_us[b] = fwd.total_us;
        }
        Forward fwd =
            run_forward(ctx, model, SliceMode::kMultigrain, sample);
        check_forward(ctx, fwd, "median input multigrain");
        read_forward(fwd);
        out["speedup_vs_coarse"] = base_us[0] / fwd.total_us;
        out["speedup_vs_fine"] = base_us[1] / fwd.total_us;
    });
    if (ctx.opt.trace) {
        return out;
    }
    out["device_fwd_us"] = median(fwd_us);
    out["device_attn_us"] = median(attn_us);
    out["device_peak_hbm_mb"] = median(hbm_bytes) / 1e6;
    out["paper_speedup_err"] = paper_error(model, out["speedup_vs_coarse"],
                                           out["speedup_vs_fine"]);
    closed_loop_serve_metrics(fwd_us, passed, out);
    return out;
}

// ---- qds_methods -------------------------------------------------------------

Metrics
run_qds_methods(Context &ctx)
{
    const mg::ModelConfig model = mg::ModelConfig::qds_base();
    const InputSet inputs(model, ctx.opt.seed, 8);
    Metrics out;
    std::vector<PlanSpec> specs;
    for (const SliceMode mode : kModes) {
        specs.push_back({model, mode,
                         mg::canonical_bucket_sample(model, model.max_seq_len),
                         1});
    }
    Setup setup(ctx, std::move(specs));

    std::vector<double> fwd_us, attn_us, hbm_bytes, coarse_us, fine_us;
    std::vector<std::array<double, 3>> untraced_totals;
    const std::vector<bool> passed = measured_loop(
        ctx, setup, inputs.strata(), 1, out,
        [&](int input, bool traced) {
            OpResult r;
            std::vector<Forward> fwds;
            {
                const Scope span(ctx.tracer, "op");
                const double t0 = now_s();
                for (const SliceMode mode : kModes) {
                    fwds.push_back(
                        run_forward(ctx, model, mode, inputs.at(input)));
                }
                r.host_s = now_s() - t0;
                r.requests = 3;
            }
            const Scope span(ctx.tracer, "check");
            std::array<double, 3> totals{};
            for (int m = 0; m < 3; ++m) {
                check_forward(ctx, fwds[m],
                              "input " + std::to_string(input) + " " +
                                  mg::to_string(kModes[m]));
                const Scope carve(ctx.tracer, "profiler.carve");
                read_forward(fwds[m]);
                totals[m] = fwds[m].total_us;
                if (traced) {
                    count_sim(ctx, fwds[m].sim, m == 0);
                }
            }
            if (traced) {
                ctx.check(totals == untraced_totals.at(input),
                          "input " + std::to_string(input) +
                              ": traced forwards differ from untraced");
            } else {
                untraced_totals.push_back(totals);
                if (input < inputs.strata()) {
                    fwd_us.push_back(totals[0]);
                    attn_us.push_back(fwds[0].attention_us);
                    hbm_bytes.push_back(
                        static_cast<double>(fwds[0].peak_hbm_bytes));
                    coarse_us.push_back(totals[1]);
                    fine_us.push_back(totals[2]);
                }
            }
            return r;
        });

    post_attempt(ctx, [&] {
        check_functional(ctx, model, inputs.median_work());
    });
    if (ctx.opt.trace) {
        return out;
    }
    out["device_fwd_us"] = median(fwd_us);
    out["device_attn_us"] = median(attn_us);
    out["device_peak_hbm_mb"] = median(hbm_bytes) / 1e6;
    // Ratios of summed forward times over the stratified inputs, as
    // EXPERIMENTS.md averages Fig. 7 over dataset samples.
    const double mg_sum = std::accumulate(fwd_us.begin(), fwd_us.end(), 0.0);
    out["speedup_vs_coarse"] =
        std::accumulate(coarse_us.begin(), coarse_us.end(), 0.0) / mg_sum;
    out["speedup_vs_fine"] =
        std::accumulate(fine_us.begin(), fine_us.end(), 0.0) / mg_sum;
    out["paper_speedup_err"] = paper_error(model, out["speedup_vs_coarse"],
                                           out["speedup_vs_fine"]);
    closed_loop_serve_metrics(fwd_us, passed, out);
    return out;
}

// ---- serve_poisson -----------------------------------------------------------

namespace {

namespace serve = mg::serve;

/// Serving runs whose simulated figures feed the end-to-end metrics: a
/// fixed set however fast the host is, so they repeat exactly (the other
/// workloads use their first cycle, one input per stratum).
constexpr int kSimServeRuns = 8;

/// The tiny preset (three tenants, three SLO classes, Poisson arrivals at
/// 20 000 req/s) stretched to 1 000 requests, so p99 has ten samples
/// beyond it.
serve::ServeConfig
serve_config(std::uint64_t traffic_seed)
{
    serve::ServeConfig config = serve::serve_preset_by_name("tiny");
    config.traffic.num_requests = 1000;
    config.traffic.seed = traffic_seed;
    return config;
}

/// Every (bucket, padded batch) plan the preset can dispatch: the plans a
/// server would warm before opening, and the serving workload's set-up.
std::vector<PlanSpec>
warm_plans(const serve::ServeConfig &config, const mg::ModelConfig &model)
{
    const serve::Scheduler scheduler(config.scheduler, config.traffic.models);
    std::set<index_t> buckets;
    for (index_t len = config.traffic.min_len; len <= model.max_seq_len;
         ++len) {
        buckets.insert(mg::bucket_len(len, config.scheduler.bucket_granularity,
                                      model.max_seq_len));
    }
    std::set<int> batches;
    for (int n = 1; n <= config.scheduler.max_batch; ++n) {
        batches.insert(scheduler.planned_batch(n));
    }
    std::vector<PlanSpec> specs;
    for (const index_t bucket : buckets) {
        const mg::ModelConfig bucketed = mg::bucketed_model(model, bucket);
        for (const int batch : batches) {
            specs.push_back({bucketed, config.mode,
                             mg::canonical_bucket_sample(bucketed, bucket),
                             batch});
        }
    }
    return specs;
}

/// Server::run's event loop, re-driven through the public step API with a
/// span around every call.
serve::ServeReport
traced_serve(Context &ctx, const serve::ServeConfig &config,
             serve::TraceLog &log)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::optional<serve::Server> server;
    std::optional<serve::TrafficSource> source;
    {
        const Scope span(ctx.tracer, "serve.begin");
        server.emplace(config, ctx.device);
        server->set_trace(&log);
        server->begin();
        source.emplace(config.traffic);
    }
    double now = 0;
    for (;;) {
        {
            const Scope span(ctx.tracer, "serve.ingest");
            while (source->peek_us() <= now) {
                server->ingest(source->pop(), now);
            }
        }
        {
            const Scope span(ctx.tracer, "serve.expire");
            server->expire(now);
        }
        if (server->can_dispatch()) {
            {
                const Scope span(ctx.tracer, "serve.dispatch");
                server->dispatch(now);
            }
            const Scope span(ctx.tracer, "serve.observe");
            server->observe(now);
            continue;
        }
        {
            const Scope span(ctx.tracer, "serve.observe");
            server->observe(now);
        }
        double next = source->peek_us();
        if (server->busy()) {
            next = std::min(next, server->busy_until());
        }
        if (next == kInf) {
            break;
        }
        now = next;
        if (server->busy() && now >= server->busy_until()) {
            const Scope span(ctx.tracer, "serve.complete");
            server->complete(*source);
        }
    }
    const Scope span(ctx.tracer, "serve.finish");
    return server->finish(now);
}

/// Every offered request has exactly one terminal record, the report's
/// counters agree with the records, and the cost ledger reconciles.
void
check_report(Context &ctx, const serve::ServeReport &report,
             const serve::ServeConfig &config, const std::string &what)
{
    using Outcome = serve::RequestRecord::Outcome;
    const auto offered = static_cast<std::size_t>(config.traffic.num_requests);
    ctx.check(report.admission.offered == offered,
              what + ": offered " + std::to_string(report.admission.offered) +
                  " of " + std::to_string(offered) + " requests");
    ctx.check(report.records.size() == offered,
              what + ": " + std::to_string(report.records.size()) +
                  " records for " + std::to_string(offered) + " requests");
    std::set<std::uint64_t> ids;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timed_out = 0;
    for (const serve::RequestRecord &r : report.records) {
        ids.insert(r.request.id);
        completed += r.outcome == Outcome::kCompleted ? 1 : 0;
        rejected += r.outcome == Outcome::kRejected ? 1 : 0;
        timed_out += r.outcome == Outcome::kTimedOut ? 1 : 0;
        if (r.outcome == Outcome::kCompleted &&
            !(std::isfinite(r.finish_us) && r.finish_us >= r.dispatch_us &&
              r.dispatch_us >= r.request.arrival_us)) {
            ctx.check(false, what + ": request " +
                                 std::to_string(r.request.id) +
                                 " has an inconsistent timeline");
        }
    }
    ctx.check(ids.size() == report.records.size(),
              what + ": a request has more than one record");
    ctx.check(completed == report.completed &&
                  rejected == report.admission.rejected &&
                  timed_out == report.admission.timed_out &&
                  completed + rejected + timed_out == offered,
              what + ": outcomes do not partition the offered requests");
    const std::vector<std::string> drift =
        serve::reconcile_cost(report.cost, report);
    ctx.check(drift.empty(), what + ": reconcile_cost: " +
                                 (drift.empty() ? "" : drift.front()));
}

bool
same_records(const serve::ServeReport &a, const serve::ServeReport &b)
{
    if (a.records.size() != b.records.size() || a.rounds != b.rounds ||
        a.completed != b.completed || a.busy_us != b.busy_us ||
        a.makespan_us != b.makespan_us) {
        return false;
    }
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const serve::RequestRecord &x = a.records[i];
        const serve::RequestRecord &y = b.records[i];
        if (x.request.id != y.request.id ||
            x.request.tenant != y.request.tenant ||
            x.request.arrival_us != y.request.arrival_us ||
            x.request.valid_len != y.request.valid_len ||
            x.outcome != y.outcome || x.dispatch_us != y.dispatch_us ||
            x.finish_us != y.finish_us || x.bucket != y.bucket ||
            x.batch_size != y.batch_size ||
            x.deadline_met != y.deadline_met) {
            return false;
        }
    }
    return true;
}

}  // namespace

Metrics
run_serve_poisson(Context &ctx)
{
    const serve::ServeConfig base = serve_config(0);
    const std::string &model_name = base.traffic.models.front();
    const mg::ModelConfig model = mg::model_config_by_name(model_name);
    Metrics out;

    Setup setup(ctx, warm_plans(base, model));

    std::vector<double> latencies_us;
    double peak_round_bytes = 0;
    double offered = 0;
    double met = 0;
    double makespan_us = 0;
    std::map<index_t, int> completed_by_bucket;
    std::vector<serve::ServeReport> untraced;
    measured_loop(
        ctx, setup, 1, ctx.opt.trace ? 1 : kSimServeRuns, out,
        [&](int input, bool traced) {
            const serve::ServeConfig config =
                serve_config(input_seed(ctx.opt.seed, input));
            serve::TraceLog log([] {
                serve::TraceConfig c;
                c.retain_full = false;
                c.capture_sim = true;
                return c;
            }());
            OpResult r;
            serve::ServeReport report;
            {
                const Scope span(ctx.tracer, "op");
                const double t0 = now_s();
                if (traced) {
                    report = traced_serve(ctx, config, log);
                } else {
                    serve::Server server(config, ctx.device);
                    report = server.run();
                }
                r.host_s = now_s() - t0;
                r.requests = static_cast<double>(report.admission.offered);
            }
            const Scope span(ctx.tracer, "check");
            const std::string what = "serving run " + std::to_string(input);
            if (ctx.opt.corrupt == "record" && input == 0 &&
                !report.records.empty()) {
                report.records.pop_back();
            }
            check_report(ctx, report, config, what);
            if (traced) {
                ctx.check(same_records(report, untraced.at(input)),
                          what + ": step-driven report differs from "
                                 "Server::run");
                const Scope carve(ctx.tracer, "profiler.carve");
                for (const serve::TraceLog::RoundSim &round :
                     log.round_sims()) {
                    check_sim(ctx, round.result,
                              what + " round " + std::to_string(round.round));
                    count_sim(ctx, round.result, true);
                }
                std::vector<double> queue_us;
                for (const serve::RequestRecord &rec : report.records) {
                    if (rec.outcome ==
                        serve::RequestRecord::Outcome::kCompleted) {
                        queue_us.push_back(rec.queue_us());
                    }
                }
                Metrics &m = ctx.layer;
                m["serve.rounds"] += report.rounds;
                m["serve.avg_batch"] += report.avg_batch;
                m["serve.queue_p99_us"] +=
                    mg::prof::percentile(queue_us, 99);
                m["serve.rejected"] +=
                    static_cast<double>(report.admission.rejected);
                m["serve.gpu_util"] += report.gpu_util;
                return r;
            }
            if (input < kSimServeRuns) {
                offered += static_cast<double>(report.admission.offered);
                makespan_us += report.makespan_us;
                peak_round_bytes = std::max(
                    peak_round_bytes,
                    static_cast<double>(report.peak_round_hbm_bytes));
                for (const serve::RequestRecord &rec : report.records) {
                    if (rec.outcome !=
                        serve::RequestRecord::Outcome::kCompleted) {
                        continue;
                    }
                    latencies_us.push_back(rec.latency_us());
                    met += rec.deadline_met ? 1 : 0;
                    ++completed_by_bucket[rec.bucket];
                }
            }
            if (ctx.opt.trace) {
                untraced.push_back(std::move(report));
            }
            return r;
        });

    // Device figures per served request: the batch-1 forward of its bucket
    // under each method (the serving rounds themselves co-schedule padded
    // batches, which have no single-request forward time).
    std::map<index_t, std::array<Forward, 3>> per_bucket;
    post_attempt(ctx, [&] {
        check_functional(
            ctx, model,
            mg::canonical_bucket_sample(model, model.max_seq_len));
        if (ctx.opt.trace) {
            return;
        }
        for (const auto &[bucket, count] : completed_by_bucket) {
            const mg::ModelConfig bucketed = mg::bucketed_model(model, bucket);
            for (int m = 0; m < 3; ++m) {
                Forward fwd =
                    run_forward(ctx, bucketed, kModes[m],
                                mg::canonical_bucket_sample(bucketed, bucket));
                check_forward(ctx, fwd, "bucket " + std::to_string(bucket) +
                                            " " + mg::to_string(kModes[m]));
                read_forward(fwd);
                per_bucket[bucket][m] = std::move(fwd);
            }
        }
    });
    if (ctx.opt.trace) {
        return out;
    }
    double fwd_sum = 0;
    double attn_sum = 0;
    double completed = 0;
    std::vector<double> vs_coarse, vs_fine;
    for (const auto &[bucket, count] : completed_by_bucket) {
        const std::array<Forward, 3> &f = per_bucket.at(bucket);
        fwd_sum += count * f[0].total_us;
        attn_sum += count * f[0].attention_us;
        completed += count;
        vs_coarse.insert(vs_coarse.end(), count, f[1].total_us / f[0].total_us);
        vs_fine.insert(vs_fine.end(), count, f[2].total_us / f[0].total_us);
    }
    out["device_fwd_us"] = fwd_sum / completed;
    out["device_attn_us"] = attn_sum / completed;
    out["device_peak_hbm_mb"] = peak_round_bytes / 1e6;
    out["speedup_vs_coarse"] = median(vs_coarse);
    out["speedup_vs_fine"] = median(vs_fine);
    out["paper_speedup_err"] = paper_error(model, out["speedup_vs_coarse"],
                                           out["speedup_vs_fine"]);
    out["serve_p50_us"] = mg::prof::percentile(latencies_us, 50);
    out["serve_p99_us"] = mg::prof::percentile(latencies_us, 99);
    out["serve_goodput_rps"] = met / (makespan_us * 1e-6);
    out["serve_slo_met_ratio"] = met / offered;
    return out;
}

}  // namespace mgbench
