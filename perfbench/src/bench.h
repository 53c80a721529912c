#ifndef MULTIGRAIN_PERFBENCH_BENCH_H_
#define MULTIGRAIN_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/launch_graph.h"
#include "core/memplan.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "patterns/slice.h"
#include "tracer.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

/// Shared state of one benchmark run and the helpers every workload uses:
/// planning and simulating one forward pass under spans, the output
/// checks, and the per-layer counters the traced run reports.
namespace mgbench {

namespace mg = multigrain;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Where the traced run writes its spans (JSON lines); empty = nowhere.
    std::string spans_out;
    /// Self-test hook: "functional" flips one element of the functional
    /// check's output, "record" drops one request record before the
    /// serving checks. Either must show up as a failed operation.
    std::string corrupt;
};

/// Metric name -> value; units live in the metric tables of main.cc.
using Metrics = std::map<std::string, double>;

class Context {
  public:
    explicit Context(Options options);

    const Options opt;
    Tracer tracer;
    const mg::sim::DeviceSpec device;

    /// Per-layer counters of the traced run (summed over traced ops, set-up
    /// and checks; main.cc divides by the traced op count).
    Metrics layer;
    int traced_ops = 0;

    // ---- Operation accounting (feeds correct / attempted / failed) ----
    /// Records a failed check of the current operation (message to stderr).
    void check(bool ok, const std::string &what);
    /// Closes the current operation: counts it attempted, and failed when
    /// any check since the previous call failed. Returns whether it passed.
    bool finish_attempt();
    int attempted() const { return attempted_; }
    int failed() const { return failed_; }

  private:
    int attempted_ = 0;
    int failed_ = 0;
    bool current_failed_ = false;
};

/// A captured model plan: the runner and its cached layer graph + memplan.
struct Planned {
    std::unique_ptr<mg::TransformerRunner> runner;
    std::uint64_t pattern_fp = 0;  ///< Of the pattern the benchmark built.
    std::shared_ptr<const mg::LaunchGraph> graph;
    std::shared_ptr<const mg::MemPlan> memplan;
};

/// Builds the pattern, constructs the runner (slicing + engine metadata)
/// and captures its inference layer graph, each under its own span.
Planned plan_model(Context &ctx, const mg::ModelConfig &model,
                   mg::SliceMode mode, const mg::WorkloadSample &sample,
                   mg::index_t batch);

/// One simulated forward pass and the numbers read off it.
struct Forward {
    Planned plan;
    mg::sim::SimResult sim;
    double total_us = 0;
    double attention_us = 0;
    std::uint64_t peak_hbm_bytes = 0;  ///< Layer memplan peak x layers.
};

/// plan_model + replay of every layer into a fresh GpuSim + GpuSim::run.
Forward run_forward(Context &ctx, const mg::ModelConfig &model,
                    mg::SliceMode mode, const mg::WorkloadSample &sample);

/// Reads total / attention time and peak HBM off a finished forward.
void read_forward(Forward &fwd);

// ---- Output checks (run outside the timed op span) ----------------------

/// lint_graph hazard-free, check_graph clean, and a fresh plan_memory of
/// the graph validating and agreeing with the cached plan's peak.
void check_plan(Context &ctx, const Planned &plan, const std::string &what);

/// Finite positive total_us; end >= start >= ready for every kernel.
void check_sim(Context &ctx, const mg::sim::SimResult &sim,
               const std::string &what);

/// check_plan + check_sim + the runner planned the pattern we built.
void check_forward(Context &ctx, const Forward &fwd, const std::string &what);

/// Runs the functional AttentionEngine::run of a copy of `sample` cut to
/// at most 512 tokens under all three methods against
/// kernels::ref_attention, within the FP16 tolerance the tests use.
void check_functional(Context &ctx, const mg::ModelConfig &model,
                      const mg::WorkloadSample &sample);

/// Adds one simulation's work to the per-layer counters: kernels, thread
/// blocks, resident-TB concurrency and (when `carve` is set) the
/// per-phase device time and DRAM bytes carved with the profiler API.
void count_sim(Context &ctx, const mg::sim::SimResult &sim, bool carve);

// ---- Helpers -------------------------------------------------------------

/// Seed of input `index` of a run with seed `seed` (splitmix64 mix), so
/// every input is a pure function of (seed, index).
std::uint64_t input_seed(std::uint64_t seed, int index);

/// Median (mean of the middle pair for even sizes); 0 for an empty list.
double median(std::vector<double> values);

double now_s();

/// Mean |measured/paper - 1| of the two speedups against the paper's
/// Fig. 7 A100 values for the pattern family of `model` (QDS-Transformer
/// for kQds, Longformer otherwise; EXPERIMENTS.md).
double paper_error(const mg::ModelConfig &model, double vs_coarse,
                   double vs_fine);

// ---- Workloads -------------------------------------------------------------

/// Each runs the workload and returns its metrics: every end-to-end
/// metric when untraced, the traced-run extras when traced.
Metrics run_longformer_qa(Context &ctx);
Metrics run_serve_poisson(Context &ctx);
Metrics run_qds_methods(Context &ctx);

}  // namespace mgbench

#endif  // MULTIGRAIN_PERFBENCH_BENCH_H_
