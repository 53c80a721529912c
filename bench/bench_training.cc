// Extension — training steps (forward + backward). The paper evaluates
// inference only; its §1 motivation (training long sequences is memory-
// and compute-bound) is the natural next workload. Every sparse op of the
// forward reappears in the backward — the dP SDDMM, the fused softmax
// backward, and the dQ/dK/dV SpMMs (two of them over transposed
// metadata) — so the slice-and-dice advantage compounds.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "gpusim/device.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace {

using namespace multigrain;

void
run_model(prof::BenchRun &run, const ModelConfig &model, index_t batch)
{
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    std::printf("%-22s batch %lld\n", model.name.c_str(),
                static_cast<long long>(batch));
    double mg_step = 0, t_step = 0, s_step = 0;
    for (const SliceMode mode :
         {SliceMode::kCoarseOnly, SliceMode::kFineOnly,
          SliceMode::kMultigrain}) {
        const TransformerRunner runner(model, mode, sample, batch);
        const double fwd =
            runner.simulate(sim::DeviceSpec::a100()).total_us;
        const EndToEndResult step =
            runner.simulate_training(sim::DeviceSpec::a100());
        run.add_row("training")
            .label("model", model.name)
            .label("mode", to_string(mode))
            .metric("batch", static_cast<double>(batch))
            .metric("forward_us", fwd)
            .metric("step_us", step.total_us)
            .metric("attention_us", step.attention_us);
        std::printf("  %-12s fwd %9s ms   step %9s ms   attn %8s ms\n",
                    to_string(mode), bench::fmt_ms(fwd).c_str(),
                    bench::fmt_ms(step.total_us).c_str(),
                    bench::fmt_ms(step.attention_us).c_str());
        (mode == SliceMode::kMultigrain
             ? mg_step
             : mode == SliceMode::kCoarseOnly ? t_step : s_step) =
            step.total_us;
    }
    std::printf("  multigrain step speedup: %s vs Triton, %s vs Sputnik\n",
                bench::fmt_speedup(t_step / mg_step).c_str(),
                bench::fmt_speedup(s_step / mg_step).c_str());
}

}  // namespace

int
main()
{
    prof::BenchRun run = bench::new_bench_run("training", "a100");
    bench::print_title(
        "Extension — training step (forward + backward) on A100");
    run_model(run, ModelConfig::qds_base(), 4);
    run_model(run, ModelConfig::longformer_large(), 1);
    bench::write_bench_artifact(run);
    return 0;
}
