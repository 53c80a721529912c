// Workload characterization (the IISWC angle): roofline classification
// and energy for the attention kernels of each processing method on the
// Fig. 9 L+S+G pattern, plus an end-to-end energy comparison. The
// expected structure: Multigrain's coarse kernels sit near the tensor
// roofline, its compound softmax near the DRAM roofline, the Sputnik
// baseline's kernels near the CUDA/L2 rooflines, and the Triton baseline
// burns the most energy (all that stored-block traffic is charged per
// byte).

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/attention.h"
#include "gpusim/device.h"
#include "gpusim/report.h"
#include "patterns/presets.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace {

using namespace multigrain;

AttentionConfig
config()
{
    AttentionConfig c;
    c.head_dim = 64;
    c.num_heads = 4;
    return c;
}

void
characterize_attention(prof::BenchRun &run)
{
    const CompoundPattern p =
        preset_local_selected_global(4096, 0.05, 2022);
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly}) {
        bench::print_title(std::string("Attention kernels, ") +
                           to_string(mode) + " (A100, L+S+G)");
        const AttentionEngine engine(p, config(), mode);
        const sim::SimResult result =
            engine.simulate(sim::DeviceSpec::a100());
        const sim::WorkloadReport report =
            sim::characterize(result, sim::DeviceSpec::a100());
        sim::print_report(report, std::cout, 12);
        run.add_row("characterization.attention")
            .label("mode", to_string(mode))
            .metric("total_us", result.total_us)
            .metric("dram_bytes", result.work.dram_bytes())
            .metric("total_j", report.total_j())
            .metric("avg_watts", report.average_watts());
    }
}

void
end_to_end_energy(prof::BenchRun &run)
{
    bench::print_title(
        "End-to-end energy per inference (A100, batch 1)");
    std::printf("%-22s | %12s %12s %12s\n", "model", "Triton J",
                "Sputnik J", "Multigrain J");
    bench::print_rule(70);
    for (const ModelConfig &model :
         {ModelConfig::longformer_large(), ModelConfig::qds_base()}) {
        Rng rng(2022);
        const WorkloadSample sample = sample_for_model(rng, model);
        double joules[3] = {0, 0, 0};
        for (const SliceMode mode :
             {SliceMode::kCoarseOnly, SliceMode::kFineOnly,
              SliceMode::kMultigrain}) {
            const TransformerRunner runner(model, mode, sample, 1);
            const EndToEndResult r =
                runner.simulate(sim::DeviceSpec::a100());
            const double j =
                sim::characterize(r.sim, sim::DeviceSpec::a100()).total_j();
            joules[static_cast<int>(mode) == 1   ? 0
                   : static_cast<int>(mode) == 2 ? 1
                                                 : 2] = j;
            run.add_row("characterization.energy")
                .label("model", model.name)
                .label("mode", to_string(mode))
                .metric("total_j", j);
        }
        std::printf("%-22s | %12.3f %12.3f %12.3f\n", model.name.c_str(),
                    joules[0], joules[1], joules[2]);
    }
}

}  // namespace

int
main()
{
    prof::BenchRun run = bench::new_bench_run("characterization", "a100");
    characterize_attention(run);
    end_to_end_energy(run);
    bench::write_bench_artifact(run);
    return 0;
}
