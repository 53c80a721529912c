// Beyond the paper's two evaluated models: the other compound-sparse
// transformers §2.3 cites as state of the art — BigBird-ETC (blocked local
// + random blocks + global tokens) and Poolingformer (two-level window).
// The paper motivates its synthetic Fig. 9 sweep with "workloads [that]
// will be applied to future models"; this bench closes the loop by running
// those models end to end under all three processing methods.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "gpusim/device.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace {

using namespace multigrain;

struct Row {
    double triton_us = 0;
    double sputnik_us = 0;
    double multigrain_us = 0;
};

Row
run_model(const ModelConfig &model, const sim::DeviceSpec &device)
{
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    Row row;
    row.triton_us =
        TransformerRunner(model, SliceMode::kCoarseOnly, sample, 1)
            .simulate(device)
            .total_us;
    row.sputnik_us =
        TransformerRunner(model, SliceMode::kFineOnly, sample, 1)
            .simulate(device)
            .total_us;
    row.multigrain_us =
        TransformerRunner(model, SliceMode::kMultigrain, sample, 1)
            .simulate(device)
            .total_us;
    return row;
}

}  // namespace

int
main()
{
    prof::BenchRun run = bench::new_bench_run("extra_models");
    bench::print_title(
        "Extension — other compound-sparse models (§2.3), end-to-end, "
        "batch 1");
    std::printf("%-9s %-22s | %9s %9s %9s | %-18s\n", "device", "model",
                "Triton", "Sputnik", "Multigr.", "MG speedup (T / S)");
    bench::print_rule(96);
    for (const sim::DeviceSpec &device :
         {sim::DeviceSpec::a100(), sim::DeviceSpec::rtx3090()}) {
        for (const ModelConfig &model : {ModelConfig::bigbird_etc_base(),
                                         ModelConfig::poolingformer_base()}) {
            const Row row = run_model(model, device);
            run.add_row("extra_models")
                .label("device", device.name)
                .label("model", model.name)
                .metric("triton_us", row.triton_us)
                .metric("sputnik_us", row.sputnik_us)
                .metric("multigrain_us", row.multigrain_us);
            std::printf("%-9s %-22s | %9s %9s %9s |   %5s / %-7s\n",
                        device.name.c_str(), model.name.c_str(),
                        bench::fmt_ms(row.triton_us).c_str(),
                        bench::fmt_ms(row.sputnik_us).c_str(),
                        bench::fmt_ms(row.multigrain_us).c_str(),
                        bench::fmt_speedup(row.triton_us /
                                           row.multigrain_us)
                            .c_str(),
                        bench::fmt_speedup(row.sputnik_us /
                                           row.multigrain_us)
                            .c_str());
        }
    }
    bench::write_bench_artifact(run);
    return 0;
}
