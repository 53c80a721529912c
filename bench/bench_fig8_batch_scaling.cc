// Figure 8: end-to-end speedup of Multigrain over Triton-style and
// Sputnik-style processing as the batch size grows, for Longformer-large
// and QDS-Transformer-base on A100 and RTX 3090.
//
// Paper shape to reproduce: batching improves Multigrain's margin (more
// thread blocks hide the coarse kernels' load imbalance and fill the SMs):
// up to 2.34x / 2.13x over Triton / Sputnik for Longformer and 1.82x /
// 1.17x for QDS on A100.

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "gpusim/device.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace {

using namespace multigrain;

const std::vector<index_t> kBatches = {1, 2, 4, 8};

struct Key {
    std::string device;
    std::string model;
    index_t batch;
    int mode;
    friend bool operator<(const Key &a, const Key &b)
    {
        return std::tie(a.device, a.model, a.batch, a.mode) <
               std::tie(b.device, b.model, b.batch, b.mode);
    }
};

std::map<Key, double> g_total_us;

void
run_all()
{
    for (const sim::DeviceSpec &device :
         {sim::DeviceSpec::a100(), sim::DeviceSpec::rtx3090()}) {
        // Batch 1 is Fig. 7's first sample: take it from Fig. 7's runner.
        bench::for_each_fig7_run(
            device, 1,
            [&](const ModelConfig &model, SliceMode mode,
                const TransformerRunner &, const EndToEndResult &r) {
                g_total_us[{device.name, model.name, 1,
                            static_cast<int>(mode)}] = r.total_us;
            });
        for (const ModelConfig &model :
             {ModelConfig::longformer_large(), ModelConfig::qds_base()}) {
            // The same input at the larger batches.
            Rng sample_rng(2022);
            const WorkloadSample sample =
                sample_for_model(sample_rng, model);
            for (const index_t batch : kBatches) {
                if (batch == 1) {
                    continue;
                }
                for (const SliceMode mode :
                     {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
                      SliceMode::kFineOnly}) {
                    const TransformerRunner runner(model, mode, sample,
                                                   batch);
                    g_total_us[{device.name, model.name, batch,
                                static_cast<int>(mode)}] =
                        runner.simulate(device).total_us;
                }
            }
        }
    }
}

void
print_table()
{
    bench::print_title(
        "Figure 8 — Multigrain end-to-end speedup vs batch size");
    std::printf("%-9s %-22s %6s | %12s | %12s\n", "device", "model",
                "batch", "vs Triton", "vs Sputnik");
    bench::print_rule(72);
    for (const char *device : {"A100", "RTX3090"}) {
        for (const char *model :
             {"Longformer-large", "QDS-Transformer-base"}) {
            for (const index_t batch : kBatches) {
                const double t = g_total_us.at(
                    {device, model, batch,
                     static_cast<int>(SliceMode::kCoarseOnly)});
                const double s = g_total_us.at(
                    {device, model, batch,
                     static_cast<int>(SliceMode::kFineOnly)});
                const double m = g_total_us.at(
                    {device, model, batch,
                     static_cast<int>(SliceMode::kMultigrain)});
                std::printf("%-9s %-22s %6lld | %12s | %12s\n", device,
                            model, static_cast<long long>(batch),
                            bench::fmt_speedup(t / m).c_str(),
                            bench::fmt_speedup(s / m).c_str());
            }
        }
    }
}

}  // namespace

int
main()
{
    prof::BenchRun run = bench::new_bench_run("fig8_batch_scaling");
    run_all();
    print_table();

    for (const auto &[key, us] : g_total_us) {
        run.add_row("fig8")
            .label("device", key.device)
            .label("model", key.model)
            .label("mode", to_string(static_cast<SliceMode>(key.mode)))
            .metric("batch", static_cast<double>(key.batch))
            .metric("total_us", us);
    }
    bench::write_bench_artifact(run);
    return 0;
}
