// Figure 7: end-to-end inference time and DRAM traffic of Longformer-large
// (HotpotQA-style inputs) and QDS-Transformer-base (MS-MARCO-style inputs)
// under Triton-style (coarse-only), Sputnik-style (fine-only), and
// Multigrain processing, on A100 and RTX 3090, batch 1.
//
// Paper shape to reproduce: Multigrain fastest everywhere with the largest
// DRAM-traffic reduction; on A100 the Triton baseline is the slowest; on
// RTX 3090 the tensor-core peak drops far more than the CUDA peak, so the
// Sputnik baseline overtakes Triton (the paper's §5.1 crossover) and
// Multigrain's margin over Sputnik narrows (QDS: 1.02x in the paper).
//
// The runs are the mgperf "fig7" preset's (bench_util.h), averaged over
// three dataset samples per device instead of the preset's one.

#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "bench_util.h"
#include "gpusim/device.h"
#include "transformer/runner.h"

namespace {

using namespace multigrain;

struct Key {
    std::string device;
    std::string model;
    int mode;
    friend bool operator<(const Key &a, const Key &b)
    {
        return std::tie(a.device, a.model, a.mode) <
               std::tie(b.device, b.model, b.mode);
    }
};

std::map<Key, EndToEndResult> g_results;

constexpr int kSamples = 3;  // Dataset inputs averaged per configuration.

void
run_all()
{
    for (const sim::DeviceSpec &device :
         {sim::DeviceSpec::a100(), sim::DeviceSpec::rtx3090()}) {
        bench::for_each_fig7_run(
            device, kSamples,
            [&device](const ModelConfig &model, SliceMode mode,
                      const TransformerRunner &, const EndToEndResult &r) {
                EndToEndResult &acc = g_results[{
                    device.name, model.name, static_cast<int>(mode)}];
                acc.total_us += r.total_us / kSamples;
                acc.attention_us += r.attention_us / kSamples;
                acc.dram_bytes += r.dram_bytes / kSamples;
                acc.attention_dram_bytes +=
                    r.attention_dram_bytes / kSamples;
            });
    }
}

void
print_table()
{
    bench::print_title(
        "Figure 7 — end-to-end inference time (ms) and DRAM traffic (GB), "
        "batch 1");
    std::printf("%-9s %-22s | %9s %9s %9s | %-17s | %6s %6s %6s\n",
                "device", "model", "Triton", "Sputnik", "Multigr.",
                "MG speedup (T / S)", "T GB", "S GB", "MG GB");
    bench::print_rule(110);
    for (const char *device : {"A100", "RTX3090"}) {
        for (const char *model :
             {"Longformer-large", "QDS-Transformer-base"}) {
            const auto &t = g_results.at(
                {device, model, static_cast<int>(SliceMode::kCoarseOnly)});
            const auto &s = g_results.at(
                {device, model, static_cast<int>(SliceMode::kFineOnly)});
            const auto &m = g_results.at(
                {device, model, static_cast<int>(SliceMode::kMultigrain)});
            std::printf(
                "%-9s %-22s | %9s %9s %9s |   %5s / %-7s | %6s %6s %6s\n",
                device, model, bench::fmt_ms(t.total_us).c_str(),
                bench::fmt_ms(s.total_us).c_str(),
                bench::fmt_ms(m.total_us).c_str(),
                bench::fmt_speedup(t.total_us / m.total_us).c_str(),
                bench::fmt_speedup(s.total_us / m.total_us).c_str(),
                bench::fmt_gb(t.dram_bytes).c_str(),
                bench::fmt_gb(s.dram_bytes).c_str(),
                bench::fmt_gb(m.dram_bytes).c_str());
        }
    }
    bench::print_rule(110);
    std::printf("attention-phase wall time (ms) per configuration:\n");
    for (const auto &[key, result] : g_results) {
        std::printf("  %-8s %-22s %-12s attn %8.3f of %8.3f ms "
                    "(attn DRAM %.3f GB)\n",
                    key.device.c_str(), key.model.c_str(),
                    to_string(static_cast<SliceMode>(key.mode)),
                    result.attention_us / 1000.0, result.total_us / 1000.0,
                    result.attention_dram_bytes / 1e9);
    }
}

}  // namespace

int
main()
{
    prof::BenchRun run = bench::new_bench_run("fig7_end_to_end");
    run_all();
    print_table();
    for (const auto &[key, result] : g_results) {
        run.add_row("fig7")
            .label("device", key.device)
            .label("model", key.model)
            .label("mode", to_string(static_cast<SliceMode>(key.mode)))
            .metric("total_us", result.total_us)
            .metric("attention_us", result.attention_us)
            .metric("dram_bytes", result.dram_bytes)
            .metric("attention_dram_bytes", result.attention_dram_bytes);
    }
    bench::append_plan_cache_row(run);
    bench::write_bench_artifact(run);
    return 0;
}
