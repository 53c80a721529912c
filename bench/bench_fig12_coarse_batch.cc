// Figure 12: the Fig. 11 comparison swept over batch size. Batching
// multiplies the thread-block count, which hides our blocked
// row-splitting scheme's load imbalance on blocked-random patterns and
// improves SM utilization everywhere.
//
// Paper shape to reproduce: our coarse SDDMM overtakes Triton on
// blocked-random at batch 4-8 (up to 1.32x) and the SpMM margins grow
// with batch (up to 1.43x / 2.02x / 1.49x on local / blocked-local /
// blocked-random).

#include <cstdio>

#include "bench_util.h"
#include "gpusim/device.h"
#include "patterns/presets.h"

int
main()
{
    using namespace multigrain;
    constexpr index_t kSeqLen = 4096;
    constexpr index_t kHeads = 4;
    prof::BenchRun run = bench::new_bench_run("fig12_coarse_batch", "a100");
    bench::print_title(
        "Figure 12 — our coarse kernel speedup over Triton vs batch size "
        "(A100, 4 heads, d_h=64)");
    std::printf("%-15s %6s | %12s | %12s\n", "pattern", "batch",
                "SDDMM", "SpMM");
    bench::print_rule(60);
    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, 2022)) {
        for (const index_t batch : {1, 2, 4, 8}) {
            const bench::CoarseKernelTimes t = bench::coarse_vs_triton(
                sim::DeviceSpec::a100(), pattern, batch * kHeads);
            const double sddmm = t.triton_sddmm_us / t.ours_sddmm_us;
            const double spmm = t.triton_spmm_us / t.ours_spmm_us;
            run.add_row("fig12")
                .label("pattern", label)
                .metric("batch", static_cast<double>(batch))
                .metric("sddmm_vs_triton", sddmm)
                .metric("spmm_vs_triton", spmm);
            std::printf("%-15s %6lld | %12s | %12s\n", label.c_str(),
                        static_cast<long long>(batch),
                        bench::fmt_speedup(sddmm).c_str(),
                        bench::fmt_speedup(spmm).c_str());
        }
    }
    bench::write_bench_artifact(run);
    return 0;
}
