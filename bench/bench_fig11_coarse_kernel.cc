// Figure 11: our coarse-grained kernels against the Triton-style blocked
// kernels on pure coarse patterns (local, blocked local, blocked random)
// at batch 1, 4 heads, d_h = 64, on A100.
//
// Paper shape to reproduce: we win modestly on local / blocked-local
// (SDDMM 1.26x / 1.24x, SpMM 1.15x / 1.44x) thanks to SMEM row reuse and
// higher occupancy, but *lose* (~25 % slower SDDMM) on blocked-random at
// batch 1: our blocked row-splitting assigns whole block rows to single
// thread blocks and the per-row block counts vary, while Triton's
// per-block mapping has no imbalance. Fig. 12 shows batching recovers it.
//
// The rows are the mgperf "fig11" preset's on A100 (bench_util.h), so
// the artifact and the gated baseline share one definition.

#include <cstdio>

#include "bench_util.h"

int
main()
{
    using namespace multigrain;
    prof::BenchRun run =
        bench::run_bench_preset(*bench::find_bench_preset("fig11"), "a100");
    run.name = "fig11_coarse_kernel";

    bench::print_title(
        "Figure 11 — our coarse kernel vs Triton-style blocked kernel "
        "(A100, batch 1, 4 heads, d_h=64)");
    std::printf("%-15s | %-24s | %-24s\n", "pattern",
                "SDDMM ours/Triton (us)", "SpMM ours/Triton (us)");
    bench::print_rule();
    for (const prof::BenchRow &row : run.rows) {
        if (row.series != "fig11") {
            continue;
        }
        const double ours_sddmm = bench::metric(row, "ours_sddmm_us");
        const double triton_sddmm = bench::metric(row, "triton_sddmm_us");
        const double ours_spmm = bench::metric(row, "ours_spmm_us");
        const double triton_spmm = bench::metric(row, "triton_spmm_us");
        std::printf("%-15s | %7.1f / %7.1f  %5s | %7.1f / %7.1f  %5s\n",
                    row.labels.front().second.c_str(), ours_sddmm,
                    triton_sddmm,
                    bench::fmt_speedup(triton_sddmm / ours_sddmm).c_str(),
                    ours_spmm, triton_spmm,
                    bench::fmt_speedup(triton_spmm / ours_spmm).c_str());
    }
    bench::write_bench_artifact(run);
    return 0;
}
