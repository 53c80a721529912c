// Figure 9: speedup of Multigrain over Sputnik (fine-only) and Triton
// (coarse-only) on the compound sparse GEMMs (SDDMM and SpMM) across five
// compound patterns — L+S, LB+R, RB+R, L+S+G, LB+R+G — at 1 batch, 4096
// sequence length, 4 heads, 64 head dim, 95 % row sparsity, on A100.
//
// Paper shape to reproduce: Multigrain wins everywhere; patterns with a
// global atom show the largest wins over Sputnik (load imbalance of dense
// rows, up to 5.81x SDDMM / 5.24x SpMM); RB+R shows the smallest wins
// (randomness-induced imbalance hits our row-mapped coarse kernel too).
//
// The rows are the mgperf "fig9" preset's on A100 (bench_util.h), so
// the artifact and the gated baseline share one definition.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "patterns/presets.h"

namespace {

using namespace multigrain;

void
print_table(const prof::BenchRun &run)
{
    bench::print_title(
        "Figure 9 — compound sparse GEMM speedup of Multigrain "
        "(A100, L=4096, 4 heads, d_h=64, 95% sparsity)");
    std::printf("%-8s | %-22s | %-22s\n", "pattern",
                "SDDMM vs Sputnik/Triton", "SpMM  vs Sputnik/Triton");
    bench::print_rule();
    // Preserve the paper's pattern order.
    const auto patterns = fig9_patterns(4096, 0.05, 2022);
    for (const auto &[label, pattern] : patterns) {
        const prof::BenchRow &mg =
            bench::fig9_row(run, label, SliceMode::kMultigrain);
        const prof::BenchRow &tr =
            bench::fig9_row(run, label, SliceMode::kCoarseOnly);
        const prof::BenchRow &sp =
            bench::fig9_row(run, label, SliceMode::kFineOnly);
        const auto ratio = [](const prof::BenchRow &base,
                              const prof::BenchRow &ours, const char *key) {
            return bench::fmt_speedup(bench::metric(base, key) /
                                      bench::metric(ours, key));
        };
        std::printf("%-8s | %9s / %-10s | %9s / %-10s\n", label.c_str(),
                    ratio(sp, mg, "sddmm_us").c_str(),
                    ratio(tr, mg, "sddmm_us").c_str(),
                    ratio(sp, mg, "spmm_us").c_str(),
                    ratio(tr, mg, "spmm_us").c_str());
    }
    bench::print_rule();
    std::printf("raw phase times (us):\n");
    std::printf("%-8s %-12s %10s %10s %10s\n", "pattern", "method", "sddmm",
                "softmax", "spmm");
    for (const auto &[label, pattern] : patterns) {
        for (const SliceMode mode :
             {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
              SliceMode::kFineOnly}) {
            const prof::BenchRow &t = bench::fig9_row(run, label, mode);
            std::printf("%-8s %-12s %10.1f %10.1f %10.1f\n", label.c_str(),
                        to_string(mode), bench::metric(t, "sddmm_us"),
                        bench::metric(t, "softmax_us"),
                        bench::metric(t, "spmm_us"));
        }
    }
}

}  // namespace

int
main()
{
    prof::BenchRun run =
        bench::run_bench_preset(*bench::find_bench_preset("fig9"), "a100");
    run.name = "fig9_compound_gemm";
    print_table(run);
    bench::write_bench_artifact(run);
    return 0;
}
