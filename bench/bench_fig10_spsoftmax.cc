// Figure 10: speedup of the compound sparse softmax over the Sputnik-style
// (fine-only) and Triton-style (blocked) softmax on A100 across the five
// compound patterns of Fig. 9.
//
// Paper shape to reproduce: the blocked baseline is slower by large
// factors (it sweeps every stored element of blockified fine parts and
// runs scaling/masking unfused — 7.09x-12.63x without a global pattern);
// the fine baseline loses moderately (per-element index requests vs block
// metadata, 1.26x-1.31x); global patterns widen the fine baseline's gap to
// 2.20x-2.82x (dense rows routed to the dense softmax instead of stalling
// one row block).

#include <cstdio>

#include "bench_util.h"
#include "patterns/presets.h"

using namespace multigrain;

int
main()
{
    // The softmax spans are the fig9 preset's: its engines run all three
    // phases, so Fig. 10 only reads their softmax column.
    const prof::BenchRun fig9 =
        bench::run_bench_preset(*bench::find_bench_preset("fig9"), "a100");
    const auto softmax_us = [&fig9](const std::string &pattern,
                                    SliceMode mode) {
        return bench::metric(bench::fig9_row(fig9, pattern, mode),
                             "softmax_us");
    };

    prof::BenchRun run = bench::new_bench_run("fig10_spsoftmax", "a100");
    const auto patterns = fig9_patterns(4096, 0.05, 2022);
    for (const auto &[label, pattern] : patterns) {
        for (const SliceMode mode :
             {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
              SliceMode::kFineOnly}) {
            run.add_row("fig10")
                .label("pattern", label)
                .label("mode", to_string(mode))
                .metric("softmax_us", softmax_us(label, mode));
        }
    }

    bench::print_title(
        "Figure 10 — compound sparse softmax speedup of Multigrain "
        "(A100, L=4096, 4 heads, d_h=64, 95% sparsity)");
    std::printf("%-8s | %12s | %12s | %10s %10s %10s\n", "pattern",
                "vs Sputnik", "vs Triton", "MG (us)", "Sput (us)",
                "Trit (us)");
    bench::print_rule();
    for (const auto &[label, pattern] : patterns) {
        const double m = softmax_us(label, SliceMode::kMultigrain);
        const double t = softmax_us(label, SliceMode::kCoarseOnly);
        const double s = softmax_us(label, SliceMode::kFineOnly);
        std::printf("%-8s | %12s | %12s | %10.1f %10.1f %10.1f\n",
                    label.c_str(), bench::fmt_speedup(s / m).c_str(),
                    bench::fmt_speedup(t / m).c_str(), m, s, t);
    }
    bench::write_bench_artifact(run);
    return 0;
}
