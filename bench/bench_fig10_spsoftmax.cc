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
#include <map>
#include <string>

#include "bench_util.h"
#include "core/attention.h"
#include "gpusim/device.h"
#include "patterns/presets.h"

namespace {

using namespace multigrain;

constexpr index_t kSeqLen = 4096;
constexpr double kDensity = 0.05;

AttentionConfig
config()
{
    AttentionConfig c;
    c.head_dim = 64;
    c.num_heads = 4;
    c.block = 64;
    return c;
}

double
softmax_us(const CompoundPattern &pattern, SliceMode mode)
{
    const AttentionEngine engine(pattern, config(), mode);
    return engine.simulate(sim::DeviceSpec::a100()).span(phase::kSoftmax);
}

}  // namespace

int
main()
{
    prof::BenchRun run = bench::new_bench_run("fig10_spsoftmax", "a100");
    std::map<std::string, std::map<int, double>> all;
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, 2022)) {
        for (const SliceMode mode :
             {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
              SliceMode::kFineOnly}) {
            const double us = softmax_us(pattern, mode);
            all[label][static_cast<int>(mode)] = us;
            run.add_row("fig10")
                .label("pattern", label)
                .label("mode", to_string(mode))
                .metric("softmax_us", us);
        }
    }

    bench::print_title(
        "Figure 10 — compound sparse softmax speedup of Multigrain "
        "(A100, L=4096, 4 heads, d_h=64, 95% sparsity)");
    std::printf("%-8s | %12s | %12s | %10s %10s %10s\n", "pattern",
                "vs Sputnik", "vs Triton", "MG (us)", "Sput (us)",
                "Trit (us)");
    bench::print_rule();
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, 2022)) {
        const double m =
            all.at(label).at(static_cast<int>(SliceMode::kMultigrain));
        const double t =
            all.at(label).at(static_cast<int>(SliceMode::kCoarseOnly));
        const double s =
            all.at(label).at(static_cast<int>(SliceMode::kFineOnly));
        std::printf("%-8s | %12s | %12s | %10.1f %10.1f %10.1f\n",
                    label.c_str(), bench::fmt_speedup(s / m).c_str(),
                    bench::fmt_speedup(t / m).c_str(), m, s, t);
    }
    bench::write_bench_artifact(run);
    return 0;
}
