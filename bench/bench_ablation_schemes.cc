// Ablation benches for the design choices DESIGN.md calls out:
//
//  1. Fine SDDMM grid mapping — the paper's row-splitting rewrite vs the
//     official Sputnik 1D tiling (§4 footnote 5 reports 3.3x-6.2x).
//  2. Multi-stream — Multigrain with the coarse/fine/special parts on one
//     stream vs three streams (§3.1).
//  3. Global routing — global rows processed by dense CUTLASS/TensorRT
//     kernels vs left in the fine kernels (§3.1/§5.2.1's load-imbalance
//     discussion).
//  4. Block size — the coarse granularity trade-off behind the paper's
//     choice of 64: small blocks shrink the stored/valid padding of the
//     band edges but add metadata and per-block work; large blocks feed
//     the tensor cores better but store more invalid positions.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/attention.h"
#include "gpusim/device.h"
#include "kernels/fine.h"
#include "patterns/presets.h"

namespace {

using namespace multigrain;

constexpr index_t kSeqLen = 4096;
constexpr double kDensity = 0.05;

AttentionConfig
base_config()
{
    AttentionConfig c;
    c.head_dim = 64;
    c.num_heads = 4;
    c.block = 64;
    return c;
}

double
total_us(const CompoundPattern &pattern, const AttentionConfig &config,
         SliceMode mode)
{
    return AttentionEngine(pattern, config, mode)
        .simulate(sim::DeviceSpec::a100())
        .total_us;
}

void
ablation_sddmm_scheme(prof::BenchRun &run)
{
    bench::print_title(
        "Ablation 1 — fine SDDMM: row splitting vs official 1D tiling "
        "(fine-only processing, A100)");
    std::printf("%-8s | %12s %12s | %8s\n", "pattern", "rowsplit us",
                "1d-tiling us", "speedup");
    bench::print_rule(64);
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, 2022)) {
        AttentionConfig rs = base_config();
        rs.fine_scheme = kernels::FineSddmmScheme::kRowSplit;
        AttentionConfig td = base_config();
        td.fine_scheme = kernels::FineSddmmScheme::k1dTiling;
        const double t_rs =
            AttentionEngine(pattern, rs, SliceMode::kFineOnly)
                .simulate(sim::DeviceSpec::a100())
                .span(phase::kSddmm);
        const double t_td =
            AttentionEngine(pattern, td, SliceMode::kFineOnly)
                .simulate(sim::DeviceSpec::a100())
                .span(phase::kSddmm);
        std::printf("%-8s | %12.1f %12.1f | %8s\n", label.c_str(), t_rs,
                    t_td, bench::fmt_speedup(t_td / t_rs).c_str());
        run.add_row("ablation.fine_sddmm_scheme")
            .label("pattern", label)
            .metric("rowsplit_us", t_rs)
            .metric("tiling1d_us", t_td);
    }
}

void
ablation_multistream(prof::BenchRun &run)
{
    bench::print_title(
        "Ablation 2 — Multigrain with and without multi-stream (A100)");
    std::printf("%-8s | %12s %12s | %8s\n", "pattern", "multi us",
                "single us", "speedup");
    bench::print_rule(64);
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, 2022)) {
        AttentionConfig multi = base_config();
        AttentionConfig single = base_config();
        single.multi_stream = false;
        const double t_multi =
            total_us(pattern, multi, SliceMode::kMultigrain);
        const double t_single =
            total_us(pattern, single, SliceMode::kMultigrain);
        std::printf("%-8s | %12.1f %12.1f | %8s\n", label.c_str(), t_multi,
                    t_single,
                    bench::fmt_speedup(t_single / t_multi).c_str());
        run.add_row("ablation.multistream")
            .label("pattern", label)
            .metric("multi_us", t_multi)
            .metric("single_us", t_single);
    }
}

void
ablation_global_routing(prof::BenchRun &run)
{
    bench::print_title(
        "Ablation 3 — global rows on dense kernels vs in the fine kernels "
        "(Multigrain, A100)");
    std::printf("%-8s | %12s %12s | %8s\n", "pattern", "dense us",
                "fine us", "speedup");
    bench::print_rule(64);
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, 2022)) {
        bool has_global = false;
        for (const auto &atom : pattern.atoms) {
            has_global |= atom.is_special();
        }
        if (!has_global) {
            continue;
        }
        AttentionConfig dense = base_config();
        AttentionConfig fine = base_config();
        fine.route_global_to_dense = false;
        const double t_dense =
            total_us(pattern, dense, SliceMode::kMultigrain);
        const double t_fine =
            total_us(pattern, fine, SliceMode::kMultigrain);
        std::printf("%-8s | %12.1f %12.1f | %8s\n", label.c_str(), t_dense,
                    t_fine, bench::fmt_speedup(t_fine / t_dense).c_str());
        run.add_row("ablation.global_routing")
            .label("pattern", label)
            .metric("dense_us", t_dense)
            .metric("fine_us", t_fine);
    }
}

void
ablation_block_size(prof::BenchRun &run)
{
    bench::print_title(
        "Ablation 4 — Multigrain coarse block size (A100, L+S pattern)");
    std::printf("%6s | %12s | %14s | %16s\n", "block", "attn us",
                "stored elems", "valid fraction");
    bench::print_rule(64);
    const CompoundPattern pattern =
        preset_local_selected(kSeqLen, kDensity, 2022);
    for (const index_t block : {16, 32, 64, 128}) {
        AttentionConfig c = base_config();
        c.block = block;
        const AttentionEngine engine(pattern, c, SliceMode::kMultigrain);
        const double t =
            engine.simulate(sim::DeviceSpec::a100()).total_us;
        const SlicePlan &plan = engine.plan();
        std::printf("%6lld | %12.1f | %14lld | %15.1f%%\n",
                    static_cast<long long>(block), t,
                    static_cast<long long>(plan.coarse_stored_elements()),
                    100.0 *
                        static_cast<double>(plan.coarse_valid_elements()) /
                        static_cast<double>(plan.coarse_stored_elements()));
        run.add_row("ablation.block_size")
            .metric("block", static_cast<double>(block))
            .metric("attn_us", t)
            .metric("stored_elements",
                    static_cast<double>(plan.coarse_stored_elements()))
            .metric("valid_elements",
                    static_cast<double>(plan.coarse_valid_elements()));
    }
}

}  // namespace

int
main()
{
    prof::BenchRun run = bench::new_bench_run("ablation_schemes", "a100");
    ablation_sddmm_scheme(run);
    ablation_multistream(run);
    ablation_global_routing(run);
    ablation_block_size(run);
    bench::write_bench_artifact(run);
    return 0;
}
