// §1 motivation: dense attention's compute and memory grow with L², while
// compound sparse attention grows ~linearly. This bench sweeps the
// sequence length for a Longformer-style pattern and compares Multigrain
// against a dense-attention baseline (CUTLASS-style QKᵀ GEMM + dense
// softmax + PV GEMM) and against the two sparse baselines — showing where
// sparsity starts paying and how the gap widens.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/attention.h"
#include "gpusim/device.h"
#include "kernels/dense.h"
#include "patterns/presets.h"

namespace {

using namespace multigrain;

constexpr index_t kHeadDim = 64;
constexpr index_t kHeads = 4;

AttentionConfig
config()
{
    AttentionConfig c;
    c.head_dim = kHeadDim;
    c.num_heads = kHeads;
    c.block = 64;
    return c;
}

CompoundPattern
longformer_style(index_t seq)
{
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(256));
    p.atoms.push_back(
        AtomicPattern::selected(burst_tokens(seq, 40, 4, 11)));
    p.atoms.push_back(
        AtomicPattern::global(burst_tokens(seq, 40, 4, 11)));
    return p;
}

/// Full dense attention for one head-batch via the engine's kDense mode.
double
dense_attention_us(index_t seq)
{
    return AttentionEngine(longformer_style(seq), config(),
                           SliceMode::kDense)
        .simulate(sim::DeviceSpec::a100())
        .total_us;
}

double
sparse_attention_us(index_t seq, SliceMode mode)
{
    return AttentionEngine(longformer_style(seq), config(), mode)
        .simulate(sim::DeviceSpec::a100())
        .total_us;
}

}  // namespace

int
main()
{
    prof::BenchRun run = bench::new_bench_run("seq_scaling", "a100");
    const std::vector<index_t> lengths = {1024, 2048, 4096, 8192, 16384};

    bench::print_title(
        "Sequence-length scaling — dense O(L^2) vs compound sparse "
        "(A100, Longformer-style pattern, 4 heads)");
    std::printf("%8s | %10s | %10s %10s %10s | %12s %12s\n", "L",
                "dense us", "Triton us", "Sputnik us", "MG us",
                "MG vs dense", "mem dense/MG");
    bench::print_rule(96);
    for (const index_t seq : lengths) {
        const double dense = dense_attention_us(seq);
        const double triton =
            sparse_attention_us(seq, SliceMode::kCoarseOnly);
        const double sputnik =
            sparse_attention_us(seq, SliceMode::kFineOnly);
        const double mg = sparse_attention_us(seq, SliceMode::kMultigrain);
        const double mem_dense =
            AttentionEngine(longformer_style(seq), config(),
                            SliceMode::kDense)
                .attention_memory_bytes();
        const double mem_mg =
            AttentionEngine(longformer_style(seq), config(),
                            SliceMode::kMultigrain)
                .attention_memory_bytes();
        std::printf(
            "%8lld | %10.1f | %10.1f %10.1f %10.1f | %12s %12s\n",
            static_cast<long long>(seq), dense, triton, sputnik, mg,
            bench::fmt_speedup(dense / mg).c_str(),
            bench::fmt_speedup(mem_dense / mem_mg).c_str());
        run.add_row("seq_scaling")
            .metric("seq_len", static_cast<double>(seq))
            .metric("dense_us", dense)
            .metric("triton_us", triton)
            .metric("sputnik_us", sputnik)
            .metric("multigrain_us", mg)
            .metric("dense_memory_bytes", mem_dense)
            .metric("multigrain_memory_bytes", mem_mg);
    }
    std::printf(
        "\n(dense time should ~4x per doubling; Multigrain ~2x, so the\n"
        " advantage compounds with L — the paper's §1 motivation)\n");
    bench::write_bench_artifact(run);
    return 0;
}
