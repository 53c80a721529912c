// Golden exactness pins for the gpusim engine: a 64-bit digest of every
// KernelStats field of a fixed matrix of simulations. The engine's host
// cost may change; what it computes may not. Any change to event order,
// tie-breaking, or floating-point evaluation order shows up here as a
// digest mismatch, even where a timing tolerance would hide it.
//
// A deliberate model change regenerates the table: run this binary, copy
// the "actual" digests the failures print, and say in the change log
// which simulated numbers moved and why.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/attention.h"
#include "formats/convert.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "gpusim/launch.h"
#include "kernels/blocked_baseline.h"
#include "kernels/chunked_baseline.h"
#include "patterns/presets.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

/// FNV-1a over raw bytes: stable across runs and platforms that share
/// IEEE-754 doubles and little-endian integers.
class Digest {
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ = (h_ ^ p[i]) * 0x100000001b3ull;
        }
    }
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }
    void i64(std::int64_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        i64(static_cast<std::int64_t>(s.size()));
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
digest(const sim::SimResult &r)
{
    Digest d;
    d.f64(r.total_us);
    d.i64(static_cast<std::int64_t>(r.kernels.size()));
    for (const sim::KernelStats &k : r.kernels) {
        d.str(k.name);
        d.i64(k.stream);
        d.i64(k.num_tbs);
        d.i64(k.occupancy_per_sm);
        d.f64(k.ready_us);
        d.f64(k.start_us);
        d.f64(k.end_us);
        d.f64(k.avg_concurrency);
        d.f64(k.work.tensor_flops);
        d.f64(k.work.cuda_flops);
        d.f64(k.work.dram_read_bytes);
        d.f64(k.work.dram_write_bytes);
        d.f64(k.work.l2_bytes);
        d.i64(static_cast<std::int64_t>(k.deps.size()));
        for (const int dep : k.deps) {
            d.i64(dep);
        }
    }
    return d.value();
}

sim::DeviceSpec
device(const std::string &name)
{
    return sim::device_spec_by_name(name);
}

ModelConfig
longformer_shaped()
{
    // The full 4096-token Longformer pattern and layer graph, two layers
    // deep: every per-layer kernel shape of the paper's forward, at a
    // twelfth of the host cost.
    ModelConfig m = ModelConfig::longformer_large();
    m.num_layers = 2;
    return m;
}

sim::SimResult
forward(const ModelConfig &model, SliceMode mode, const std::string &dev)
{
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, mode, sample, 1);
    return runner.simulate(device(dev)).sim;
}

/// A runner over one tiny sample (seed `seed`) at `batch`, forward or
/// training, on A100.
sim::SimResult
tiny_runner(std::uint64_t seed, index_t batch, bool training)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(seed);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, SliceMode::kMultigrain, sample,
                                   batch);
    return training ? runner.simulate_training(device("a100")).sim
                    : runner.simulate(device("a100")).sim;
}

/// A heterogeneous batch: two tiny samples, each with its own attention
/// metadata, whose phases co-schedule inside every layer.
sim::SimResult
heterogeneous_runner()
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(5);
    std::vector<WorkloadSample> samples;
    samples.push_back(sample_for_model(rng, model));
    samples.push_back(sample_for_model(rng, model));
    const TransformerRunner runner(model, SliceMode::kMultigrain, samples);
    return runner.simulate(device("a100")).sim;
}

/// 64 tokens of local + selected + global + random atoms: every
/// SliceMode gets coarse, fine and global parts to plan.
CompoundPattern
attention_pattern()
{
    CompoundPattern p;
    p.seq_len = 64;
    p.atoms.push_back(AtomicPattern::local(4));
    p.atoms.push_back(AtomicPattern::selected({1, 21}));
    p.atoms.push_back(AtomicPattern::global({1, 21}));
    p.atoms.push_back(AtomicPattern::random(3, 21));
    return p;
}

AttentionConfig
attention_config(bool multi_stream)
{
    AttentionConfig c;
    c.head_dim = 16;
    c.block = 16;
    c.num_heads = 2;
    c.multi_stream = multi_stream;
    return c;
}

/// One engine's captured forward or backward plan, replayed alone.
sim::SimResult
attention(SliceMode mode, bool multi_stream, bool backward)
{
    const AttentionEngine engine(attention_pattern(),
                                 attention_config(multi_stream), mode);
    const sim::DeviceSpec dev = device("a100");
    sim::GpuSim sim(dev);
    if (backward) {
        engine.backward_graph(dev)->replay_into(sim, "T00.attn.");
    } else {
        engine.forward_graphs(dev)->forward.replay_into(sim, "T00.attn.");
    }
    return sim.run();
}

/// Two engines with different metadata, their phase graphs interleaved
/// the way a heterogeneous batch co-schedules them: each phase of both
/// engines, then one join. Each engine keeps its own stream binding.
sim::SimResult
co_scheduled_engines()
{
    CompoundPattern other = attention_pattern();
    other.atoms.push_back(AtomicPattern::local(8));
    const AttentionEngine e1(attention_pattern(), attention_config(true),
                             SliceMode::kMultigrain);
    const AttentionEngine e2(other, attention_config(true),
                             SliceMode::kMultigrain);
    const sim::DeviceSpec dev = device("a100");
    const auto g1 = e1.forward_graphs(dev);
    const auto g2 = e2.forward_graphs(dev);
    sim::GpuSim sim(dev);
    std::vector<int> b1;
    std::vector<int> b2;
    using Graphs = AttentionEngine::AttentionGraphs;
    for (const LaunchGraph Graphs::*phase :
         {&Graphs::sddmm, &Graphs::softmax, &Graphs::spmm}) {
        ((*g1).*phase).replay_into(sim, b1, "attn.");
        ((*g2).*phase).replay_into(sim, b2, "attn.");
        sim.join_streams();
    }
    return sim.run();
}

/// A three-batch serving round, assembled the way the serving layer
/// dispatches one: bucketed runners replayed under B<j>. prefixes with
/// fresh stream bindings into one simulator.
sim::SimResult
serve_round()
{
    struct Slot {
        index_t bucket;
        int planned_batch;
    };
    const ModelConfig tiny = ModelConfig::tiny_test();
    sim::GpuSim sim(device("a100"));
    const Slot slots[] = {{64, 4}, {128, 2}, {64, 1}};
    for (std::size_t j = 0; j < 3; ++j) {
        const ModelConfig bucketed = bucketed_model(tiny, slots[j].bucket);
        const TransformerRunner runner(
            bucketed, SliceMode::kMultigrain,
            canonical_bucket_sample(bucketed, slots[j].bucket),
            slots[j].planned_batch);
        std::vector<int> binding;
        runner.plan_inference_into(sim, binding,
                                   "B" + std::to_string(j) + ".");
    }
    return sim.run();
}

/// Fig. 11's Triton-style blocked SDDMM/SpMM on its three coarse
/// patterns, plus the two chunked baselines, each kernel on its own
/// stream so they contend for the same SMs.
sim::SimResult
fig11_kernels()
{
    const sim::DeviceSpec dev = device("a100");
    sim::GpuSim sim(dev);
    for (const auto &[label, pattern] : fig11_patterns(1024, 2022)) {
        SliceOptions options;
        options.block = 64;
        options.mode = SliceMode::kCoarseOnly;
        const SlicePlan plan = slice_and_dice(pattern, options);
        const BcooLayout bcoo = bcoo_from_bsr(*plan.coarse);
        const int stream = sim.create_stream();
        sim.launch(stream, kernels::plan_triton_sddmm(dev, bcoo, 64, 4));
        sim.launch(stream, kernels::plan_triton_spmm(dev, *plan.coarse,
                                                     64, 4));
    }
    kernels::plan_sliding_chunk(sim, 1024, 64, 64, 4);
    kernels::plan_blockify(sim, 1024, 64, 64, 4);
    return sim.run();
}

sim::TbShape
shape(int threads)
{
    sim::TbShape s;
    s.threads = threads;
    s.smem_bytes = 0;
    s.regs_per_thread = 32;
    return s;
}

sim::KernelLaunch
kernel(const char *name, const sim::TbWork &work, index_t count,
       int threads = 128)
{
    sim::KernelLaunch k;
    k.name = name;
    k.shape = shape(threads);
    k.add_tb(work, count);
    return k;
}

sim::TbWork
work(double tensor, double cuda, double dram, double l2)
{
    sim::TbWork w;
    w.tensor_flops = tensor;
    w.cuda_flops = cuda;
    w.dram_read_bytes = dram;
    w.l2_bytes = l2;
    return w;
}

sim::SimResult
empty_kernel()
{
    sim::GpuSim sim(device("a100"));
    sim.launch(0, kernel("empty", {}, 0));
    sim.launch(0, kernel("after", work(1e6, 0, 1e5, 0), 216));
    return sim.run();
}

sim::SimResult
zero_work_blocks()
{
    sim::GpuSim sim(device("rtx3090"));
    sim.launch(0, kernel("zero", {}, 5000));
    sim.launch(0, kernel("some", work(0, 2e5, 3e4, 1e4), 700));
    return sim.run();
}

sim::SimResult
capped_lone_block()
{
    // One 64-thread block alone on the device: every component is bound
    // by its private latency-cap deadline, not by a shared clock.
    sim::GpuSim sim(device("a100"));
    sim.launch(0, kernel("lone", work(4e6, 1e6, 2e5, 5e4), 1, 64));
    sim.launch(0, kernel("lone.mem", work(0, 0, 8e5, 0), 1, 64));
    return sim.run();
}

sim::SimResult
joined_streams()
{
    sim::GpuSim sim(device("a100"));
    const int s1 = sim.create_stream();
    const int s2 = sim.create_stream();
    sim.launch(0, kernel("a", work(2e6, 1e5, 4e4, 0), 300));
    sim.launch(s1, kernel("b", work(0, 5e5, 2e5, 1e5), 150, 256));
    sim.launch(s2, kernel("c", work(1e7, 0, 1e4, 0), 20));
    sim.join_streams();
    sim.launch(s1, kernel("d", work(1e6, 1e6, 1e5, 1e5), 432));
    sim.launch(0, kernel("e", work(0, 0, 6e5, 0), 108));
    sim.join_streams();
    sim.launch(s2, kernel("f", work(3e5, 0, 0, 2e5), 64));
    return sim.run();
}

sim::SimResult
imbalanced_groups()
{
    // Heavy and light blocks in several groups of one kernel, co-running
    // with a second stream: the shape of a fine-grained row-split kernel.
    sim::GpuSim sim(device("a100"));
    sim::KernelLaunch k;
    k.name = "imbalanced";
    k.shape = shape(128);
    k.add_tb(work(0, 4e6, 6e5, 2e5), 17);
    k.add_tb(work(0, 1e5, 2e4, 1e4), 5000);
    k.add_tb(work(2e6, 0, 1e5, 0), 333);
    k.add_tb(work(0, 3e4, 4e3, 0), 12001);
    sim.launch(0, std::move(k));
    const int s1 = sim.create_stream();
    sim.launch(s1, kernel("other", work(5e6, 0, 2e5, 1e5), 900, 256));
    return sim.run();
}

struct GoldenCase {
    const char *name;
    std::function<sim::SimResult()> run;
    std::uint64_t expected;
};

std::vector<GoldenCase>
golden_cases()
{
    const ModelConfig tiny = ModelConfig::tiny_test();
    const ModelConfig lf = longformer_shaped();
    const auto fwd = [](ModelConfig m, SliceMode mode, const char *dev) {
        return [m, mode, dev] { return forward(m, mode, dev); };
    };
    const auto attn = [](SliceMode mode, bool multi_stream, bool backward) {
        return [mode, multi_stream, backward] {
            return attention(mode, multi_stream, backward);
        };
    };
    const auto runner = [](std::uint64_t seed, index_t batch,
                           bool training) {
        return [seed, batch, training] {
            return tiny_runner(seed, batch, training);
        };
    };
    constexpr SliceMode kMg = SliceMode::kMultigrain;
    constexpr SliceMode kCoarse = SliceMode::kCoarseOnly;
    constexpr SliceMode kFine = SliceMode::kFineOnly;
    constexpr SliceMode kDense = SliceMode::kDense;
    return {
        {"tiny_multigrain_a100",
         fwd(tiny, SliceMode::kMultigrain, "a100"), 0x36274cabf2492f07ull},
        {"tiny_coarse_a100",
         fwd(tiny, SliceMode::kCoarseOnly, "a100"), 0x09843c9b5a13c2e8ull},
        {"tiny_fine_a100",
         fwd(tiny, SliceMode::kFineOnly, "a100"), 0x60ae6e1e61fc44d7ull},
        {"tiny_multigrain_rtx3090",
         fwd(tiny, SliceMode::kMultigrain, "rtx3090"), 0x652b0a6349fb1ac4ull},
        {"tiny_coarse_rtx3090",
         fwd(tiny, SliceMode::kCoarseOnly, "rtx3090"), 0x18046442f8f7693dull},
        {"tiny_fine_rtx3090",
         fwd(tiny, SliceMode::kFineOnly, "rtx3090"), 0x45ff3c2941aa4040ull},
        {"longformer_multigrain_a100",
         fwd(lf, SliceMode::kMultigrain, "a100"), 0x5cb827b242d50bacull},
        {"longformer_coarse_a100",
         fwd(lf, SliceMode::kCoarseOnly, "a100"), 0xe2a5d94062227cefull},
        {"longformer_fine_a100",
         fwd(lf, SliceMode::kFineOnly, "a100"), 0xe0a83eabf82552ceull},
        {"longformer_multigrain_rtx3090",
         fwd(lf, SliceMode::kMultigrain, "rtx3090"), 0xf68789f08cb253ccull},
        {"longformer_coarse_rtx3090",
         fwd(lf, SliceMode::kCoarseOnly, "rtx3090"), 0xd6150951d17f00a7ull},
        {"longformer_fine_rtx3090",
         fwd(lf, SliceMode::kFineOnly, "rtx3090"), 0x9ad1fb3c27399f7cull},
        {"training_step", runner(2022, 2, true), 0xe711bd46a8263694ull},
        {"serve_round", serve_round, 0x456bb61fd8cfc147ull},
        {"fig11_kernels", fig11_kernels, 0xbb5ea17cb493af80ull},
        {"empty_kernel", empty_kernel, 0xe066606bf458c69dull},
        {"zero_work_blocks", zero_work_blocks, 0xd70998c0433fc854ull},
        {"capped_lone_block", capped_lone_block, 0xde52d71414826356ull},
        {"joined_streams", joined_streams, 0x669e6253b97f817full},
        {"imbalanced_groups", imbalanced_groups, 0x69f68b9180786b6dull},
        // Attention plans alone: every SliceMode, one stream per part
        // (ms) or one shared stream (ss), forward and backward.
        {"attn_multigrain_ms_fwd", attn(kMg, true, false),
         0x18b94b3cf42aada2ull},
        {"attn_multigrain_ms_bwd", attn(kMg, true, true),
         0x3eed821495a2ab84ull},
        {"attn_multigrain_ss_fwd", attn(kMg, false, false),
         0x0b44d2767922493cull},
        {"attn_multigrain_ss_bwd", attn(kMg, false, true),
         0xfb8415535b0fe901ull},
        {"attn_coarse_ms_fwd", attn(kCoarse, true, false),
         0x504147adbabc1d0dull},
        {"attn_coarse_ms_bwd", attn(kCoarse, true, true),
         0xbc19fdceb63cc37aull},
        {"attn_coarse_ss_fwd", attn(kCoarse, false, false),
         0x504147adbabc1d0dull},
        {"attn_coarse_ss_bwd", attn(kCoarse, false, true),
         0xbc19fdceb63cc37aull},
        {"attn_fine_ms_fwd", attn(kFine, true, false), 0xdae154c3dd3b2fb2ull},
        {"attn_fine_ms_bwd", attn(kFine, true, true), 0x6bc8cc0d3bc8382eull},
        {"attn_fine_ss_fwd", attn(kFine, false, false), 0xdae154c3dd3b2fb2ull},
        {"attn_fine_ss_bwd", attn(kFine, false, true), 0x6bc8cc0d3bc8382eull},
        {"attn_dense_ms_fwd", attn(kDense, true, false),
         0xbac8981c2fbb582dull},
        {"attn_dense_ms_bwd", attn(kDense, true, true), 0x26521c44a067eb7bull},
        {"attn_dense_ss_fwd", attn(kDense, false, false),
         0xbac8981c2fbb582dull},
        {"attn_dense_ss_bwd", attn(kDense, false, true),
         0x26521c44a067eb7bull},
        {"attn_co_scheduled", co_scheduled_engines, 0x47acd248bd483fd7ull},
        {"runner_heterogeneous", heterogeneous_runner, 0xac9ce7fe043026faull},
        {"runner_batch2_a100", runner(2022, 2, false), 0xaf612c9f00db31c4ull},
        {"runner_training_batch1", runner(7, 1, true), 0x48838baa7deafa38ull},
    };
}

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

class GpuSimGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GpuSimGoldenTest, DigestIsPinned)
{
    const GoldenCase &c = GetParam();
    const sim::SimResult result = c.run();
    ASSERT_FALSE(result.kernels.empty());
    const std::uint64_t actual = digest(result);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(actual));
    EXPECT_EQ(actual, c.expected) << c.name << ": actual digest " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Engine, GpuSimGoldenTest, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

// ---- Engine work counters -----------------------------------------------

TEST(GpuSimCountersTest, TinyForwardCountsArePinned)
{
    const sim::SimResult r =
        forward(ModelConfig::tiny_test(), SliceMode::kMultigrain, "a100");
    const sim::EngineCounters &c = r.counters;
    // Each layer is 10 quiescent segments (qkv, the three attention
    // phases, then the six dense kernels after attention). Layer 0
    // simulates 9 of them: ew.ln2 reuses ew.ln1's segment. Layer 1
    // reuses all 10.
    EXPECT_EQ(c.segments, 9u);
    EXPECT_EQ(c.segment_hits, 11u);
    EXPECT_EQ(c.units, 1299u);
    EXPECT_EQ(c.clock_events, 1309u);
    EXPECT_EQ(c.ready_events, 14u);
    EXPECT_EQ(c.activate_events, 1299u);
    EXPECT_EQ(c.deadline_events, 1299u);
    EXPECT_EQ(c.crossings, 4889u);
    EXPECT_EQ(c.repredictions, 0u);
    EXPECT_EQ(c.predictions, 5449u);
    EXPECT_EQ(c.peak_queue, 786u);
    EXPECT_EQ(c.events(), 3921u);

    // Structural invariants: every simulated kernel becomes ready once
    // (layer 0's 15 but ew.ln2), every unit activates once, and a unit
    // waits on at most one private deadline.
    EXPECT_EQ(c.ready_events, r.kernels.size() / 2 - 1);
    EXPECT_EQ(c.activate_events, c.units);
    EXPECT_LE(c.deadline_events, c.units);
    // Every popped clock event is live: it crosses at least one
    // threshold or re-predicts its own crossing.
    EXPECT_LE(c.clock_events, c.crossings + c.repredictions);
    EXPECT_LE(c.clock_events, c.predictions);
}

TEST(GpuSimCountersTest, OverwrittenPredictionsAreNeverPopped)
{
    // Two equal blocks per SM activate at the same instant. The second
    // activation replaces each CUDA clock's prediction, so each SM pops
    // exactly one clock event, which drains both blocks.
    sim::DeviceSpec dev = device("a100");
    dev.unit_saturation = 0;  // No private deadlines.
    const auto blocks = static_cast<index_t>(2 * dev.num_sms);
    sim::GpuSim sim(dev);
    sim.launch(0, kernel("pairs", work(0, 1e6, 0, 0), blocks));
    const sim::EngineCounters c = sim.run().counters;
    EXPECT_EQ(c.units, static_cast<std::uint64_t>(blocks));
    EXPECT_EQ(c.predictions, static_cast<std::uint64_t>(blocks));
    EXPECT_EQ(c.crossings, static_cast<std::uint64_t>(blocks));
    EXPECT_EQ(c.clock_events, static_cast<std::uint64_t>(dev.num_sms));
    EXPECT_EQ(c.deadline_events, 0u);
    EXPECT_EQ(c.repredictions, 0u);
}

}  // namespace
}  // namespace multigrain
