// Quiescent segments (gpusim/engine.h): GpuSim::run splits the launches
// where the device must drain, simulates each segment from t = 0 on an
// idle device, reuses equal segments, and shifts each by its release
// time. One property per test.

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "gpusim/launch.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

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

sim::KernelLaunch
kernel(const char *name, const sim::TbWork &w, index_t count,
       int threads = 128)
{
    sim::KernelLaunch k;
    k.name = name;
    k.shape.threads = threads;
    k.shape.smem_bytes = 0;
    k.shape.regs_per_thread = 32;
    k.add_tb(w, count);
    return k;
}

/// One quiescent segment of co-scheduled kernels on two streams, closed
/// by a join; its tails depend on how blocks land on SMs.
void
launch_block(sim::GpuSim &sim, int s1, const std::string &tag)
{
    sim.launch(0, kernel((tag + "a").c_str(), work(2e6, 1e5, 4e4, 0), 300));
    sim.launch(s1, kernel((tag + "b").c_str(), work(0, 5e5, 2e5, 1e5), 150,
                          256));
    sim.launch(s1, kernel((tag + "c").c_str(), work(1e6, 1e6, 1e5, 1e5),
                          432));
    sim.launch(0, kernel((tag + "d").c_str(), work(0, 0, 6e5, 0), 108, 64));
    sim.join_streams();
}

/// Exact quiescent cuts from the output's dependency lists: kernel k is
/// a cut iff every kernel before it is an ancestor of every kernel from
/// it on (ancestor bitsets; kernel 0 counts as the first segment).
int
count_segments(const sim::SimResult &r)
{
    const std::size_t n = r.kernels.size();
    std::vector<std::vector<bool>> anc(n, std::vector<bool>(n, false));
    for (std::size_t k = 0; k < n; ++k) {
        for (const int d : r.kernels[k].deps) {
            const auto dep = static_cast<std::size_t>(d);
            anc[k][dep] = true;
            for (std::size_t i = 0; i < dep; ++i) {
                if (anc[dep][i]) {
                    anc[k][i] = true;
                }
            }
        }
    }
    int segments = n > 0 ? 1 : 0;
    for (std::size_t k = 1; k < n; ++k) {
        bool cut = true;
        for (std::size_t j = k; j < n && cut; ++j) {
            for (std::size_t i = 0; i < k && cut; ++i) {
                cut = anc[j][i];
            }
        }
        segments += cut ? 1 : 0;
    }
    return segments;
}

// ---- Every layer of a forward repeats layer 0 ----------------------------

/// Kernels grouped by layer tag ("L03.", "F00.", "B11."): for each sweep
/// letter, the kernels of each layer in launch order.
std::map<char, std::map<int, std::vector<const sim::KernelStats *>>>
by_layer(const sim::SimResult &r)
{
    std::map<char, std::map<int, std::vector<const sim::KernelStats *>>> out;
    for (const sim::KernelStats &k : r.kernels) {
        const char sweep = k.name.at(0);
        const int layer = std::stoi(k.name.substr(1, 2));
        out[sweep][layer].push_back(&k);
    }
    return out;
}

void
expect_layers_repeat(const sim::SimResult &r, const std::string &what)
{
    for (const auto &[sweep, layers] : by_layer(r)) {
        ASSERT_GE(layers.size(), 2u) << what;
        const auto &first = layers.begin()->second;
        for (const auto &[layer, kernels] : layers) {
            ASSERT_EQ(kernels.size(), first.size()) << what;
            for (std::size_t i = 0; i < kernels.size(); ++i) {
                const sim::KernelStats &a = *first[i];
                const sim::KernelStats &b = *kernels[i];
                ASSERT_EQ(a.name.substr(3), b.name.substr(3)) << what;
                // Bit for bit: EXPECT_EQ on doubles is exact.
                EXPECT_EQ(b.local_end_us - b.local_start_us,
                          a.local_end_us - a.local_start_us)
                    << what << " " << b.name;
                EXPECT_EQ(b.local_start_us - b.local_ready_us,
                          a.local_start_us - a.local_ready_us)
                    << what << " " << b.name;
                EXPECT_EQ(b.avg_concurrency, a.avg_concurrency)
                    << what << " " << b.name;
            }
        }
    }
}

TEST(GpuSimSegmentTest, EveryLayerRepeatsLayerZero)
{
    ModelConfig inference = ModelConfig::longformer_large();
    inference.num_layers = 3;
    ModelConfig training = ModelConfig::tiny_test();
    training.num_layers = 3;
    for (const char *dev : {"a100", "rtx3090"}) {
        const sim::DeviceSpec device = sim::device_spec_by_name(dev);
        for (const SliceMode mode :
             {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
              SliceMode::kFineOnly}) {
            const std::string what =
                std::string(dev) + " " + to_string(mode);
            {
                Rng rng(2022);
                const TransformerRunner runner(
                    inference, mode, sample_for_model(rng, inference), 1);
                expect_layers_repeat(runner.simulate(device).sim,
                                     what + " inference");
            }
            {
                Rng rng(2022);
                const TransformerRunner runner(
                    training, mode, sample_for_model(rng, training), 2);
                expect_layers_repeat(runner.simulate_training(device).sim,
                                     what + " training");
            }
        }
    }
}

// ---- Time shift ----------------------------------------------------------

TEST(GpuSimSegmentTest, PrependedJoinedSegmentLeavesLaterKernelsUnchanged)
{
    const sim::DeviceSpec dev = sim::device_spec_by_name("rtx3090");
    sim::GpuSim alone_sim(dev);
    launch_block(alone_sim, alone_sim.create_stream(), "x.");
    const sim::SimResult alone = alone_sim.run();

    sim::GpuSim sim(dev);
    const int s1 = sim.create_stream();
    sim.launch(s1, kernel("pre.0", work(3e5, 0, 0, 2e5), 64));
    sim.launch(0, kernel("pre.1", work(0, 4e6, 6e5, 2e5), 1777));
    sim.join_streams();
    launch_block(sim, s1, "x.");
    const sim::SimResult r = sim.run();

    ASSERT_EQ(r.kernels.size(), alone.kernels.size() + 2);
    EXPECT_EQ(alone.counters.segments, 1u);
    EXPECT_EQ(r.counters.segments, 2u);
    const double release =
        std::max(r.kernels[0].end_us, r.kernels[1].end_us);
    for (std::size_t i = 0; i < alone.kernels.size(); ++i) {
        const sim::KernelStats &a = alone.kernels[i];
        const sim::KernelStats &b = r.kernels[i + 2];
        EXPECT_EQ(b.local_ready_us, a.ready_us) << b.name;
        EXPECT_EQ(b.local_start_us, a.start_us) << b.name;
        EXPECT_EQ(b.local_end_us, a.end_us) << b.name;
        EXPECT_EQ(b.avg_concurrency, a.avg_concurrency) << b.name;
        EXPECT_EQ(b.start_us, release + a.start_us) << b.name;
        EXPECT_EQ(b.end_us, release + a.end_us) << b.name;
    }
}

// ---- Reuse ---------------------------------------------------------------

TEST(GpuSimSegmentTest, ReusedSegmentEqualsFreshSimulationShifted)
{
    const sim::DeviceSpec dev = sim::device_spec_by_name("a100");
    sim::GpuSim alone_sim(dev);
    launch_block(alone_sim, alone_sim.create_stream(), "r.");
    const sim::SimResult alone = alone_sim.run();
    const std::size_t n = alone.kernels.size();

    sim::GpuSim sim(dev);
    const int s1 = sim.create_stream();
    for (const char *tag : {"r0.", "r1.", "r2."}) {
        launch_block(sim, s1, tag);
    }
    const sim::SimResult r = sim.run();

    // The last two copies reuse the first copy's simulation.
    EXPECT_EQ(r.counters.segments, 1u);
    EXPECT_EQ(r.counters.segment_hits, 2u);
    EXPECT_EQ(r.counters.units, alone.counters.units);
    ASSERT_EQ(r.kernels.size(), 3 * n);
    double release = 0;
    for (std::size_t copy = 0; copy < 3; ++copy) {
        for (std::size_t i = 0; i < n; ++i) {
            const sim::KernelStats &a = alone.kernels[i];
            const sim::KernelStats &b = r.kernels[copy * n + i];
            EXPECT_EQ(b.ready_us, release + a.ready_us) << b.name;
            EXPECT_EQ(b.start_us, release + a.start_us) << b.name;
            EXPECT_EQ(b.end_us, release + a.end_us) << b.name;
            EXPECT_EQ(b.avg_concurrency, a.avg_concurrency) << b.name;
        }
        for (std::size_t i = 0; i < n; ++i) {
            release = std::max(release, r.kernels[copy * n + i].end_us);
        }
    }
    EXPECT_EQ(r.total_us, release);
}

TEST(GpuSimSegmentTest, DependenciesArePartOfTheSegmentKey)
{
    // Two segments with the same launches that differ only in which
    // kernel "c" waits for: each simulates, and neither takes the other's
    // timeline.
    const sim::DeviceSpec dev = sim::device_spec_by_name("a100");
    const auto block = [](sim::GpuSim &sim, int s1, int c_stream) {
        sim.launch(0, kernel("a", work(2e6, 1e5, 4e4, 0), 300));
        sim.launch(s1, kernel("b", work(0, 5e5, 2e5, 1e5), 150, 256));
        sim.launch(c_stream == 0 ? 0 : s1,
                   kernel("c", work(1e6, 1e6, 1e5, 1e5), 432));
        sim.join_streams();
    };
    sim::GpuSim alone_sim(dev);
    block(alone_sim, alone_sim.create_stream(), 1);
    const sim::SimResult alone = alone_sim.run();

    sim::GpuSim sim(dev);
    const int s1 = sim.create_stream();
    block(sim, s1, 0);  // c after a
    block(sim, s1, 1);  // c after b
    const sim::SimResult r = sim.run();

    EXPECT_EQ(r.counters.segments, 2u);
    EXPECT_EQ(r.counters.segment_hits, 0u);
    ASSERT_EQ(r.kernels.size(), 2 * alone.kernels.size());
    for (std::size_t i = 0; i < alone.kernels.size(); ++i) {
        const sim::KernelStats &a = alone.kernels[i];
        const sim::KernelStats &b = r.kernels[alone.kernels.size() + i];
        EXPECT_EQ(b.local_start_us, a.start_us) << b.name;
        EXPECT_EQ(b.local_end_us, a.end_us) << b.name;
    }
}

// ---- No false cuts -------------------------------------------------------

TEST(GpuSimSegmentTest, PartialDependencyIsNotACut)
{
    // "late" waits for "short" on stream 1 but not for "long" on stream
    // 0, so the device need not drain before it: one segment, and "late"
    // runs while "long" still does.
    const sim::DeviceSpec dev = sim::device_spec_by_name("a100");
    sim::GpuSim sim(dev);
    const int s1 = sim.create_stream();
    sim.launch(0, kernel("long", work(0, 4e6, 6e5, 2e5), 400));
    sim.launch(s1, kernel("short", work(0, 1e5, 2e4, 0), 10));
    sim.launch(s1, kernel("late", work(0, 1e5, 2e4, 0), 10));
    const sim::SimResult r = sim.run();

    EXPECT_EQ(r.counters.segments, 1u);
    EXPECT_EQ(r.counters.segment_hits, 0u);
    const sim::KernelStats &lng = *r.find("long");
    const sim::KernelStats &late = *r.find("late");
    EXPECT_LT(late.start_us, lng.end_us);
    // One segment: the local timeline is the absolute one.
    for (const sim::KernelStats &k : r.kernels) {
        EXPECT_EQ(k.local_start_us, k.start_us) << k.name;
        EXPECT_EQ(k.local_end_us, k.end_us) << k.name;
    }
}

TEST(GpuSimSegmentTest, CutsMatchAncestorSets)
{
    // The engine's O(kernels + edges) cut rule agrees with the definition
    // evaluated by brute force, on graphs with joins, partial joins and
    // several co-scheduled batches.
    const sim::DeviceSpec dev = sim::device_spec_by_name("a100");
    const ModelConfig tiny = ModelConfig::tiny_test();
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, tiny);
    std::vector<std::pair<std::string, sim::SimResult>> runs;
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly}) {
        const TransformerRunner runner(tiny, mode, sample, 2);
        runs.emplace_back(to_string(mode), runner.simulate(dev).sim);
        runs.emplace_back(std::string(to_string(mode)) + " training",
                          runner.simulate_training(dev).sim);
    }
    {
        // Two batches co-scheduled on their own streams.
        sim::GpuSim sim(dev);
        const TransformerRunner runner(tiny, SliceMode::kMultigrain, sample,
                                       1);
        std::vector<int> b0, b1;
        runner.plan_inference_into(sim, b0, "B0.");
        runner.plan_inference_into(sim, b1, "B1.");
        runs.emplace_back("two batches", sim.run());
    }
    for (const auto &[what, r] : runs) {
        EXPECT_EQ(static_cast<int>(r.counters.segments +
                                   r.counters.segment_hits),
                  count_segments(r))
            << what;
    }
}

}  // namespace
}  // namespace multigrain
