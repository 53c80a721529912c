// LaunchGraph capture and replay tests: the dependency edges capture
// records for stream order and join barriers, name prefixes and stream
// maps under append(), and the logical-to-real stream binding replay
// builds. Every expected edge is written out by hand. Whole attention
// and runner plans are pinned bit for bit by tests/gpusim_golden_test.cc.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/launch_graph.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"

namespace multigrain {
namespace {

sim::KernelLaunch
toy_launch(const std::string &name, double flops)
{
    sim::KernelLaunch launch;
    launch.name = name;
    sim::TbWork work;
    work.tensor_flops = flops;
    work.dram_read_bytes = 1024;
    launch.add_tb(work, 4);
    return launch;
}

// ---------------------------------------------------------------------------
// Capture semantics.

TEST(LaunchGraphTest, CapturesStreamOrderAndJoinEdges)
{
    LaunchGraph graph;
    graph.launch(0, toy_launch("a", 1e6));
    const int s1 = graph.create_stream();
    EXPECT_EQ(s1, 1);
    graph.launch(s1, toy_launch("b", 1e6));
    graph.join_streams();
    graph.launch(0, toy_launch("c", 1e6));
    graph.launch(0, toy_launch("d", 1e6));

    ASSERT_EQ(graph.size(), 4u);
    EXPECT_EQ(graph.num_streams(), 2);
    EXPECT_TRUE(graph.nodes()[0].deps.empty());
    EXPECT_TRUE(graph.nodes()[1].deps.empty());
    // c waits on the join set {a, b}; d only on c (stream order).
    EXPECT_EQ(graph.nodes()[2].deps, (std::vector<int>{0, 1}));
    EXPECT_EQ(graph.nodes()[3].deps, (std::vector<int>{2}));
    // Op stream: a, b, JOIN, c, d.
    EXPECT_EQ(graph.ops(),
              (std::vector<int>{0, 1, LaunchGraph::kJoin, 2, 3}));
    graph.validate();
    EXPECT_EQ(graph.total_work().tensor_flops, 4 * 4e6);
}

TEST(LaunchGraphTest, AppendPrefixesNamesAndMapsStreams)
{
    LaunchGraph inner;
    const int s1 = inner.create_stream();
    inner.launch(0, toy_launch("x", 1e6));
    inner.launch(s1, toy_launch("y", 1e6));
    inner.join_streams();

    LaunchGraph outer;
    outer.launch(0, toy_launch("pre", 1e6));
    outer.append(inner, "g1.");
    outer.append(inner, "g2.");
    outer.validate();

    ASSERT_EQ(outer.size(), 5u);
    EXPECT_EQ(outer.nodes()[1].launch.name, "g1.x");
    EXPECT_EQ(outer.nodes()[2].launch.name, "g1.y");
    EXPECT_EQ(outer.nodes()[3].launch.name, "g2.x");
    // Null stream map: inner stream 0 -> outer stream 0, inner stream 1
    // gets a fresh outer stream per append.
    EXPECT_EQ(outer.nodes()[1].stream, 0);
    EXPECT_EQ(outer.nodes()[2].stream, 1);
    EXPECT_EQ(outer.nodes()[4].stream, 2);
    // g1.x serializes after "pre" on stream 0 (context edge recomputed).
    EXPECT_EQ(outer.nodes()[1].deps, (std::vector<int>{0}));
    // g2.x waits on g1's join set.
    EXPECT_EQ(outer.nodes()[3].deps, (std::vector<int>{1, 2}));
}

TEST(LaunchGraphTest, AppendWithExplicitStreamMap)
{
    LaunchGraph inner;
    const int s1 = inner.create_stream();
    inner.launch(s1, toy_launch("k", 1e6));

    LaunchGraph outer;
    const int a = outer.create_stream();
    const int b = outer.create_stream();
    const std::vector<int> map = {0, b};
    outer.append(inner, "", &map);
    EXPECT_EQ(outer.nodes()[0].stream, b);
    EXPECT_NE(outer.nodes()[0].stream, a);

    const std::vector<int> short_map = {0};
    EXPECT_THROW(outer.append(inner, "", &short_map), Error);
}

TEST(LaunchGraphTest, ReplayAfterExistingWorkSerializesOnStreamZero)
{
    LaunchGraph graph;
    graph.launch(0, toy_launch("g", 1e6));

    sim::GpuSim sim(sim::DeviceSpec::a100());
    sim.launch(0, toy_launch("before", 1e6));
    graph.replay_into(sim, "step.");
    const sim::SimResult result = sim.run();
    ASSERT_EQ(result.kernels.size(), 2u);
    EXPECT_EQ(result.kernels[1].name, "step.g");
    // The replayed kernel lands on real stream 0 behind the existing one.
    EXPECT_EQ(result.kernels[1].stream, 0);
    EXPECT_EQ(result.kernels[1].deps, (std::vector<int>{0}));
}

TEST(LaunchGraphTest, BindingReuseKeepsStreamsStableAcrossReplays)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(s1, toy_launch("k", 1e6));
    graph.join_streams();

    sim::GpuSim sim(sim::DeviceSpec::a100());
    std::vector<int> binding;
    graph.replay_into(sim, binding, "r0.");
    const std::vector<int> first = binding;
    graph.replay_into(sim, binding, "r1.");
    EXPECT_EQ(binding, first);

    const sim::SimResult result = sim.run();
    ASSERT_EQ(result.kernels.size(), 2u);
    EXPECT_EQ(result.kernels[0].stream, result.kernels[1].stream);
}

}  // namespace
}  // namespace multigrain
