// mgcheck abstract-interpreter tests. The load-bearing pair of
// properties, mirroring lint_test.cc:
//
//  * Sensitivity: seeding a definedness defect into an otherwise-correct
//    plan — erasing an init write via the test hook, shrinking a
//    SizedBuffer annotation, shifting an arena offset onto a live
//    slot-mate — is detected, naming the corrupted buffer with a witness
//    chain.
//  * Specificity: the plans the engines and the runner actually ship
//    check clean (errors AND warnings) together with their memory plans.
//
// Plus unit coverage of the definedness lattice over hand-built graphs
// (one test per finding kind and per suppression flag) and the
// capture-time enforcement that keeps an ill-defined plan out of the
// PlanCache.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan_units.h"

#include "common/error.h"
#include "common/rng.h"
#include "core/attention.h"
#include "core/check.h"
#include "core/launch_graph.h"
#include "core/lint.h"
#include "core/memplan.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

sim::KernelLaunch
toy_launch(const std::string &name)
{
    sim::KernelLaunch launch;
    launch.name = name;
    sim::TbWork work;
    work.cuda_flops = 1024;
    work.dram_read_bytes = 1024;
    launch.add_tb(work, 4);
    return launch;
}

/// Pins MULTIGRAIN_CHECK for one scope so the tests behave identically
/// in release (default off) and debug (default on) builds.
struct ScopedCheckEnv {
    explicit ScopedCheckEnv(const char *value)
    {
        if (value == nullptr) {
            unsetenv("MULTIGRAIN_CHECK");
        } else {
            setenv("MULTIGRAIN_CHECK", value, 1);
        }
    }
    ~ScopedCheckEnv() { unsetenv("MULTIGRAIN_CHECK"); }
};

/// The single finding of `report` (copied out, so temporaries are fine
/// to pass), failing the test when the count is not exactly one.
CheckFinding
only_finding(const CheckReport &report)
{
    EXPECT_EQ(report.findings.size(), 1u) << report.summary();
    return report.findings.empty() ? CheckFinding{}
                                   : report.findings.front();
}

LaunchGraph
tiny_forward_graph(const sim::DeviceSpec &device)
{
    const ModelConfig model = ModelConfig::tiny_test();
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, SliceMode::kMultigrain, sample,
                                   /*batch=*/1);
    // Copy out of the cache: the tests below mutate the graph.
    return runner.attention().forward_graphs(device)->forward;
}

// ---------------------------------------------------------------------------
// use-before-def: the read edge of the lattice.

TEST(CheckDefinedness, UndefinedPlanLocalReadIsUseBeforeDef)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.r"), {"%t"}, {}));
    const CheckReport report = check_graph(graph);
    const CheckFinding f = only_finding(report);
    EXPECT_EQ(f.kind, CheckKind::kUseBeforeDef);
    EXPECT_EQ(f.severity, CheckSeverity::kError);
    EXPECT_EQ(f.buffer, "%t");
    EXPECT_EQ(f.node_a, 0);
    ASSERT_FALSE(f.witness_a.empty());
    EXPECT_EQ(f.witness_a.back(), 0);
}

TEST(CheckDefinedness, DeclaredInputIsDefined)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.r"),
                                  {{"%t", 64, sim::kBufInput}}, {}));
    EXPECT_TRUE(check_graph(graph).clean());
}

TEST(CheckDefinedness, OrderedWriteDefines)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w"), {}, {"%t"}));
    graph.launch(0, sim::annotate(toy_launch("gemm.r"), {"%t"}, {}));
    // Stream order carries the def to the read; the read (last use)
    // then drains the store, so the whole graph is clean.
    EXPECT_TRUE(check_graph(graph).clean());
}

TEST(CheckDefinedness, UnorderedWriteDoesNotDefine)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("gemm.r"), {"%t"}, {}));
    graph.launch(s1, sim::annotate(toy_launch("gemm.w"), {},
                                   {{"%t", 64, sim::kBufOutput}}));
    // A write that merely exists somewhere is not a definition: it must
    // happen-before the read under every legal schedule.
    const CheckReport report = check_graph(graph);
    EXPECT_EQ(only_finding(report).kind, CheckKind::kUseBeforeDef);
}

TEST(CheckDefinedness, SameNodeWriteDoesNotDefineOwnRead)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("softmax.inplace"), {"%t"},
                                  {{"%t", 64, sim::kBufOutput}}));
    // An in-place kernel reads the *old* contents — its own write is
    // not a definition for its own read.
    const CheckReport report = check_graph(graph);
    EXPECT_EQ(only_finding(report).kind, CheckKind::kUseBeforeDef);
}

TEST(CheckDefinedness, SharedReadsAreExemptPlanLocalAreNot)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.r"), {"q", "%t"}, {}));
    // "q" (unprefixed) is defined by the embedding interface convention;
    // only the plan-local "%t" is flagged.
    const CheckReport report = check_graph(graph);
    EXPECT_EQ(only_finding(report).buffer, "%t");
}

// ---------------------------------------------------------------------------
// uninit-accum: the RMW edge of the lattice.

TEST(CheckAccum, AccumWithoutInitIsError)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("spmm.acc"), {}, {},
                                  {{"o", 64, sim::kBufOutput}}));
    const CheckFinding f = only_finding(check_graph(graph));
    EXPECT_EQ(f.kind, CheckKind::kUninitAccum);
    EXPECT_EQ(f.severity, CheckSeverity::kError);
    EXPECT_EQ(f.buffer, "o");
}

TEST(CheckAccum, ZeroInitDeclarationSuppresses)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(
                        toy_launch("spmm.acc"), {}, {},
                        {{"o", 64, sim::kBufZeroInit | sim::kBufOutput}}));
    EXPECT_TRUE(check_graph(graph).clean());
}

TEST(CheckAccum, OrderedWriteInitializesAndIsConsumed)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("memset.o"), {}, {"o"}));
    graph.launch(0, sim::annotate(toy_launch("spmm.acc"), {}, {},
                                  {{"o", 64, sim::kBufOutput}}));
    // The write initializes the accumulator AND the accumulator drains
    // the write (a RMW reads it) — neither side is flagged.
    EXPECT_TRUE(check_graph(graph).clean());
}

TEST(CheckAccum, AccumDoesNotConsumeAccum)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("spmm.a"), {}, {},
                                  {{"%o", 64, sim::kBufZeroInit}}));
    graph.launch(s1, sim::annotate(toy_launch("spmm.b"), {}, {},
                                   {{"%o", 64, sim::kBufZeroInit}}));
    // Two commuting partial accumulations whose sum nothing reads and
    // that is not declared an output: a leak, reported once.
    const CheckFinding f = only_finding(check_graph(graph));
    EXPECT_EQ(f.kind, CheckKind::kLeakedTemp);
    EXPECT_EQ(f.severity, CheckSeverity::kWarning);
}

// ---------------------------------------------------------------------------
// dead-store / leaked-temp: the consume edge of the lattice.

TEST(CheckLiveness, UnreadSharedStoreIsDeadStore)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w"), {}, {"t"}));
    const CheckFinding f = only_finding(check_graph(graph));
    EXPECT_EQ(f.kind, CheckKind::kDeadStore);
    EXPECT_EQ(f.severity, CheckSeverity::kWarning);
    EXPECT_EQ(f.buffer, "t");
}

TEST(CheckLiveness, UnreadPlanLocalStoreIsLeakedTemp)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w"), {}, {"%t"}));
    EXPECT_EQ(only_finding(check_graph(graph)).kind,
              CheckKind::kLeakedTemp);
}

TEST(CheckLiveness, OutputDeclarationSuppresses)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w"), {},
                                  {{"t", 64, sim::kBufOutput}}));
    EXPECT_TRUE(check_graph(graph).clean());
}

TEST(CheckLiveness, OneFindingPerBuffer)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w1"), {}, {"t"}));
    graph.launch(0, sim::annotate(toy_launch("gemm.w2"), {}, {"t"}));
    // Both stores are dead, but the report stays one-finding-per-buffer
    // (the earliest offender) so a single forgotten output declaration
    // does not bury the rest of the report.
    EXPECT_EQ(check_graph(graph).findings.size(), 1u);
}

TEST(CheckLiveness, OptionDisablesLivenessLints)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w"), {}, {"t"}));
    CheckOptions options;
    options.liveness_lints = false;
    EXPECT_TRUE(check_graph(graph, options).clean());
}

// ---------------------------------------------------------------------------
// size-consistency: annotated SizedBuffer bytes vs modeled traffic.

TEST(CheckSize, InBandAnnotationIsCleanAndTracked)
{
    LaunchGraph graph;
    sim::KernelLaunch launch = toy_launch("gemm.w");
    const std::uint64_t modeled =
        static_cast<std::uint64_t>(launch.total_work().mem_bytes());
    ASSERT_GT(modeled, 0u);
    graph.launch(0, sim::annotate(std::move(launch), {},
                                  {{"t", modeled, sim::kBufOutput}}));
    const CheckReport report = check_graph(graph);
    EXPECT_TRUE(report.clean());
    EXPECT_DOUBLE_EQ(report.min_size_ratio, 1.0);
    EXPECT_DOUBLE_EQ(report.max_size_ratio, 1.0);
}

TEST(CheckSize, ShrunkAnnotationIsErrorNamingLargestBuffer)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w"),
                                  {{"small", 1, sim::kBufInput}},
                                  {{"big", 2, sim::kBufOutput}}));
    // 3 annotated bytes against 4 KiB modeled: far below the band.
    const CheckFinding f = only_finding(check_graph(graph));
    EXPECT_EQ(f.kind, CheckKind::kSizeMismatch);
    EXPECT_EQ(f.severity, CheckSeverity::kError);
    EXPECT_EQ(f.buffer, "big");
    EXPECT_EQ(f.node_a, 0);
}

TEST(CheckSize, OverAnnotationIsError)
{
    LaunchGraph graph;
    sim::KernelLaunch launch = toy_launch("gemm.w");
    const std::uint64_t modeled =
        static_cast<std::uint64_t>(launch.total_work().mem_bytes());
    graph.launch(0, sim::annotate(std::move(launch), {},
                                  {{"t", modeled * 32, sim::kBufOutput}}));
    EXPECT_EQ(only_finding(check_graph(graph)).kind,
              CheckKind::kSizeMismatch);
}

TEST(CheckSize, OptionDisablesSizeCheck)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w"),
                                  {{"small", 1, sim::kBufInput}},
                                  {{"big", 2, sim::kBufOutput}}));
    CheckOptions options;
    options.size_check = false;
    EXPECT_TRUE(check_graph(graph, options).clean());
}

TEST(CheckSize, UnannotatedKernelIsSkipped)
{
    LaunchGraph graph;
    graph.launch(0, toy_launch("gemm.bare"));
    const CheckReport report = check_graph(graph);
    EXPECT_TRUE(report.clean());
    EXPECT_DOUBLE_EQ(report.max_size_ratio, 0.0);
}

// ---------------------------------------------------------------------------
// Arena-aliasing soundness proof against a MemPlan.

/// Two sequential temps on one stream: %a's slot is legally reused by
/// %b after %a's last read.
LaunchGraph
sequential_temps_graph()
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.wa"), {}, {{"%a", 64}}));
    graph.launch(0, sim::annotate(toy_launch("gemm.ra"), {{"%a", 64}}, {}));
    graph.launch(0, sim::annotate(toy_launch("gemm.wb"), {}, {{"%b", 64}}));
    graph.launch(0, sim::annotate(toy_launch("gemm.rb"), {{"%b", 64}}, {}));
    return graph;
}

/// Two temps on parallel streams: they interfere, so the planner must
/// give them disjoint arena intervals.
LaunchGraph
parallel_temps_graph()
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    graph.launch(0, sim::annotate(toy_launch("gemm.wa"), {}, {{"%a", 64}}));
    graph.launch(s1, sim::annotate(toy_launch("gemm.wb"), {},
                                   {{"%b", 64}}));
    graph.launch(0, sim::annotate(toy_launch("gemm.ra"), {{"%a", 64}}, {}));
    graph.launch(s1, sim::annotate(toy_launch("gemm.rb"), {{"%b", 64}},
                                   {}));
    return graph;
}

TEST(CheckArena, LegitimateSlotReuseProvesSound)
{
    const LaunchGraph graph = sequential_temps_graph();
    const MemPlan plan = plan_memory(graph);
    CheckOptions options;
    options.memplan = &plan;
    EXPECT_TRUE(check_graph(graph, options).clean());
}

TEST(CheckArena, ShiftedOffsetOntoLiveSlotMateIsError)
{
    const LaunchGraph graph = parallel_temps_graph();
    MemPlan plan = plan_memory(graph);
    // Find the two pooled temps and force them onto the same bytes —
    // the planner bug the proof exists to catch.
    MemPlanBuffer *a = nullptr;
    MemPlanBuffer *b = nullptr;
    for (MemPlanBuffer &buf : plan.buffers) {
        if (buf.cls != BufferClass::kPooled) {
            continue;
        }
        (a == nullptr ? a : b) = &buf;
    }
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(a->offset + a->bytes <= b->offset ||
                b->offset + b->bytes <= a->offset)
        << "planner gave interfering temps overlapping slots";
    b->offset = a->offset;

    CheckOptions options;
    options.memplan = &plan;
    const CheckFinding f = only_finding(check_graph(graph, options));
    EXPECT_EQ(f.kind, CheckKind::kArenaAlias);
    EXPECT_EQ(f.severity, CheckSeverity::kError);
    EXPECT_EQ(f.buffer, b->name);
    // The witness pair exhibits the unordered accesses sharing bytes.
    EXPECT_GE(f.node_a, 0);
    EXPECT_GE(f.node_b, 0);
    ASSERT_FALSE(f.witness_a.empty());
    ASSERT_FALSE(f.witness_b.empty());
    EXPECT_EQ(f.witness_a.back(), f.node_a);
    EXPECT_EQ(f.witness_b.back(), f.node_b);
}

TEST(CheckArena, ForeignMemPlanIsRejected)
{
    const LaunchGraph graph = sequential_temps_graph();
    MemPlan plan = plan_memory(graph);
    plan.num_nodes += 1;
    CheckOptions options;
    options.memplan = &plan;
    EXPECT_EQ(only_finding(check_graph(graph, options)).kind,
              CheckKind::kArenaAlias);
}

// ---------------------------------------------------------------------------
// Sensitivity on a real plan: the drop-init corruption mgcheck seeds.

TEST(CheckSensitivity, ErasedInitWriteOnRealPlanIsCaught)
{
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    LaunchGraph graph = tiny_forward_graph(device);
    {
        const MemPlan plan = plan_memory(graph);
        CheckOptions options;
        options.memplan = &plan;
        ASSERT_TRUE(check_graph(graph, options).clean());
    }

    // Erase one init: find a plan-local buffer with a writer ordered
    // before a reader and no inbound declaration, and strip that write
    // from the writer's annotation via the test hook.
    const HappensBefore hb(graph.nodes());
    std::string corrupted;
    for (std::size_t w = 0; w < graph.nodes().size() && corrupted.empty();
         ++w) {
        const sim::KernelLaunch &wl = graph.nodes()[w].launch;
        for (std::size_t i = 0; i < wl.writes.size(); ++i) {
            const sim::BufferId id = wl.writes[i];
            const unsigned flags =
                i < wl.write_flags.size() ? wl.write_flags[i] : 0;
            if (!sim::buffer_is_plan_local(id) ||
                (flags & (sim::kBufInput | sim::kBufZeroInit)) != 0) {
                continue;
            }
            bool read_later = false;
            for (std::size_t r = w + 1; r < graph.nodes().size(); ++r) {
                const sim::KernelLaunch &rl = graph.nodes()[r].launch;
                for (const sim::BufferId rid : rl.reads) {
                    if (rid == id && hb.ordered(static_cast<int>(w),
                                                static_cast<int>(r))) {
                        read_later = true;
                    }
                }
            }
            if (!read_later) {
                continue;
            }
            sim::KernelLaunch &mutated =
                graph.launch_for_test(static_cast<int>(w));
            mutated.writes.erase(mutated.writes.begin() +
                                 static_cast<std::ptrdiff_t>(i));
            if (i < mutated.write_bytes.size()) {
                mutated.write_bytes.erase(
                    mutated.write_bytes.begin() +
                    static_cast<std::ptrdiff_t>(i));
            }
            if (i < mutated.write_flags.size()) {
                mutated.write_flags.erase(
                    mutated.write_flags.begin() +
                    static_cast<std::ptrdiff_t>(i));
            }
            corrupted = sim::buffer_name(id);
            break;
        }
    }
    ASSERT_FALSE(corrupted.empty())
        << "no candidate init write in the tiny forward plan";

    const CheckReport report = check_graph(graph);
    bool caught = false;
    for (const CheckFinding &f : report.findings) {
        if (f.severity == CheckSeverity::kError && f.buffer == corrupted) {
            caught = true;
        }
    }
    EXPECT_TRUE(caught) << "erasing the init of " << corrupted
                        << " went undetected: " << report.summary();
}

// ---------------------------------------------------------------------------
// Specificity: shipped plans check clean with their memory plans.

TEST(CheckSpecificity, ShippedPlansAreClean)
{
    const ModelConfig model = ModelConfig::tiny_test();
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kDense}) {
        Rng rng(2022);
        const WorkloadSample sample = sample_for_model(rng, model);
        const TransformerRunner runner(model, mode, sample, /*batch=*/1);
        const auto check_clean = [&](const std::string &what,
                                     const LaunchGraph &graph) {
            const MemPlan plan = plan_memory(graph);
            CheckOptions options;
            options.memplan = &plan;
            const CheckReport report = check_graph(graph, options);
            EXPECT_TRUE(report.clean())
                << what << ": " << report.summary() << " — "
                << (report.findings.empty()
                        ? ""
                        : report.findings.front().message);
        };
        check_clean("forward",
                    runner.attention().forward_graphs(device)->forward);
        check_clean("backward",
                    *runner.attention().backward_graph(device));
        check_clean(
            "layer.infer",
            *runner.layer_graph(device,
                                TransformerRunner::LayerKind::kInference));
        check_clean("layer.train_fwd",
                    *runner.layer_graph(
                        device, TransformerRunner::LayerKind::kTrainForward));
        check_clean(
            "layer.train_bwd",
            *runner.layer_graph(device,
                                TransformerRunner::LayerKind::kTrainBackward));
        PlanCache::instance().clear();
    }
}

// Every plan unit mgcheck proves (tools/plan_units.h) passes the CLI's
// whole gate: no hazard, every kernel name carves into a profiler phase,
// a valid memory plan that pools, and a clean check on that plan.
TEST(CheckSpecificity, EveryPlanUnitPassesLintMemoryAndCheck)
{
    for (const char *device_name : {"a100", "rtx3090"}) {
        const sim::DeviceSpec device = sim::device_spec_by_name(device_name);
        for (const char *mode :
             {"multigrain", "coarse-only", "fine-only", "dense"}) {
            int units = 0;
            tools::for_each_plan_unit(
                2022, "tiny", device_name, mode,
                [&](const std::string &unit, const LaunchGraph &graph) {
                    ++units;
                    const std::string what =
                        std::string(device_name) + "/" + mode + "/" + unit;
                    LintOptions lopt;
                    lopt.device = &device;
                    const LintReport lint = lint_graph(graph, lopt);
                    EXPECT_EQ(lint.hazards(), 0u) << what;
                    for (const LintFinding &f : lint.findings) {
                        EXPECT_NE(f.kind, LintKind::kPhaseName)
                            << what << ": " << f.message;
                    }
                    const MemPlan plan = plan_memory(graph);
                    EXPECT_NO_THROW(validate_memplan(graph, plan)) << what;
                    EXPECT_GT(plan.pooling_savings(), 0.0) << what;
                    CheckOptions copt;
                    copt.memplan = &plan;
                    const CheckReport check = check_graph(graph, copt);
                    EXPECT_TRUE(check.clean())
                        << what << ": " << check.summary();
                });
            EXPECT_EQ(units, 8) << device_name << "/" << mode;
            PlanCache::instance().clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Capture-time enforcement: an ill-defined plan never enters the cache.

TEST(CheckEnforcement, EnvironmentControlsEnforcement)
{
    {
        const ScopedCheckEnv env("0");
        EXPECT_FALSE(capture_check_enabled());
    }
    {
        const ScopedCheckEnv env("1");
        EXPECT_TRUE(capture_check_enabled());
    }
}

TEST(CheckEnforcement, CleanPlanPassesWithEnforcementOn)
{
    const ScopedCheckEnv env("1");
    const LaunchGraph graph = sequential_temps_graph();
    const MemPlan plan = plan_memory(graph);
    EXPECT_NO_THROW(enforce_capture_check(graph, &plan, "seq temps"));
}

TEST(CheckEnforcement, WarningsDoNotBlockCapture)
{
    const ScopedCheckEnv env("1");
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.w"), {}, {"t"}));
    // A dead store is a warning; enforcement gates on errors only.
    EXPECT_NO_THROW(enforce_capture_check(graph, nullptr, "dead store"));
}

TEST(CheckEnforcement, IllDefinedPlanNeverEntersTheCache)
{
    const ScopedCheckEnv env("1");
    const std::string key = "check_test|ill-defined|v1";
    int builds = 0;
    const auto build = [&]() {
        ++builds;
        auto graph = std::make_shared<LaunchGraph>();
        graph->launch(0,
                      sim::annotate(toy_launch("gemm.r"), {"%t"}, {}));
        // The builders call this right before returning into the cache.
        enforce_capture_check(*graph, nullptr, key);
        return graph;
    };
    EXPECT_THROW(PlanCache::instance().get_or_build<LaunchGraph>(key, build),
                 PlanCheckError);
    EXPECT_THROW(PlanCache::instance().get_or_build<LaunchGraph>(key, build),
                 PlanCheckError);
    // The second call re-ran the builder: the throw kept the undefined
    // plan out of the cache entirely.
    EXPECT_EQ(builds, 2);

    // With enforcement off the same plan caches fine (mgcheck reports
    // it instead).
    const ScopedCheckEnv off("0");
    EXPECT_NO_THROW(
        PlanCache::instance().get_or_build<LaunchGraph>(key, build));
    EXPECT_EQ(builds, 3);
}

TEST(CheckReportApi, SummaryAndCounts)
{
    LaunchGraph graph;
    graph.launch(0, sim::annotate(toy_launch("gemm.r"), {"%t"}, {"u"}));
    const CheckReport report = check_graph(graph);
    EXPECT_EQ(report.num_nodes, 1u);
    EXPECT_EQ(report.num_buffers, 2u);
    EXPECT_EQ(report.errors(), 1u);
    EXPECT_EQ(report.count(CheckSeverity::kWarning), 1u);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.summary(), "1 error(s), 1 warning(s)");
    // Errors sort first regardless of discovery order.
    EXPECT_EQ(report.findings.front().severity, CheckSeverity::kError);
}

}  // namespace
}  // namespace multigrain
