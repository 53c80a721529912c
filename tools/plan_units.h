#ifndef MULTIGRAIN_TOOLS_PLAN_UNITS_H_
#define MULTIGRAIN_TOOLS_PLAN_UNITS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/launch_graph.h"
#include "gpusim/device.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

/// The plan-unit enumeration mgcheck proves and its tests cover: for one
/// (model, device, mode) combo, the eight captured execution plans the
/// runners actually replay — the three layer kinds, a batched inference
/// layer, and the composed units (training step, stacked layers, engine
/// step, double forward) that exercise the append re-namespacing paths.
/// The engine's sddmm/softmax/spmm phase graphs are sub-graphs of its
/// forward, and the forward and backward graphs appear with their
/// internal edges unchanged inside the engine units, so every hazard
/// they could show shows here. Composed copies carry the runner's own
/// layer tags (F00./B00. for a training step, L00./L01. for stacked
/// copies) so every kernel name carves into a profiler phase.
namespace multigrain::tools {

/// Identity stream map [0, n) into `target`, creating the streams there
/// first: appended copies land on the same logical streams as the
/// original, so copy k+1 serializes after copy k per stream — the same
/// layer-to-layer ordering the runner's replay loop produces, and the
/// ordering that lets consecutive copies pool.
inline std::vector<int>
identity_streams(LaunchGraph &target, const LaunchGraph &src)
{
    while (target.num_streams() < src.num_streams()) {
        target.create_stream();
    }
    std::vector<int> map(static_cast<std::size_t>(src.num_streams()));
    for (std::size_t i = 0; i < map.size(); ++i) {
        map[i] = static_cast<int>(i);
    }
    return map;
}

/// Builds the eight units for one combo and calls
/// `fn(unit_name, graph)` for each. Graphs passed by reference are only
/// valid for the duration of the callback.
inline void
for_each_plan_unit(
    unsigned seed, const std::string &model_name,
    const std::string &device_name, const std::string &mode_name,
    const std::function<void(const std::string &, const LaunchGraph &)>
        &fn)
{
    const ModelConfig model = model_config_by_name(model_name);
    const sim::DeviceSpec device = sim::device_spec_by_name(device_name);
    const SliceMode mode = slice_mode_by_name(mode_name);

    Rng rng(seed);
    const WorkloadSample sample = sample_for_model(rng, model);
    const TransformerRunner runner(model, mode, sample, /*batch=*/1);
    const TransformerRunner batched(model, mode, sample, /*batch=*/4);

    using LayerKind = TransformerRunner::LayerKind;
    const LaunchGraph &infer =
        *runner.layer_graph(device, LayerKind::kInference);
    const LaunchGraph &train_fwd =
        *runner.layer_graph(device, LayerKind::kTrainForward);
    const LaunchGraph &train_bwd =
        *runner.layer_graph(device, LayerKind::kTrainBackward);

    // Single captured plans, exactly as the runner replays them.
    fn("layer.infer.b1", infer);
    fn("layer.infer.b4",
       *batched.layer_graph(device, LayerKind::kInference));
    fn("layer.train_fwd.b1", train_fwd);
    fn("layer.train_bwd.b1", train_bwd);

    // Composition units. A training step appends forward and backward
    // under one shared namespace, so the backward reads the forward's
    // stashed activations while both sides' scratch pools.
    {
        LaunchGraph step;
        const std::vector<int> fmap = identity_streams(step, train_fwd);
        const std::vector<int> bmap = identity_streams(step, train_bwd);
        const std::string ns = "step";
        step.append(train_fwd, "F00.", &fmap, &ns);
        step.append(train_bwd, "B00.", &bmap, &ns);
        fn("layer.train_step.b1", step);
    }
    // Two stacked inference layers on the same streams, each with its
    // own (fresh) intermediate namespace — layer 1's scratch reuses
    // layer 0's arena slots once they drain.
    {
        LaunchGraph model2;
        const std::vector<int> map = identity_streams(model2, infer);
        model2.append(infer, "L00.", &map);
        model2.append(infer, "L01.", &map);
        fn("model.infer.x2.b1", model2);
    }

    // Attention-engine units: a forward+backward step sharing one
    // namespace (backward consumes the stashed probabilities), and a
    // double forward.
    const auto graphs = runner.attention().forward_graphs(device);
    const LaunchGraph &fwd = graphs->forward;
    const LaunchGraph &bwd = *runner.attention().backward_graph(device);
    {
        LaunchGraph step;
        const std::vector<int> fmap = identity_streams(step, fwd);
        const std::vector<int> bmap = identity_streams(step, bwd);
        const std::string ns = "step";
        step.append(fwd, "F00.", &fmap, &ns);
        step.append(bwd, "B00.", &bmap, &ns);
        fn("engine.step.b1", step);
    }
    {
        LaunchGraph twice;
        const std::vector<int> map = identity_streams(twice, fwd);
        twice.append(fwd, "L00.", &map);
        twice.append(fwd, "L01.", &map);
        fn("engine.fwd.x2.b1", twice);
    }
}

}  // namespace multigrain::tools

#endif  // MULTIGRAIN_TOOLS_PLAN_UNITS_H_
