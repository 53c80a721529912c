#ifndef MULTIGRAIN_TRANSFORMER_RUNNER_H_
#define MULTIGRAIN_TRANSFORMER_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/attention.h"
#include "core/launch_graph.h"
#include "gpusim/engine.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/workload.h"

/// End-to-end inference timing (paper §5.1, Figs. 7-8): plans a full
/// forward pass — embedding-to-output per-layer op stream — into the GPU
/// simulator. The dense ops (QKV projection, output projection, FFN,
/// residual/LayerNorm element-wise passes) are identical across methods;
/// only the attention kernels differ, exactly as in the paper's setup.
namespace multigrain {

struct EndToEndResult {
    double total_us = 0;
    /// Wall-clock spent inside the sparse-attention phases (all layers).
    double attention_us = 0;
    /// DRAM traffic of the whole pass / of the attention phases, bytes.
    double dram_bytes = 0;
    double attention_dram_bytes = 0;
    sim::SimResult sim;
};

class TransformerRunner {
  public:
    /// Homogeneous batch: every sample shares `sample`'s metadata, fused
    /// into batch-replicated kernel launches (the fast common path).
    TransformerRunner(const ModelConfig &model, SliceMode mode,
                      const WorkloadSample &sample, index_t batch,
                      const AttentionConfig *attention_overrides = nullptr);

    /// Heterogeneous batch: each sample carries its own valid length and
    /// special-token positions — its own attention metadata (§3.1: "the
    /// number and position of nonzeros are changed by the input data").
    /// Each sample's kernels are planned into the same phase and
    /// co-scheduled, modeling a batched launch over per-sample metadata.
    TransformerRunner(const ModelConfig &model, SliceMode mode,
                      const std::vector<WorkloadSample> &samples,
                      const AttentionConfig *attention_overrides = nullptr);

    /// The (first) attention engine; handy for inspecting the slice plan.
    const AttentionEngine &attention() const { return *engines_.front(); }
    const ModelConfig &model() const { return model_; }
    index_t batch() const { return batch_; }

    /// Simulates one full forward pass on `device`.
    EndToEndResult simulate(const sim::DeviceSpec &device) const;

    /// Replays one full inference pass into `sim` without running it:
    /// every layer's cached graph under "<name_prefix>L%02d.", reusing
    /// `binding` for stream placement (pass a fresh binding to land the
    /// pass on its own streams). This is how the serving layer
    /// co-schedules several batches into one simulator — each batch's
    /// runner replays under its own prefix and binding, and the batches
    /// overlap across gpusim streams exactly like the coarse ∥ fine split
    /// does within one attention. simulate() is this plus sim.run().
    void plan_inference_into(sim::GpuSim &sim, std::vector<int> &binding,
                             const std::string &name_prefix = "") const;

    /// Simulates one training step (forward + backward): each layer's
    /// dense GEMMs reappear with ~2x the flops in the backward (dX and
    /// dW products), and the attention backward runs the dP SDDMM, fused
    /// softmax backward, and dQ/dK/dV SpMMs over (transposed) metadata.
    EndToEndResult simulate_training(const sim::DeviceSpec &device) const;

    /// The three per-layer op streams a pass is assembled from. A layer's
    /// kernel sequence is identical across layers up to its name prefix,
    /// so each kind is captured once per device — dense ops on logical
    /// stream 0, every engine's phase graphs appended with its own
    /// logical-stream block — PlanCache'd, and replayed once per layer
    /// with the "L%02d."/"F%02d."/"B%02d." prefix. Public so mgcheck can
    /// analyze the exact composed plans the runner replays.
    enum class LayerKind { kInference, kTrainForward, kTrainBackward };
    std::shared_ptr<const LaunchGraph>
    layer_graph(const sim::DeviceSpec &device, LayerKind kind) const;

    /// The static memory plan (core/memplan.h) for the composed layer
    /// graph: its arena layout plus peak/naive HBM footprints. Built and
    /// validated beside the graph at capture and PlanCache'd, so replay
    /// consumers (bench rows, the byte-budget serving scheduler) get it
    /// as a cache hit. The footprint scales per replayed layer; weights
    /// (w.*/dw.*) appear once per layer replay too, so a whole-model
    /// estimate is num_layers x this plan's peak.
    std::shared_ptr<const MemPlan>
    layer_memplan(const sim::DeviceSpec &device, LayerKind kind) const;

  private:
    LaunchGraph build_layer_graph(const sim::DeviceSpec &device,
                                  LayerKind kind) const;
    std::string layer_graph_key(const sim::DeviceSpec &device,
                                LayerKind kind) const;

    ModelConfig model_;
    index_t batch_ = 1;
    std::vector<std::unique_ptr<AttentionEngine>> engines_;
};

}  // namespace multigrain

#endif  // MULTIGRAIN_TRANSFORMER_RUNNER_H_
