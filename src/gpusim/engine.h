#ifndef MULTIGRAIN_GPUSIM_ENGINE_H_
#define MULTIGRAIN_GPUSIM_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"

/// The GPU execution engine: a deterministic processor-sharing (fluid)
/// event simulator.
///
/// Model (DESIGN.md §4). Thread blocks are admitted to SM slots round-robin
/// as resources free, under the CUDA occupancy rules. While resident, a
/// block's tensor-pipe work drains at an equal share of its SM's tensor
/// throughput, its CUDA-pipe work at an equal share of the SM's CUDA
/// throughput, and its memory work at an equal share of device DRAM
/// bandwidth (additionally capped by a per-SM burst limit). A block
/// completes when all of its work components have drained, after a fixed
/// per-block prologue. Kernels in one stream serialize; kernels in
/// different streams co-schedule on the same SM array — this is exactly the
/// mechanism by which Multigrain's coarse ∥ fine multi-stream split wins.
///
/// Implementation: per-resource progress clocks. A clock advances at
/// R / N(t) where N is its live consumer count; a block's component
/// finishes when the clock crosses (value-at-admission + work). Each clock
/// holds exactly one live prediction of its next crossing, kept in an
/// indexed min-heap over the clocks and overwritten in place whenever the
/// clock's consumer set changes; every other event (kernel ready, block
/// activation, latency-cap deadline) sits in a second heap under the same
/// (time, sequence) order. No event is ever popped stale, so simulation
/// cost is O(blocks · log), independent of how long blocks overlap.
///
/// Quiescent segments. Kernel k is a *cut* when every kernel launched
/// before it is an ancestor of every kernel launched from it on: the
/// device then drains completely before k's segment starts, and every
/// root of that segment becomes ready at release + kernel_launch_us,
/// where release is the latest end so far. run() splits the launches at
/// every cut and simulates each segment on its own, from t = 0 with fresh
/// clocks, sequence numbers, issue cursor and unit ids, so a segment's
/// timeline is a pure function of its launches (shapes, thread-block
/// groups and in-segment dependencies; names and streams play no part).
/// Equal segments — every layer of a forward — are simulated once per
/// run and reused, and each segment's timeline is shifted by its release
/// time. The first segment's times are exactly the unsplit simulation's.
namespace multigrain::sim {

struct KernelStats {
    std::string name;
    int stream = 0;
    index_t num_tbs = 0;
    int occupancy_per_sm = 0;
    double ready_us = 0;  ///< Dependencies resolved + launch latency.
    double start_us = 0;  ///< First block admitted.
    double end_us = 0;    ///< Last block drained.
    /// The same three times relative to the release of the kernel's
    /// quiescent segment: ready/start/end_us are that release plus these,
    /// rounded by the addition. Kernels at the same place in equal
    /// segments have bit-identical local times. Zero in a SimResult
    /// rebuilt from JSON, which carries only the absolute times.
    double local_ready_us = 0;
    double local_start_us = 0;
    double local_end_us = 0;
    TbWork work;          ///< Aggregate flops / DRAM traffic.
    /// Average resident thread blocks while the kernel ran; the analogue of
    /// Nsight's achieved-occupancy signal the paper uses for the load
    /// imbalance discussion (§5.2.1).
    double avg_concurrency = 0;
    /// Indices (into SimResult::kernels) of the kernels this one waited
    /// for: the previous kernel on its stream plus any join_streams()
    /// barrier tails. Sorted, deduplicated. Cross-stream entries are the
    /// edges the trace exporter renders as flow arrows.
    std::vector<int> deps;

    double duration_us() const { return end_us - start_us; }
};

/// Deterministic work counters of one GpuSim::run(): how much host work
/// the engine did to produce the timeline. A pure function of the
/// submitted launches, so they can be compared exactly across builds and
/// machines; they say nothing about simulated time. Only simulated
/// segments count: a segment reused from the run's memo adds a segment
/// hit and nothing else.
struct EngineCounters {
    std::uint64_t segments = 0;      ///< Quiescent segments simulated.
    std::uint64_t segment_hits = 0;  ///< Segments reused, not simulated.
    std::uint64_t units = 0;            ///< Block chunks admitted to SMs.
    std::uint64_t clock_events = 0;     ///< Clock crossing predictions popped.
    std::uint64_t ready_events = 0;     ///< Simulated kernels made ready.
    std::uint64_t activate_events = 0;  ///< Unit prologues that finished.
    std::uint64_t deadline_events = 0;  ///< Unit latency-cap deadlines.
    /// Component thresholds drained by clock crossings.
    std::uint64_t crossings = 0;
    /// Popped clock predictions whose crossing had moved later (rounding)
    /// and were predicted again instead of firing.
    std::uint64_t repredictions = 0;
    std::uint64_t predictions = 0;  ///< Clock predictions set or replaced.
    std::uint64_t peak_queue = 0;   ///< Most events pending at one time.

    std::uint64_t events() const
    {
        return clock_events + ready_events + activate_events +
               deadline_events;
    }

    /// Adds `other`'s work to this one (peak_queue takes the larger
    /// peak): the counters of several runs taken together.
    void add(const EngineCounters &other);
};

/// One named EngineCounters entry, for tools that print or export every
/// counter without a hand-maintained list (mgprof's "gpusim.*" counters).
struct EngineCounterDef {
    const char *key;
    std::uint64_t (*get)(const EngineCounters &);
};
const std::vector<EngineCounterDef> &engine_counter_registry();

struct SimResult {
    double total_us = 0;
    TbWork work;
    std::vector<KernelStats> kernels;
    EngineCounters counters;

    double dram_bytes() const { return work.dram_bytes(); }
    /// Sum of durations of kernels whose name starts with `prefix`.
    /// Overlapping kernels both count (this is per-kernel time, not
    /// critical-path time).
    double sum_kernel_time(const std::string &prefix) const;
    /// Wall-clock span (max end - min start) over kernels whose name
    /// starts with `prefix`; the right metric for a multi-stream phase.
    /// Zero when nothing matches.
    double span(const std::string &prefix) const;
    /// Absolute completion time (max end since t = 0) over kernels whose
    /// name starts with `prefix`; zero when nothing matches. This is the
    /// per-batch finish time the serving layer reads off a round where
    /// several batches co-schedule on different streams.
    double finish_us(const std::string &prefix) const;
    /// Aggregate DRAM traffic of kernels whose name starts with `prefix`.
    double dram_bytes_for(const std::string &prefix) const;
    const KernelStats *find(const std::string &name) const;
};

class GpuSim {
  public:
    explicit GpuSim(DeviceSpec device);

    const DeviceSpec &device() const { return device_; }

    /// Streams are small integers; stream 0 always exists.
    int create_stream() { return order_.create_stream(); }

    /// Enqueues a kernel on `stream`, ordered after everything previously
    /// launched on that stream (plus any pending join; see StreamOrder).
    void launch(int stream, KernelLaunch launch);

    /// The next kernel launched on *any* stream will additionally wait for
    /// every kernel submitted so far (device-wide synchronization point in
    /// the recorded program, like an event barrier across streams).
    void join_streams() { order_.join_streams(); }

    /// Simulates everything submitted so far, one quiescent segment at a
    /// time (see above). May be called once.
    SimResult run();

  private:
    struct KernelNode {
        KernelLaunch launch;
        int stream = 0;
        std::vector<int> deps;
        std::vector<int> children;
    };
    /// One kernel's timeline relative to its segment's release.
    struct LocalTimes {
        double ready_us = 0;
        double start_us = 0;
        double end_us = 0;
        double avg_concurrency = 0;
    };

    /// First kernel of every quiescent segment, ascending; {0, ...} for a
    /// non-empty run. Needs sorted, deduplicated deps.
    std::vector<int> segment_starts() const;
    /// Hash of the segment [begin, end)'s simulation descriptor.
    std::uint64_t segment_hash(int begin, int end) const;
    /// True when the n-kernel segments at a and b simulate identically.
    bool same_segment(int a, int b, int n) const;
    /// Simulates the kernels [begin, end) alone on an idle device from
    /// t = 0, adding the work done to `total`.
    std::vector<LocalTimes> simulate(int begin, int end,
                                     EngineCounters &total) const;

    DeviceSpec device_;
    StreamOrder order_;
    std::vector<KernelNode> kernels_;
    bool ran_ = false;
};

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_GPUSIM_ENGINE_H_
