#ifndef MULTIGRAIN_GPUSIM_TRACE_H_
#define MULTIGRAIN_GPUSIM_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.h"
#include "gpusim/engine.h"

/// Chrome trace-event export: turns a SimResult into a JSON timeline that
/// chrome://tracing or https://ui.perfetto.dev renders, one lane ("thread")
/// per CUDA stream. The multi-stream overlap of Multigrain's coarse ∥ fine
/// ∥ special parts is directly visible this way.
///
/// Beyond the per-kernel slices, the exporter can emit the Nsight-style
/// context the paper reads off its profiles:
///  * counter tracks — DRAM bandwidth utilization and resident thread
///    blocks over time (piecewise-constant, sampled at kernel
///    boundaries);
///  * flow arrows for every cross-stream dependency recorded by
///    join_streams(), connecting the end of the awaited kernel to the
///    start of the waiter;
///  * phase marker slices on a dedicated "phases" lane (the carved
///    sddmm/softmax/spmm spans the profiler computes).
namespace multigrain::sim {

/// One marker slice on the "phases" lane.
struct PhaseMark {
    std::string name;
    double start_us = 0;
    double end_us = 0;
};

struct TraceOptions {
    /// Enables the counter tracks; utilization needs the device peaks.
    /// When null, counters are omitted.
    const DeviceSpec *device = nullptr;
    /// Flow arrows for cross-stream dependencies (joins).
    bool flows = true;
    /// Marker slices drawn on a separate lane; the mgprof CLI fills this
    /// from the profiler's carved phases.
    std::vector<PhaseMark> phases;
};

/// Writes the trace JSON to `os`. The two-argument form emits slices and
/// flow arrows only (no device — no counters).
void write_chrome_trace(const SimResult &result, std::ostream &os);
void write_chrome_trace(const SimResult &result, std::ostream &os,
                        const TraceOptions &options);

/// Convenience: the trace as a string.
std::string chrome_trace_json(const SimResult &result);
std::string chrome_trace_json(const SimResult &result,
                              const TraceOptions &options);

/// Convenience: writes the trace to `path`; throws Error on I/O failure.
void write_chrome_trace_file(const SimResult &result,
                             const std::string &path);
void write_chrome_trace_file(const SimResult &result,
                             const std::string &path,
                             const TraceOptions &options);

/// Appends `result`'s per-kernel slices to an already-open
/// "traceEvents" array, shifted forward by `offset_us` and placed under
/// process `pid` (lane = simulated stream id). No lane-name metadata,
/// no flows, no counters — the minimal building block a composite
/// exporter (mgserve's correlated serving timeline) overlays per-round
/// replays with. `w` must be positioned inside an open JSON array.
void append_kernel_slices(JsonWriter &w, const SimResult &result,
                          double offset_us, int pid);

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_GPUSIM_TRACE_H_
