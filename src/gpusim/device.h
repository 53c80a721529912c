#ifndef MULTIGRAIN_GPUSIM_DEVICE_H_
#define MULTIGRAIN_GPUSIM_DEVICE_H_

#include <cstdint>
#include <string>

#include "common/util.h"

/// Device models for the two GPUs the paper evaluates (Table 1) plus the
/// efficiency constants of the timing model.
///
/// Calibration contract (DESIGN.md §4): peak numbers come straight from
/// Table 1 of the paper; the efficiency factors are set once from public
/// microbenchmark literature (achieved-vs-peak fractions for tiled FP16
/// GEMM, bandwidth tests, and kernel-launch latencies) and are never tuned
/// per experiment. Every experiment in EXPERIMENTS.md runs against these
/// same two structs.
namespace multigrain::sim {

struct DeviceSpec {
    std::string name;

    // ---- Table 1 of the paper -------------------------------------------
    int num_sms = 0;
    double tensor_tflops = 0;  ///< Peak FP16 tensor-core TFLOPS.
    double cuda_tflops = 0;    ///< Peak FP16 CUDA-core TFLOPS.
    double dram_gbps = 0;      ///< Peak device-memory bandwidth, GB/s.
    /// Device-memory (HBM/GDDR) capacity, GB. Not a timing input: the
    /// byte-budget serving scheduler reads it to pack plans
    /// against what the board can actually hold. Presets use the largest
    /// shipping variants (A100 80 GB SXM, RTX 3090 24 GB).
    double hbm_gbytes = 0;
    double l2_mb = 0;          ///< L2 capacity, MB.
    double l2_gbps = 0;        ///< Aggregate L2 bandwidth, GB/s.
    int l1_kb_per_sm = 0;      ///< Unified L1/SMEM block per SM, KB.

    // ---- Per-SM resources (CUDA occupancy inputs) -----------------------
    int max_tb_per_sm = 0;
    int max_threads_per_sm = 0;
    int regs_per_sm = 0;
    int smem_per_sm_bytes = 0;  ///< Max dynamic SMEM usable by TBs.

    // ---- Timing-model constants -----------------------------------------
    double tensor_efficiency = 0;  ///< Achieved fraction of tensor peak
                                   ///< for blocked-sparse kernels.
    /// Large-tile dense GEMMs (cuBLAS/CUTLASS class) achieve a higher
    /// fraction of tensor peak than metadata-driven blocked-sparse
    /// kernels; the dense GEMM cost model uses this instead.
    double dense_tensor_efficiency = 0;
    double cuda_efficiency = 0;    ///< Achieved fraction of CUDA peak.
    double dram_efficiency = 0;    ///< Achieved fraction of DRAM peak.
    /// Latency from a kernel becoming ready to its first TB issuing, us.
    double kernel_launch_us = 0;
    /// Fixed per-TB prologue (scheduling, metadata fetch, sync), us.
    double tb_overhead_us = 0;
    /// One SM cannot pull the whole DRAM bandwidth; this is the per-SM cap
    /// as a multiple of (dram_gbps / num_sms).
    double sm_mem_burst = 0;
    /// Latency-bound region: a single resident thread block of T threads
    /// can sustain at most min(1, unit_saturation * T / max_threads_per_sm)
    /// of an SM pipe (or of the SM memory burst). Kernels that under-fill
    /// their SMs therefore do not get free full-rate execution — the
    /// §5.2/5.3 "too few thread blocks" effect.
    double unit_saturation = 0;

    // ---- Derived rates ---------------------------------------------------
    /// Achievable tensor flops per microsecond per SM.
    double sm_tensor_flops_per_us() const
    {
        return tensor_tflops * tensor_efficiency * 1e6 / num_sms;
    }
    /// Achievable CUDA-core flops per microsecond per SM.
    double sm_cuda_flops_per_us() const
    {
        return cuda_tflops * cuda_efficiency * 1e6 / num_sms;
    }
    /// Achievable DRAM bytes per microsecond, device-wide.
    double dram_bytes_per_us() const
    {
        return dram_gbps * dram_efficiency * 1e3;
    }
    /// Per-SM memory burst cap (DRAM + L2 traffic), bytes per microsecond.
    double sm_dram_bytes_per_us() const
    {
        return dram_bytes_per_us() / num_sms * sm_mem_burst;
    }
    /// Achievable L2 bytes per microsecond, device-wide.
    double l2_bytes_per_us() const { return l2_gbps * 1e3; }
    double l2_capacity_bytes() const { return l2_mb * 1e6; }
    /// Device-memory capacity in bytes — the serving byte budget's
    /// default ceiling.
    std::uint64_t hbm_capacity_bytes() const
    {
        return static_cast<std::uint64_t>(hbm_gbytes * 1e9);
    }

    // ---- Energy model (IISWC-style characterization) ---------------------
    /// Dynamic energy per tensor-core FP16 flop / CUDA-core flop, pJ.
    double pj_per_tensor_flop = 0;
    double pj_per_cuda_flop = 0;
    /// Dynamic energy per byte moved from DRAM / served by L2, pJ.
    double pj_per_dram_byte = 0;
    double pj_per_l2_byte = 0;
    /// Idle/static board power, W.
    double static_watts = 0;

    /// NVIDIA A100 (SXM, 40 GB) as reported in Table 1.
    static DeviceSpec a100();
    /// GeForce RTX 3090 as reported in Table 1.
    static DeviceSpec rtx3090();
};

/// Looks a device up by its CLI name ("a100" | "rtx3090"); throws Error
/// on anything else. Shared by mgprof, mgperf, and the bench presets.
DeviceSpec device_spec_by_name(const std::string &name);

/// Test-only multiplicative perturbation of a DeviceSpec, used to
/// self-test the mgperf regression gate end-to-end: scaling DRAM
/// bandwidth down by 10 % must make the committed baselines fail. The
/// multipliers apply to the timing model only (peaks and latencies), not
/// to capacities or occupancy limits, so plans stay structurally
/// identical and only the simulated times move.
struct DevicePerturbation {
    double dram = 1.0;    ///< Scales dram_gbps.
    double tensor = 1.0;  ///< Scales tensor_tflops.
    double cuda = 1.0;    ///< Scales cuda_tflops.
    double l2 = 1.0;      ///< Scales l2_gbps.
    double launch = 1.0;  ///< Scales kernel_launch_us and tb_overhead_us.

    bool identity() const;

    /// Parses "dram=0.9,tensor=1.1"-style specs (keys above, any order).
    /// Throws Error on unknown keys or non-positive scales.
    static DevicePerturbation parse(const std::string &spec);
};

/// Applies `p` to `spec` in place.
void apply_perturbation(DeviceSpec &spec, const DevicePerturbation &p);

/// The perturbation named by the MULTIGRAIN_PERTURB environment variable
/// (identity when unset/empty). Re-read on every call so tests can flip
/// it; the DeviceSpec factories apply it, which is what lets the mgperf
/// gate be exercised against any binary without rebuilding.
DevicePerturbation env_perturbation();

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_GPUSIM_DEVICE_H_
