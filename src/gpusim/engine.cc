#include "gpusim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"

namespace multigrain::sim {

namespace {
constexpr double kInfSpan = std::numeric_limits<double>::infinity();
}  // namespace

double
SimResult::sum_kernel_time(const std::string &prefix) const
{
    double sum = 0;
    for (const auto &k : kernels) {
        if (k.name.rfind(prefix, 0) == 0) {
            sum += k.duration_us();
        }
    }
    return sum;
}

double
SimResult::span(const std::string &prefix) const
{
    double start = kInfSpan;
    double end = 0;
    for (const auto &k : kernels) {
        if (k.name.rfind(prefix, 0) == 0) {
            start = std::min(start, k.start_us);
            end = std::max(end, k.end_us);
        }
    }
    return end > start ? end - start : 0;
}

double
SimResult::finish_us(const std::string &prefix) const
{
    double end = 0;
    for (const auto &k : kernels) {
        if (k.name.rfind(prefix, 0) == 0) {
            end = std::max(end, k.end_us);
        }
    }
    return end;
}

double
SimResult::dram_bytes_for(const std::string &prefix) const
{
    double bytes = 0;
    for (const auto &k : kernels) {
        if (k.name.rfind(prefix, 0) == 0) {
            bytes += k.work.dram_bytes();
        }
    }
    return bytes;
}

const KernelStats *
SimResult::find(const std::string &name) const
{
    for (const auto &k : kernels) {
        if (k.name == name) {
            return &k;
        }
    }
    return nullptr;
}

void
EngineCounters::add(const EngineCounters &other)
{
    segments += other.segments;
    segment_hits += other.segment_hits;
    units += other.units;
    clock_events += other.clock_events;
    ready_events += other.ready_events;
    activate_events += other.activate_events;
    deadline_events += other.deadline_events;
    crossings += other.crossings;
    repredictions += other.repredictions;
    predictions += other.predictions;
    peak_queue = std::max(peak_queue, other.peak_queue);
}

const std::vector<EngineCounterDef> &
engine_counter_registry()
{
    static const std::vector<EngineCounterDef> registry = {
        {"gpusim.segments",
         [](const EngineCounters &c) { return c.segments; }},
        {"gpusim.segment_hits",
         [](const EngineCounters &c) { return c.segment_hits; }},
        {"gpusim.units", [](const EngineCounters &c) { return c.units; }},
        {"gpusim.events",
         [](const EngineCounters &c) { return c.events(); }},
        {"gpusim.events.clock",
         [](const EngineCounters &c) { return c.clock_events; }},
        {"gpusim.events.ready",
         [](const EngineCounters &c) { return c.ready_events; }},
        {"gpusim.events.activate",
         [](const EngineCounters &c) { return c.activate_events; }},
        {"gpusim.events.deadline",
         [](const EngineCounters &c) { return c.deadline_events; }},
        {"gpusim.crossings",
         [](const EngineCounters &c) { return c.crossings; }},
        {"gpusim.repredictions",
         [](const EngineCounters &c) { return c.repredictions; }},
        {"gpusim.predictions",
         [](const EngineCounters &c) { return c.predictions; }},
        {"gpusim.peak_queue",
         [](const EngineCounters &c) { return c.peak_queue; }},
    };
    return registry;
}

GpuSim::GpuSim(DeviceSpec device) : device_(std::move(device))
{
    MG_CHECK(device_.num_sms > 0) << "device needs at least one SM";
}

void
GpuSim::launch(int stream, KernelLaunch launch)
{
    MG_CHECK(!ran_) << "GpuSim::run() was already called";
    KernelNode node;
    node.deps = order_.launch(stream);
    node.launch = std::move(launch);
    node.stream = stream;
    kernels_.push_back(std::move(node));
}

namespace {

constexpr int kWaves = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();

enum Component : int {
    kCompTensor = 0,   ///< Per-SM tensor pipe; drains tensor_flops.
    kCompCuda = 1,     ///< Per-SM CUDA pipe; drains cuda_flops.
    kCompDram = 2,     ///< Global DRAM bandwidth; drains dram bytes.
    kCompL2 = 3,       ///< Global L2 bandwidth; drains dram + l2 bytes.
    kCompMemSm = 4,    ///< Per-SM memory burst cap; drains dram + l2 bytes.
    kNumComponents = 5,
};

/// One progress clock: a resource shared equally among its consumers.
/// Consumers are exactly the outstanding thresholds (one per component of
/// each resident block using the resource).
struct Clock {
    double rate = 0;  ///< Full resource rate, progress units per us.
    double value = 0;
    double last_t = 0;
    /// Min-heap of (threshold progress value, unit*4 + component).
    std::priority_queue<std::pair<double, std::int64_t>,
                        std::vector<std::pair<double, std::int64_t>>,
                        std::greater<>>
        thresholds;

    void advance(double t)
    {
        if (!thresholds.empty()) {
            value += (t - last_t) * rate /
                     static_cast<double>(thresholds.size());
        }
        last_t = t;
    }

    /// Time at which the smallest threshold will be crossed under the
    /// current consumer count; infinity if idle.
    double next_crossing() const
    {
        if (thresholds.empty() || rate <= 0) {
            return kInf;
        }
        const double gap = thresholds.top().first - value;
        if (gap <= 0) {
            return last_t;
        }
        return last_t + gap * static_cast<double>(thresholds.size()) / rate;
    }
};

struct Unit {
    int kernel = -1;
    int sm = -1;
    index_t tb_count = 0;
    int pending = 0;
    double admit_t = 0;
    TbWork work;  ///< Total work of the chunk (group work * tb_count).
};

struct SmState {
    int slots = 0;
    int threads = 0;
    int smem = 0;
    int regs = 0;
};

struct KernelRun {
    std::size_t group_idx = 0;
    index_t group_off = 0;
    index_t total_tbs = 0;
    index_t emitted = 0;
    index_t completed = 0;
    index_t max_chunk = 1;
    int occ = 1;
    double ready_t = kInf;
    double start_t = kInf;
    double end_t = 0;
    double unit_busy = 0;
};

/// A pending engine event other than a clock crossing.
struct Event {
    double t = 0;
    std::uint64_t seq = 0;  ///< Tie-break for determinism.
    int kind = 0;           ///< 1 kernel-ready, 2 unit-activate, 3 deadline.
    int id = 0;

    friend bool operator>(const Event &a, const Event &b)
    {
        if (a.t != b.t) {
            return a.t > b.t;
        }
        if (a.kind != b.kind) {
            return a.kind > b.kind;
        }
        return a.seq > b.seq;
    }
};

/// The clocks' crossing predictions: an indexed binary min-heap holding
/// exactly one (t, seq) key per clock, so a prediction that a consumer
/// change makes obsolete is overwritten in place instead of lingering as
/// a stale entry. An idle clock keys at t = +inf and sinks to the bottom.
class ClockQueue {
  public:
    explicit ClockQueue(int clocks)
        : keys_(static_cast<std::size_t>(clocks)),
          heap_(static_cast<std::size_t>(clocks)),
          pos_(static_cast<std::size_t>(clocks))
    {
        for (int c = 0; c < clocks; ++c) {
            heap_[static_cast<std::size_t>(c)] = c;
            pos_[static_cast<std::size_t>(c)] = c;
        }
    }

    int top() const { return heap_.front(); }
    double top_t() const
    {
        return keys_[static_cast<std::size_t>(top())].t;
    }
    /// Clocks holding a finite prediction.
    std::size_t live() const { return live_; }

    /// Replaces `clock`'s prediction; t = +inf clears it.
    void set(int clock, double t, std::uint64_t seq)
    {
        Key &key = keys_[static_cast<std::size_t>(clock)];
        live_ += static_cast<std::size_t>(t < kInf) -
                 static_cast<std::size_t>(key.t < kInf);
        const Key before = key;
        key = {t, seq};
        const std::size_t i = pos_[static_cast<std::size_t>(clock)];
        if (key < before) {
            sift_up(i);
        } else {
            sift_down(i);
        }
    }

  private:
    struct Key {
        double t = kInf;
        std::uint64_t seq = 0;

        friend bool operator<(const Key &a, const Key &b)
        {
            return a.t != b.t ? a.t < b.t : a.seq < b.seq;
        }
    };

    bool less(std::size_t a, std::size_t b) const
    {
        return keys_[static_cast<std::size_t>(heap_[a])] <
               keys_[static_cast<std::size_t>(heap_[b])];
    }
    void swap_slots(std::size_t a, std::size_t b)
    {
        std::swap(heap_[a], heap_[b]);
        pos_[static_cast<std::size_t>(heap_[a])] = static_cast<int>(a);
        pos_[static_cast<std::size_t>(heap_[b])] = static_cast<int>(b);
    }
    void sift_up(std::size_t i)
    {
        while (i > 0 && less(i, (i - 1) / 2)) {
            swap_slots(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
    }
    void sift_down(std::size_t i)
    {
        for (;;) {
            std::size_t best = i;
            const std::size_t l = 2 * i + 1;
            if (l < heap_.size() && less(l, best)) {
                best = l;
            }
            if (l + 1 < heap_.size() && less(l + 1, best)) {
                best = l + 1;
            }
            if (best == i) {
                return;
            }
            swap_slots(i, best);
            i = best;
        }
    }

    std::vector<Key> keys_;  ///< Per clock.
    std::vector<int> heap_;  ///< Heap slot -> clock.
    std::vector<int> pos_;   ///< Clock -> heap slot.
    std::size_t live_ = 0;
};

}  // namespace

std::vector<int>
GpuSim::segment_starts() const
{
    // With deps sorted, k is a cut iff every kernel from k on whose deps
    // all precede k (a root of the suffix) depends directly on every sink
    // of the prefix [0, k) — a kernel with no child before k. A root whose
    // latest dep is before k - 1 misses kernel k - 1, itself a sink, so
    // only roots whose latest dep is exactly k - 1 can pass, and no kernel
    // from k on may have an earlier latest dep. Each kernel is checked at
    // one k only: O(kernels + edges).
    const int n = static_cast<int>(kernels_.size());
    const auto latest_dep = [&](int k) {
        const std::vector<int> &deps =
            kernels_[static_cast<std::size_t>(k)].deps;
        return deps.empty() ? -1 : deps.back();
    };
    // min_latest[k]: the smallest latest dep of any kernel from k on.
    std::vector<int> min_latest(static_cast<std::size_t>(n) + 1, n);
    std::vector<std::vector<int>> joins(static_cast<std::size_t>(n));
    for (int k = n - 1; k >= 0; --k) {
        const int latest = latest_dep(k);
        min_latest[static_cast<std::size_t>(k)] = std::min(
            min_latest[static_cast<std::size_t>(k) + 1], latest);
        if (latest >= 0) {
            joins[static_cast<std::size_t>(latest)].push_back(k);
        }
    }
    std::vector<int> starts;
    std::vector<bool> sink(static_cast<std::size_t>(n), false);
    int sinks = 0;
    for (int k = 0; k < n; ++k) {
        bool cut = k == 0;
        if (k > 0 && min_latest[static_cast<std::size_t>(k)] == k - 1) {
            cut = true;
            for (const int root : joins[static_cast<std::size_t>(k - 1)]) {
                int covered = 0;
                for (const int dep :
                     kernels_[static_cast<std::size_t>(root)].deps) {
                    covered += sink[static_cast<std::size_t>(dep)] ? 1 : 0;
                }
                if (covered != sinks) {
                    cut = false;
                    break;
                }
            }
        }
        if (cut) {
            starts.push_back(k);
        }
        for (const int dep : kernels_[static_cast<std::size_t>(k)].deps) {
            if (sink[static_cast<std::size_t>(dep)]) {
                sink[static_cast<std::size_t>(dep)] = false;
                --sinks;
            }
        }
        sink[static_cast<std::size_t>(k)] = true;
        ++sinks;
    }
    return starts;
}

namespace {

void
hash_mix(std::uint64_t &h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

void
hash_mix_f64(std::uint64_t &h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    hash_mix(h, bits);
}

/// The deps of a kernel that fall inside a segment starting at `begin`
/// (deps are sorted, so they are a suffix of the list).
std::vector<int>::const_iterator
local_deps(const std::vector<int> &deps, int begin)
{
    return std::lower_bound(deps.begin(), deps.end(), begin);
}

}  // namespace

std::uint64_t
GpuSim::segment_hash(int begin, int end) const
{
    std::uint64_t h = static_cast<std::uint64_t>(end - begin);
    for (int k = begin; k < end; ++k) {
        const KernelNode &node = kernels_[static_cast<std::size_t>(k)];
        const TbShape &shape = node.launch.shape;
        hash_mix(h, static_cast<std::uint64_t>(shape.threads));
        hash_mix(h, static_cast<std::uint64_t>(shape.smem_bytes));
        hash_mix(h, static_cast<std::uint64_t>(shape.regs_per_thread));
        hash_mix(h, node.launch.tbs.size());
        for (const TbGroup &group : node.launch.tbs) {
            hash_mix(h, static_cast<std::uint64_t>(group.count));
            hash_mix_f64(h, group.work.tensor_flops);
            hash_mix_f64(h, group.work.cuda_flops);
            hash_mix_f64(h, group.work.dram_read_bytes);
            hash_mix_f64(h, group.work.dram_write_bytes);
            hash_mix_f64(h, group.work.l2_bytes);
        }
        for (auto it = local_deps(node.deps, begin); it != node.deps.end();
             ++it) {
            hash_mix(h, static_cast<std::uint64_t>(*it - begin));
        }
        hash_mix(h, ~0ull);  // Ends this kernel's dep list.
    }
    return h;
}

bool
GpuSim::same_segment(int a, int b, int n) const
{
    for (int i = 0; i < n; ++i) {
        const KernelNode &x = kernels_[static_cast<std::size_t>(a + i)];
        const KernelNode &y = kernels_[static_cast<std::size_t>(b + i)];
        if (x.launch.shape != y.launch.shape ||
            x.launch.tbs != y.launch.tbs ||
            !std::equal(local_deps(x.deps, a), x.deps.end(),
                        local_deps(y.deps, b), y.deps.end(),
                        [&](int p, int q) { return p - a == q - b; })) {
            return false;
        }
    }
    return true;
}

SimResult
GpuSim::run()
{
    MG_CHECK(!ran_) << "GpuSim::run() may only be called once";
    ran_ = true;

    const int num_kernels = static_cast<int>(kernels_.size());
    for (int k = 0; k < num_kernels; ++k) {
        const KernelNode &node = kernels_[static_cast<std::size_t>(k)];
        for (const int dep : node.deps) {
            MG_CHECK(dep >= 0 && dep < k) << "kernel dependency cycle";
            kernels_[static_cast<std::size_t>(dep)].children.push_back(k);
        }
    }

    // Split at the quiescent cuts, look each segment up in this run's
    // memo (keyed by the full descriptor, confirmed kernel by kernel) or
    // simulate it, and shift its local timeline by its release time.
    struct Memo {
        int begin = 0;
        std::vector<LocalTimes> times;
    };
    std::unordered_multimap<std::uint64_t, Memo> memo;
    SimResult result;
    result.kernels.reserve(static_cast<std::size_t>(num_kernels));
    const std::vector<int> starts = segment_starts();
    double release = 0;
    for (std::size_t s = 0; s < starts.size(); ++s) {
        const int begin = starts[s];
        const int end =
            s + 1 < starts.size() ? starts[s + 1] : num_kernels;
        const std::uint64_t key = segment_hash(begin, end);
        const std::vector<LocalTimes> *times = nullptr;
        const auto [lo, hi] = memo.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
            if (same_segment(it->second.begin, begin, end - begin)) {
                times = &it->second.times;
                ++result.counters.segment_hits;
                break;
            }
        }
        if (times == nullptr) {
            ++result.counters.segments;
            Memo entry{begin, simulate(begin, end, result.counters)};
            times = &memo.emplace(key, std::move(entry))->second.times;
        }
        double segment_end = release;
        for (int k = begin; k < end; ++k) {
            const KernelNode &node = kernels_[static_cast<std::size_t>(k)];
            const LocalTimes &local =
                (*times)[static_cast<std::size_t>(k - begin)];
            KernelStats stats;
            stats.name = node.launch.name;
            stats.stream = node.stream;
            stats.num_tbs = node.launch.num_tbs();
            stats.occupancy_per_sm = occupancy_per_sm(device_,
                                                      node.launch.shape);
            stats.ready_us = release + local.ready_us;
            stats.start_us = release + local.start_us;
            stats.end_us = release + local.end_us;
            stats.local_ready_us = local.ready_us;
            stats.local_start_us = local.start_us;
            stats.local_end_us = local.end_us;
            stats.avg_concurrency = local.avg_concurrency;
            stats.work = node.launch.total_work();
            stats.deps = node.deps;  // Sorted/deduplicated above.
            result.work += stats.work;
            segment_end = std::max(segment_end, stats.end_us);
            result.kernels.push_back(std::move(stats));
        }
        release = segment_end;
    }
    result.total_us = release;
    return result;
}

std::vector<GpuSim::LocalTimes>
GpuSim::simulate(int begin, int end, EngineCounters &total) const
{
    const int num_sms = device_.num_sms;
    const int num_kernels = end - begin;
    const auto node_of = [&](int k) -> const KernelNode & {
        return kernels_[static_cast<std::size_t>(begin + k)];
    };

    // ---- Clocks: [0] global DRAM, [1] global L2;
    //      per SM s at 2+3s: tensor pipe, CUDA pipe, SM memory burst.
    std::vector<Clock> clocks(static_cast<std::size_t>(2 + 3 * num_sms));
    clocks[0].rate = device_.dram_bytes_per_us();
    clocks[1].rate = device_.l2_bytes_per_us();
    for (int s = 0; s < num_sms; ++s) {
        clocks[static_cast<std::size_t>(2 + 3 * s + 0)].rate =
            device_.sm_tensor_flops_per_us();
        clocks[static_cast<std::size_t>(2 + 3 * s + 1)].rate =
            device_.sm_cuda_flops_per_us();
        clocks[static_cast<std::size_t>(2 + 3 * s + 2)].rate =
            device_.sm_dram_bytes_per_us();
    }
    // Two queues share one (t, seq) order: the clocks' live crossing
    // predictions, and every other event. A crossing wins a tie at equal
    // t. seq is one counter across both, so equal-time ties resolve in
    // submission order.
    ClockQueue predictions(static_cast<int>(clocks.size()));
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::uint64_t seq = 0;
    EngineCounters counters;

    const auto note_queue_length = [&] {
        counters.peak_queue = std::max<std::uint64_t>(
            counters.peak_queue, events.size() + predictions.live());
    };
    const auto push_event = [&](double t, int kind, int id) {
        events.push({t, seq++, kind, id});
        note_queue_length();
    };
    const auto set_prediction = [&](int clock_id, double t) {
        if (t < kInf) {
            predictions.set(clock_id, t, seq++);
            ++counters.predictions;
            note_queue_length();
        } else {
            predictions.set(clock_id, kInf, 0);
        }
    };
    const auto predict = [&](int clock_id) {
        set_prediction(clock_id,
                       clocks[static_cast<std::size_t>(clock_id)]
                           .next_crossing());
    };

    // ---- Kernel runtime state.
    // Kernels are numbered from the segment's first; dependencies on
    // earlier segments are met before it starts and do not count.
    std::vector<KernelRun> runs(static_cast<std::size_t>(num_kernels));
    std::vector<int> unresolved(static_cast<std::size_t>(num_kernels), 0);
    for (int k = 0; k < num_kernels; ++k) {
        const KernelNode &node = node_of(k);
        unresolved[static_cast<std::size_t>(k)] = static_cast<int>(
            node.deps.end() - local_deps(node.deps, begin));
        KernelRun &run = runs[static_cast<std::size_t>(k)];
        run.total_tbs = node.launch.num_tbs();
        run.occ = occupancy_per_sm(device_, node.launch.shape);
        const index_t slots =
            static_cast<index_t>(num_sms) * run.occ * kWaves;
        run.max_chunk = std::max<index_t>(1, run.total_tbs / slots);
    }

    std::vector<SmState> sms(static_cast<std::size_t>(num_sms));
    std::vector<Unit> units;
    std::vector<int> free_units;

    std::vector<int> issuable;  // Ready kernels with unemitted blocks.
    std::size_t issue_cursor = 0;

    int kernels_done = 0;

    const auto fits = [&](const SmState &sm, const TbShape &shape) {
        if (sm.slots + 1 > device_.max_tb_per_sm) {
            return false;
        }
        if (sm.threads + shape.threads > device_.max_threads_per_sm) {
            return false;
        }
        if (sm.smem + shape.smem_bytes > device_.smem_per_sm_bytes) {
            return false;
        }
        if (sm.regs + shape.threads * shape.regs_per_thread >
            device_.regs_per_sm) {
            return false;
        }
        return true;
    };

    const auto remove_issuable = [&](int kernel) {
        for (std::size_t i = 0; i < issuable.size(); ++i) {
            if (issuable[i] == kernel) {
                issuable.erase(issuable.begin() +
                               static_cast<std::ptrdiff_t>(i));
                if (issue_cursor > i) {
                    --issue_cursor;
                }
                return;
            }
        }
    };

    /// Admits one chunk of some issuable kernel onto SM `sm_id`.
    /// Returns true if a chunk was placed.
    const auto try_admit_one = [&](int sm_id, double now) -> bool {
        if (issuable.empty()) {
            return false;
        }
        SmState &sm = sms[static_cast<std::size_t>(sm_id)];
        for (std::size_t step = 0; step < issuable.size(); ++step) {
            const std::size_t pos =
                (issue_cursor + step) % issuable.size();
            const int k = issuable[pos];
            const KernelNode &node = node_of(k);
            KernelRun &run = runs[static_cast<std::size_t>(k)];
            if (!fits(sm, node.launch.shape)) {
                continue;
            }
            // Pop a chunk from the current group.
            const TbGroup &group = node.launch.tbs[run.group_idx];
            const index_t take = std::min(run.max_chunk,
                                          group.count - run.group_off);
            int unit_id;
            if (!free_units.empty()) {
                unit_id = free_units.back();
                free_units.pop_back();
            } else {
                unit_id = static_cast<int>(units.size());
                units.emplace_back();
            }
            Unit &unit = units[static_cast<std::size_t>(unit_id)];
            unit.kernel = k;
            unit.sm = sm_id;
            unit.tb_count = take;
            unit.pending = 0;
            unit.admit_t = now;
            unit.work.tensor_flops =
                group.work.tensor_flops * static_cast<double>(take);
            unit.work.cuda_flops =
                group.work.cuda_flops * static_cast<double>(take);
            unit.work.dram_read_bytes =
                group.work.dram_read_bytes * static_cast<double>(take);
            unit.work.dram_write_bytes =
                group.work.dram_write_bytes * static_cast<double>(take);
            unit.work.l2_bytes =
                group.work.l2_bytes * static_cast<double>(take);

            sm.slots += 1;
            sm.threads += node.launch.shape.threads;
            sm.smem += node.launch.shape.smem_bytes;
            sm.regs +=
                node.launch.shape.threads * node.launch.shape.regs_per_thread;

            run.emitted += take;
            run.group_off += take;
            if (run.group_off == group.count) {
                run.group_off = 0;
                ++run.group_idx;
            }
            run.start_t = std::min(run.start_t, now);
            if (run.emitted == run.total_tbs) {
                remove_issuable(k);
            } else {
                issue_cursor = (pos + 1) % std::max<std::size_t>(
                                              1, issuable.size());
            }

            const double activate_t =
                now + device_.tb_overhead_us * static_cast<double>(take);
            ++counters.units;
            push_event(activate_t, 2, unit_id);
            return true;
        }
        return false;
    };

    // Fill SMs least-loaded-first (the hardware work distributor steers
    // blocks to the emptiest SM, which is what lets a second stream land
    // on idle SMs instead of piling onto busy ones).
    std::vector<int> sm_order(static_cast<std::size_t>(num_sms));
    const auto fill_all_sms = [&](double now) {
        bool admitted = true;
        while (admitted) {
            admitted = false;
            for (int s = 0; s < num_sms; ++s) {
                sm_order[static_cast<std::size_t>(s)] = s;
            }
            std::stable_sort(sm_order.begin(), sm_order.end(),
                             [&](int a, int b) {
                                 return sms[static_cast<std::size_t>(a)]
                                            .slots <
                                        sms[static_cast<std::size_t>(b)]
                                            .slots;
                             });
            for (const int s : sm_order) {
                if (try_admit_one(s, now)) {
                    admitted = true;
                }
            }
        }
    };

    const auto finish_kernel = [&](int k, double now) {
        KernelRun &run = runs[static_cast<std::size_t>(k)];
        run.end_t = now;
        if (run.start_t == kInf) {
            run.start_t = now;  // Empty kernel: zero-duration at ready time.
        }
        ++kernels_done;
        for (const int child : node_of(k).children) {
            if (child >= end) {
                break;  // Children are ascending; later segments wait.
            }
            if (--unresolved[static_cast<std::size_t>(child - begin)] == 0) {
                push_event(now + device_.kernel_launch_us, 1, child - begin);
            }
        }
    };

    const auto complete_unit = [&](int unit_id, double now) {
        Unit &unit = units[static_cast<std::size_t>(unit_id)];
        const int k = unit.kernel;
        const KernelNode &node = node_of(k);
        KernelRun &run = runs[static_cast<std::size_t>(k)];
        SmState &sm = sms[static_cast<std::size_t>(unit.sm)];
        sm.slots -= 1;
        sm.threads -= node.launch.shape.threads;
        sm.smem -= node.launch.shape.smem_bytes;
        sm.regs -=
            node.launch.shape.threads * node.launch.shape.regs_per_thread;
        run.completed += unit.tb_count;
        run.unit_busy += now - unit.admit_t;
        const int freed_sm = unit.sm;
        unit.kernel = -1;
        free_units.push_back(unit_id);
        if (run.completed == run.total_tbs &&
            run.emitted == run.total_tbs) {
            finish_kernel(k, now);
        }
        while (try_admit_one(freed_sm, now)) {
        }
    };

    const auto activate_unit = [&](int unit_id, double now) {
        Unit &unit = units[static_cast<std::size_t>(unit_id)];
        const double comps[kNumComponents] = {
            unit.work.tensor_flops, unit.work.cuda_flops,
            unit.work.dram_bytes(), unit.work.mem_bytes(),
            unit.work.mem_bytes()};
        // Latency-bound cap: a lone block cannot saturate a pipe. Each
        // component has a fixed deadline at the capped private rate and is
        // done when both the shared progress clock crosses *and* its
        // private deadline passes. Only the latest deadline can be the
        // last thing a unit waits for, so one event stands for all.
        const KernelNode &node = node_of(unit.kernel);
        double cap = 1.0;
        if (device_.unit_saturation > 0) {
            cap = std::min(1.0, device_.unit_saturation *
                                    node.launch.shape.threads /
                                    device_.max_threads_per_sm);
        }
        if (cap < 1.0) {
            const double private_rates[kNumComponents] = {
                device_.sm_tensor_flops_per_us() * cap,
                device_.sm_cuda_flops_per_us() * cap,
                0,  // DRAM handled through the SM burst deadline below.
                0,
                device_.sm_dram_bytes_per_us() * cap};
            double deadline = -kInf;
            for (int comp = 0; comp < kNumComponents; ++comp) {
                if (comps[comp] > 0 && private_rates[comp] > 0) {
                    deadline = std::max(
                        deadline, now + comps[comp] / private_rates[comp]);
                }
            }
            if (deadline > -kInf) {
                ++unit.pending;
                push_event(deadline, 3, unit_id);
            }
        }
        for (int comp = 0; comp < kNumComponents; ++comp) {
            if (comps[comp] <= 0) {
                continue;
            }
            int clock_id;
            switch (comp) {
              case kCompDram:
                clock_id = 0;
                break;
              case kCompL2:
                clock_id = 1;
                break;
              case kCompMemSm:
                clock_id = 2 + 3 * unit.sm + 2;
                break;
              default:  // kCompTensor / kCompCuda.
                clock_id = 2 + 3 * unit.sm + comp;
                break;
            }
            Clock &c = clocks[static_cast<std::size_t>(clock_id)];
            c.advance(now);
            c.thresholds.push(
                {c.value + comps[comp],
                 static_cast<std::int64_t>(unit_id) * kNumComponents +
                     comp});
            ++unit.pending;
            predict(clock_id);
        }
        if (unit.pending == 0) {
            complete_unit(unit_id, now);
        }
    };

    // ---- Seed: kernels with no dependencies become ready after launch.
    for (int k = 0; k < num_kernels; ++k) {
        if (unresolved[static_cast<std::size_t>(k)] == 0) {
            push_event(device_.kernel_launch_us, 1, k);
        }
    }

    double now = 0;
    for (;;) {
        const bool clock_due =
            predictions.top_t() < kInf &&
            (events.empty() || predictions.top_t() <= events.top().t);
        if (!clock_due && events.empty()) {
            break;
        }
        const double t = clock_due ? predictions.top_t() : events.top().t;
        MG_CHECK(t >= now - 1e-6) << "simulator time went backwards";
        now = std::max(now, t);

        if (clock_due) {  // Clock crossing prediction.
            ++counters.clock_events;
            const int clock_id = predictions.top();
            Clock &c = clocks[static_cast<std::size_t>(clock_id)];
            const double next = c.next_crossing();
            if (next > t + 1e-9 * std::max(1.0, t)) {
                // Rounding moved the crossing later since it was
                // predicted: predict it again.
                ++counters.repredictions;
                set_prediction(clock_id, next);
                continue;
            }
            c.advance(now);
            // Fire every threshold crossed at this instant.
            const double limit =
                c.value + 1e-9 * std::max(1.0, std::abs(c.value));
            while (!c.thresholds.empty() &&
                   c.thresholds.top().first <= limit) {
                const std::int64_t tag = c.thresholds.top().second;
                c.thresholds.pop();
                ++counters.crossings;
                const int unit_id = static_cast<int>(tag / kNumComponents);
                Unit &unit = units[static_cast<std::size_t>(unit_id)];
                if (--unit.pending == 0) {
                    complete_unit(unit_id, now);
                }
            }
            predict(clock_id);
            continue;
        }

        const Event ev = events.top();
        events.pop();
        switch (ev.kind) {
          case 1: {  // Kernel ready.
            ++counters.ready_events;
            KernelRun &run = runs[static_cast<std::size_t>(ev.id)];
            run.ready_t = now;
            if (run.total_tbs == 0) {
                run.start_t = now;
                finish_kernel(ev.id, now);
            } else {
                issuable.push_back(ev.id);
                fill_all_sms(now);
            }
            break;
          }
          case 2: {  // Unit activation after its prologue.
            ++counters.activate_events;
            activate_unit(ev.id, now);
            break;
          }
          case 3: {  // Private (latency-bound) deadline passed.
            ++counters.deadline_events;
            Unit &unit = units[static_cast<std::size_t>(ev.id)];
            if (--unit.pending == 0) {
                complete_unit(ev.id, now);
            }
            break;
          }
        }
    }

    MG_CHECK(kernels_done == num_kernels)
        << "simulation ended with " << num_kernels - kernels_done
        << " kernels unfinished (dependency deadlock?)";

    // ---- Results, relative to the segment's release.
    total.add(counters);
    std::vector<LocalTimes> times(static_cast<std::size_t>(num_kernels));
    for (int k = 0; k < num_kernels; ++k) {
        const KernelRun &run = runs[static_cast<std::size_t>(k)];
        LocalTimes &t = times[static_cast<std::size_t>(k)];
        t.ready_us = run.ready_t;
        t.start_us = run.start_t;
        t.end_us = run.end_t;
        t.avg_concurrency = run.end_t > run.start_t
                                ? run.unit_busy / (run.end_t - run.start_t)
                                : 0;
    }
    return times;
}

}  // namespace multigrain::sim
