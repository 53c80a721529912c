// mgcheck — one static-analysis pass over every captured execution plan.
//
// Builds the plan units of the preset matrix (models x devices x slice
// modes x the eight composition units of plan_units.h) and proves each
// plan three ways over the LaunchGraph IR — the static analogue of
// running compute-sanitizer over every preset, exhaustive over schedules:
//
//  * lint (core/lint.h): no RAW/WAR/WAW hazard under the happens-before
//    order, plus advisory schedule lints (dead streams, redundant edges,
//    over-serializing joins, occupancy clamps, phase names);
//  * memory (core/memplan.h): the static arena plan, re-validated so no
//    two live-overlapping buffers alias, with its peak vs naive HBM
//    footprint;
//  * check (core/check.h): definedness (use-before-def, uninitialized
//    accumulation), liveness (dead stores, leaked temporaries),
//    per-kernel size consistency, and the arena-aliasing soundness proof
//    over that memory plan. Findings carry witness dependency chains.
//
// The --defect hooks are the gate's self-test: each seeds one concrete
// corruption into a copy of every applicable plan — dropping an init
// write, shrinking a kernel's SizedBuffer annotations, shifting an
// arena offset onto a live slot-mate — before the analyses run, and the
// run must exit 2 with a check finding naming the corrupted buffer,
// proving the analyzer would catch the real bug class.
//
// Exit status: 0 = every plan proven; 2 = a lint hazard, a check error
// or warning, an invalid memory plan, or a memory plan that pools
// nothing (lint warnings and infos are reported, never gated); 1 =
// usage/internal error (including a defect hook that fired nowhere or a
// seeded defect the analyzer missed).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "plan_units.h"

#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "core/check.h"
#include "core/launch_graph.h"
#include "core/lint.h"
#include "core/memplan.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "profiler/history.h"

namespace {

using namespace multigrain;

enum class Defect { kNone, kDropInit, kShrinkSize, kShiftOffset };

struct Options {
    std::vector<std::string> models = {"longformer", "qds", "bigbird",
                                       "poolingformer", "tiny"};
    std::vector<std::string> devices = {"a100", "rtx3090"};
    std::vector<std::string> modes = {"multigrain", "coarse-only",
                                      "fine-only", "dense"};
    unsigned seed = 2022;
    std::string out_dir = ".";
    std::string report_path;  ///< Relative paths resolve under out_dir.
    Defect defect = Defect::kNone;
    bool quiet = false;
    bool verbose = false;
};

/// One analyzed unit: where it came from, what each analysis said, and
/// (under --defect) what was corrupted.
struct UnitResult {
    std::string model;
    std::string device;
    std::string mode;
    std::string unit;
    LintReport lint;
    MemPlan plan;
    std::string mem_error;  ///< validate_memplan's message; empty = valid.
    CheckReport check;
    std::string corrupted;  ///< Buffer the defect hook corrupted, if any.
    bool defect_fired = false;

    bool valid() const { return mem_error.empty(); }
    bool unpooled() const { return valid() && plan.pooling_savings() == 0; }
};

/// Matrix-wide counts: the stdout summary, the report summary, and the
/// exit gate all read these.
struct Totals {
    std::size_t hazards = 0, lint_warnings = 0, lint_infos = 0;
    std::size_t invalid = 0, unpooled = 0;
    std::uint64_t naive = 0, peak = 0;
    std::size_t errors = 0, warnings = 0;
    std::size_t corrupted = 0, caught = 0;
    double min_ratio = 0, max_ratio = 0;

    explicit Totals(const std::vector<UnitResult> &all)
    {
        for (const UnitResult &r : all) {
            hazards += r.lint.hazards();
            lint_warnings += r.lint.count(LintSeverity::kWarning);
            lint_infos += r.lint.count(LintSeverity::kInfo);
            invalid += r.valid() ? 0 : 1;
            unpooled += r.unpooled() ? 1 : 0;
            naive += r.plan.naive_hbm_bytes();
            peak += r.plan.peak_hbm_bytes();
            errors += r.check.errors();
            warnings += r.check.count(CheckSeverity::kWarning);
            if (!r.corrupted.empty()) {
                ++corrupted;
                caught += r.defect_fired ? 1 : 0;
            }
            if (r.check.max_size_ratio > 0) {
                if (min_ratio == 0 || r.check.min_size_ratio < min_ratio) {
                    min_ratio = r.check.min_size_ratio;
                }
                if (r.check.max_size_ratio > max_ratio) {
                    max_ratio = r.check.max_size_ratio;
                }
            }
        }
    }

    bool gate_fails() const
    {
        return hazards > 0 || errors > 0 || warnings > 0 || invalid > 0 ||
               unpooled > 0;
    }
};

template <typename T>
std::int64_t
i64(T v)
{
    return static_cast<std::int64_t>(v);
}

const char *
defect_name(Defect d)
{
    switch (d) {
      case Defect::kNone: return "none";
      case Defect::kDropInit: return "drop-init";
      case Defect::kShrinkSize: return "shrink-size";
      case Defect::kShiftOffset: return "shift-offset";
    }
    return "?";
}

void
usage(std::ostream &os)
{
    os << "usage: mgcheck [options]\n"
          "\n"
          "Proves every captured execution plan across the preset matrix\n"
          "(models x devices x slice modes x composition units) three\n"
          "ways: race-free (lint), soundly pooled (memory plan), and\n"
          "well-defined (check). Findings carry witness dependency\n"
          "chains.\n"
          "\n"
          "  --models M1,M2    comma-separated subset of: longformer |"
          " qds | bigbird |\n"
          "                    poolingformer | tiny (default: all)\n"
          "  --devices D1,D2   subset of: a100 | rtx3090 (default: both)\n"
          "  --modes P1,P2     subset of: multigrain | coarse-only |"
          " fine-only | dense\n"
          "                    (default: all)\n"
          "  --seed S          workload sampling seed (default 2022)\n"
          "  --out-dir DIR     directory for artifacts (default .)\n"
          "  --report PATH     write the mgcheck.report JSON document\n"
          "                    (relative paths land under --out-dir)\n"
          "  --defect KIND     seed one corruption into a copy of every\n"
          "                    applicable plan and require the analyzer\n"
          "                    to catch it: drop-init | shrink-size |\n"
          "                    shift-offset\n"
          "  --quiet           only print the final summary line\n"
          "  --verbose         also print info findings, per-plan check\n"
          "                    stats, and arena maps\n"
          "  --help            this text\n";
}

Options
parse_args(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            MG_CHECK(i + 1 < argc) << arg << " needs a value";
            return argv[++i];
        };
        if (arg == "--models") {
            opt.models = bench::split_csv(next());
        } else if (arg == "--devices") {
            opt.devices = bench::split_csv(next());
        } else if (arg == "--modes") {
            opt.modes = bench::split_csv(next());
        } else if (arg == "--seed") {
            opt.seed = static_cast<unsigned>(std::stoul(next()));
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
            MG_CHECK(!opt.out_dir.empty()) << "--out-dir must be non-empty";
        } else if (arg == "--report") {
            opt.report_path = next();
        } else if (arg == "--defect") {
            const std::string kind = next();
            if (kind == "drop-init") {
                opt.defect = Defect::kDropInit;
            } else if (kind == "shrink-size") {
                opt.defect = Defect::kShrinkSize;
            } else if (kind == "shift-offset") {
                opt.defect = Defect::kShiftOffset;
            } else {
                throw Error("unknown --defect \"" + kind +
                            "\" (drop-init | shrink-size | shift-offset)");
            }
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
            set_log_level(LogLevel::kInfo);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else {
            usage(std::cerr);
            throw Error("unknown argument \"" + arg + "\"");
        }
    }
    return opt;
}

// ---- Seeded-defect corruption hooks ---------------------------------------

/// drop-init: finds a (writer, reader) pair on a plan-local undeclared
/// buffer where the writer is the *only* write ordered before the
/// reader, and removes that write from the writer's annotation — the
/// exact bug of a phase builder forgetting to record its store. Returns
/// the corrupted buffer's name, or "" when the unit has no candidate.
std::string
seed_drop_init(LaunchGraph &graph)
{
    const std::vector<LaunchGraphNode> &nodes = graph.nodes();
    const HappensBefore hb(nodes);

    struct Uses {
        std::vector<int> writers;
        std::vector<int> readers;
        unsigned flags = 0;
    };
    std::map<std::string, std::pair<sim::BufferId, Uses>> uses;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const sim::KernelLaunch &l = nodes[n].launch;
        for (std::size_t i = 0; i < l.writes.size(); ++i) {
            const sim::BufferId id = l.writes[i];
            if (!sim::buffer_is_plan_local(id)) {
                continue;
            }
            auto &u = uses[sim::buffer_name(id)];
            u.first = id;
            u.second.writers.push_back(static_cast<int>(n));
            if (i < l.write_flags.size()) {
                u.second.flags |= l.write_flags[i];
            }
        }
        for (std::size_t i = 0; i < l.reads.size(); ++i) {
            const sim::BufferId id = l.reads[i];
            if (!sim::buffer_is_plan_local(id)) {
                continue;
            }
            auto &u = uses[sim::buffer_name(id)];
            u.first = id;
            u.second.readers.push_back(static_cast<int>(n));
            if (i < l.read_flags.size()) {
                u.second.flags |= l.read_flags[i];
            }
        }
    }
    for (const auto &[name, entry] : uses) {
        const auto &[id, u] = entry;
        if ((u.flags & (sim::kBufInput | sim::kBufZeroInit)) != 0) {
            continue;  // Declared inbound: dropping a write is legal.
        }
        for (const int w : u.writers) {
            for (const int r : u.readers) {
                if (r == w || !hb.ordered(w, r)) {
                    continue;
                }
                bool sole_definer = true;
                for (const int w2 : u.writers) {
                    if (w2 != w && w2 != r && hb.ordered(w2, r)) {
                        sole_definer = false;
                        break;
                    }
                }
                if (!sole_definer) {
                    continue;
                }
                // Drop the id (and its parallel entries) from w's writes.
                sim::KernelLaunch &launch = graph.launch_for_test(w);
                for (std::size_t i = 0; i < launch.writes.size(); ++i) {
                    if (launch.writes[i] != id) {
                        continue;
                    }
                    launch.writes.erase(launch.writes.begin() +
                                        static_cast<std::ptrdiff_t>(i));
                    if (i < launch.write_bytes.size()) {
                        launch.write_bytes.erase(
                            launch.write_bytes.begin() +
                            static_cast<std::ptrdiff_t>(i));
                    }
                    if (i < launch.write_flags.size()) {
                        launch.write_flags.erase(
                            launch.write_flags.begin() +
                            static_cast<std::ptrdiff_t>(i));
                    }
                    break;
                }
                return name;
            }
        }
    }
    return "";
}

/// shrink-size: collapses every SizedBuffer annotation on the kernel
/// with the largest annotated footprint to a single byte — the exact
/// bug of a plan site sizing a buffer with the wrong dimensions.
/// Returns the name of the kernel's largest buffer, or "".
std::string
seed_shrink_size(LaunchGraph &graph)
{
    const std::vector<LaunchGraphNode> &nodes = graph.nodes();
    int victim = -1;
    std::uint64_t best = 0;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const sim::KernelLaunch &l = nodes[n].launch;
        std::uint64_t sum = 0;
        for (const std::uint64_t b : l.read_bytes) {
            sum += b;
        }
        for (const std::uint64_t b : l.accum_bytes) {
            sum += b;
        }
        for (const std::uint64_t b : l.write_bytes) {
            sum += b;
        }
        if (sum > best && l.total_work().mem_bytes() > 0) {
            best = sum;
            victim = static_cast<int>(n);
        }
    }
    if (victim < 0) {
        return "";
    }
    sim::KernelLaunch &l = graph.launch_for_test(victim);
    const auto shrink = [](std::vector<std::uint64_t> &bytes) {
        for (std::uint64_t &b : bytes) {
            if (b > 0) {
                b = 1;
            }
        }
    };
    shrink(l.read_bytes);
    shrink(l.accum_bytes);
    shrink(l.write_bytes);
    // Post-shrink every sized entry is 1 byte, so the finding will name
    // the kernel's *first* sized buffer in reads/accums/writes order —
    // predict exactly that one so the self-check stays a name match.
    sim::BufferId named = sim::kNoBuffer;
    const auto first_sized = [&](const std::vector<sim::BufferId> &ids,
                                 const std::vector<std::uint64_t> &bytes) {
        for (std::size_t i = 0;
             named == sim::kNoBuffer && i < ids.size() && i < bytes.size();
             ++i) {
            if (bytes[i] > 0) {
                named = ids[i];
            }
        }
    };
    first_sized(l.reads, l.read_bytes);
    first_sized(l.accums, l.accum_bytes);
    first_sized(l.writes, l.write_bytes);
    return named == sim::kNoBuffer ? "" : sim::buffer_name(named);
}

/// shift-offset: moves one pooled buffer's arena offset onto a live
/// slot-mate's — two buffers that interfere (some accesses unordered)
/// made to share bytes, the exact bug of an off-by-one in the planner's
/// first-fit walk. Mutates `plan`; returns the shifted buffer's name,
/// or "" when every pooled pair is strictly ordered (single-stream
/// plans).
std::string
seed_shift_offset(const LaunchGraph &graph, MemPlan &plan)
{
    const HappensBefore hb(graph.nodes());
    const auto interferes = [&](const MemPlanBuffer &a,
                                const MemPlanBuffer &b) {
        for (const int u : a.uses) {
            for (const int v : b.uses) {
                if (u != v && !hb.ordered(u, v) && !hb.ordered(v, u)) {
                    return true;
                }
            }
        }
        return false;
    };
    for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
        const MemPlanBuffer &a = plan.buffers[i];
        if (a.cls != BufferClass::kPooled || a.bytes == 0) {
            continue;
        }
        for (std::size_t j = i + 1; j < plan.buffers.size(); ++j) {
            MemPlanBuffer &b = plan.buffers[j];
            if (b.cls != BufferClass::kPooled || b.bytes == 0) {
                continue;
            }
            const bool disjoint = a.offset + a.bytes <= b.offset ||
                                  b.offset + b.bytes <= a.offset;
            if (!disjoint || !interferes(a, b)) {
                continue;
            }
            b.offset = a.offset;
            return b.name;
        }
    }
    return "";
}

// ---- Analysis -------------------------------------------------------------

/// Runs lint, the memory planner and the checker over one unit. Under
/// --defect the corruption is seeded first — into a copy of the graph,
/// or into the fresh memory plan for shift-offset — so every analysis
/// sees the corrupted unit.
void
analyze_unit(UnitResult &r, const Options &opt,
             const sim::DeviceSpec &device, const LaunchGraph &graph)
{
    LaunchGraph corrupted;
    const LaunchGraph *subject = &graph;
    if (opt.defect == Defect::kDropInit ||
        opt.defect == Defect::kShrinkSize) {
        corrupted = graph;
        r.corrupted = opt.defect == Defect::kDropInit
                          ? seed_drop_init(corrupted)
                          : seed_shrink_size(corrupted);
        subject = &corrupted;
    }

    LintOptions lopt;
    lopt.device = &device;
    r.lint = lint_graph(*subject, lopt);

    r.plan = plan_memory(*subject);
    if (opt.defect == Defect::kShiftOffset) {
        r.corrupted = seed_shift_offset(*subject, r.plan);
    }
    try {
        validate_memplan(*subject, r.plan);
    } catch (const MemPlanError &e) {
        r.mem_error = e.what();
    }

    CheckOptions copt;
    copt.memplan = &r.plan;
    r.check = check_graph(*subject, copt);

    if (!r.corrupted.empty()) {
        for (const CheckFinding &f : r.check.findings) {
            if (f.severity == CheckSeverity::kError &&
                f.buffer == r.corrupted) {
                r.defect_fired = true;
                break;
            }
        }
    }
}

// ---- Console output -------------------------------------------------------

void
print_unit(const UnitResult &r, const Options &opt)
{
    const std::size_t lint_warnings = r.lint.count(LintSeverity::kWarning);
    const bool noisy = opt.verbose || r.lint.hazards() > 0 ||
                       lint_warnings > 0 || !r.valid() || r.unpooled() ||
                       !r.check.clean() || !r.corrupted.empty();
    if (opt.quiet || !noisy) {
        return;
    }
    std::printf("%s | %s | %s | %s: %zu nodes, %d streams, %zu buffers",
                r.model.c_str(), r.device.c_str(), r.mode.c_str(),
                r.unit.c_str(), r.lint.num_nodes, r.lint.num_streams,
                r.plan.buffers.size());
    if (!r.corrupted.empty()) {
        std::printf(" [corrupted %s: %s]", r.corrupted.c_str(),
                    r.defect_fired ? "caught" : "MISSED");
    }

    std::printf("\n  lint: %s\n", r.lint.summary().c_str());
    for (const LintFinding &f : r.lint.findings) {
        if (f.severity != LintSeverity::kInfo || opt.verbose) {
            std::printf("    [%s] %s: %s\n", to_string(f.severity),
                        to_string(f.kind), f.message.c_str());
        }
    }
    const std::size_t infos = r.lint.count(LintSeverity::kInfo);
    if (infos > 0 && !opt.verbose) {
        std::printf("    (%zu info finding%s; --verbose to list)\n", infos,
                    infos == 1 ? "" : "s");
    }

    std::printf("  memory: naive %llu, peak %llu bytes (%.1f%% pooled)%s%s\n",
                static_cast<unsigned long long>(r.plan.naive_hbm_bytes()),
                static_cast<unsigned long long>(r.plan.peak_hbm_bytes()),
                100.0 * r.plan.pooling_savings(),
                r.valid() ? "" : " — INVALID: ", r.mem_error.c_str());
    if (opt.verbose) {
        for (const MemPlanBuffer &b : r.plan.buffers) {
            if (b.cls == BufferClass::kPooled) {
                std::printf("    [%8llu, %8llu) n%03d-n%03d  %s\n",
                            static_cast<unsigned long long>(b.offset),
                            static_cast<unsigned long long>(b.offset +
                                                            b.bytes),
                            b.first_use, b.last_use, b.name.c_str());
            }
        }
    }

    std::printf("  check: %s", r.check.summary().c_str());
    if (opt.verbose && r.check.max_size_ratio > 0) {
        std::printf(" (size ratio %.3g..%.3g)", r.check.min_size_ratio,
                    r.check.max_size_ratio);
    }
    std::printf("\n");
    for (const CheckFinding &f : r.check.findings) {
        std::printf("    [%s] %s\n", to_string(f.severity),
                    f.message.c_str());
    }
}

void
print_summary(const Totals &t, std::size_t plans, const Options &opt)
{
    std::printf("mgcheck: %zu plan%s — lint: %zu hazard(s), %zu"
                " warning(s), %zu info(s); memory: naive %llu, peak %llu"
                " bytes (saved %llu), %zu invalid, %zu unpooled; check:"
                " %zu error(s), %zu warning(s)",
                plans, plans == 1 ? "" : "s", t.hazards, t.lint_warnings,
                t.lint_infos, static_cast<unsigned long long>(t.naive),
                static_cast<unsigned long long>(t.peak),
                static_cast<unsigned long long>(t.naive - t.peak),
                t.invalid, t.unpooled, t.errors, t.warnings);
    if (opt.defect != Defect::kNone) {
        std::printf(", defect %s seeded into %zu (%zu missed)",
                    defect_name(opt.defect), t.corrupted,
                    t.corrupted - t.caught);
    }
    if (opt.verbose && t.max_ratio > 0) {
        std::printf(", size ratios %.3g..%.3g", t.min_ratio, t.max_ratio);
    }
    std::printf("\n");
}

// ---- Report ---------------------------------------------------------------

void
write_ints(JsonWriter &w, const char *key, const std::vector<int> &ints)
{
    w.key(key);
    w.begin_array();
    for (const int n : ints) {
        w.value(n);
    }
    w.end_array();
}

/// Lint and check findings share one shape: kind, severity, the two
/// endpoint nodes, the buffer, and a witness chain to each endpoint.
template <typename Finding>
void
write_findings(JsonWriter &w, const std::vector<Finding> &findings)
{
    w.key("findings");
    w.begin_array();
    for (const Finding &f : findings) {
        w.begin_object();
        w.field("kind", to_string(f.kind));
        w.field("severity", to_string(f.severity));
        w.field("node_a", f.node_a);
        w.field("node_b", f.node_b);
        w.field("buffer", f.buffer);
        write_ints(w, "witness_a", f.witness_a);
        write_ints(w, "witness_b", f.witness_b);
        w.field("message", f.message);
        w.end_object();
    }
    w.end_array();
}

void
write_memory(JsonWriter &w, const UnitResult &r)
{
    const MemPlan &plan = r.plan;
    w.key("memory");
    w.begin_object();
    w.field("valid", r.valid());
    if (!r.valid()) {
        w.field("error", r.mem_error);
    }
    w.field("nodes", i64(plan.num_nodes));
    w.field("buffers", i64(plan.buffers.size()));
    w.field("arena_bytes", i64(plan.arena_bytes));
    w.field("external_bytes", i64(plan.external_bytes));
    w.field("naive_hbm_bytes", i64(plan.naive_hbm_bytes()));
    w.field("peak_hbm_bytes", i64(plan.peak_hbm_bytes()));
    w.field("pooling_savings", plan.pooling_savings());
    w.key("arena");
    w.begin_array();
    for (const MemPlanBuffer &b : plan.buffers) {
        if (b.cls != BufferClass::kPooled) {
            continue;
        }
        w.begin_object();
        w.field("name", b.name);
        w.field("bytes", i64(b.bytes));
        w.field("offset", i64(b.offset));
        w.field("first_use", b.first_use);
        w.field("last_use", b.last_use);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

void
write_report(const std::string &path, const Options &opt,
             const std::vector<UnitResult> &all, const Totals &t)
{
    std::ofstream file(path);
    MG_CHECK(file.good()) << "cannot open " << path << " for writing";
    JsonWriter w(file);
    w.begin_object();
    w.field("schema", "mgcheck.report");
    w.field("version", 2);
    w.key("manifest");
    prof::write_manifest(w, prof::RunManifest::collect());
    w.field("defect", defect_name(opt.defect));
    w.key("plans");
    w.begin_array();
    for (const UnitResult &r : all) {
        w.begin_object();
        w.field("model", r.model);
        w.field("device", r.device);
        w.field("mode", r.mode);
        w.field("unit", r.unit);
        if (!r.corrupted.empty()) {
            w.field("corrupted", r.corrupted);
            w.field("defect_fired", r.defect_fired);
        }

        w.key("lint");
        w.begin_object();
        w.field("nodes", i64(r.lint.num_nodes));
        w.field("streams", r.lint.num_streams);
        w.field("edges", i64(r.lint.num_edges));
        w.field("hazards", i64(r.lint.hazards()));
        write_findings(w, r.lint.findings);
        w.end_object();

        write_memory(w, r);

        w.key("check");
        w.begin_object();
        w.field("nodes", i64(r.check.num_nodes));
        w.field("buffers", i64(r.check.num_buffers));
        w.field("errors", i64(r.check.errors()));
        w.field("warnings", i64(r.check.count(CheckSeverity::kWarning)));
        if (r.check.max_size_ratio > 0) {
            w.field("min_size_ratio", r.check.min_size_ratio);
            w.field("max_size_ratio", r.check.max_size_ratio);
        }
        write_findings(w, r.check.findings);
        w.end_object();
        w.end_object();
    }
    w.end_array();

    w.key("summary");
    w.begin_object();
    w.field("plans", i64(all.size()));
    w.field("corrupted", i64(t.corrupted));
    w.field("caught", i64(t.caught));
    w.key("lint");
    w.begin_object();
    w.field("hazards", i64(t.hazards));
    w.field("warnings", i64(t.lint_warnings));
    w.field("infos", i64(t.lint_infos));
    w.end_object();
    w.key("memory");
    w.begin_object();
    w.field("invalid", i64(t.invalid));
    w.field("unpooled", i64(t.unpooled));
    w.field("naive_hbm_bytes", i64(t.naive));
    w.field("peak_hbm_bytes", i64(t.peak));
    w.end_object();
    w.key("check");
    w.begin_object();
    w.field("errors", i64(t.errors));
    w.field("warnings", i64(t.warnings));
    w.end_object();
    w.end_object();
    w.end_object();
}

/// Reads `path` back and parses it, so a truncated or malformed report
/// fails the run instead of silently passing CI.
void
validate_report(const std::string &path)
{
    std::ifstream file(path);
    MG_CHECK(file.good()) << "cannot reopen " << path;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const JsonValue doc = json_parse(buffer.str());
    MG_CHECK(doc.is_object()) << path << ": top level is not an object";
    MG_CHECK(doc.at("schema").as_string() == "mgcheck.report")
        << path << ": schema is not \"mgcheck.report\"";
    MG_CHECK(doc.at("manifest").is_object())
        << path << ": manifest is not an object";
    MG_CHECK(doc.at("plans").is_array())
        << path << ": plans is not an array";
    MG_CHECK(doc.at("summary").is_object())
        << path << ": summary is not an object";
}

int
run(const Options &opt)
{
    // Capture-time enforcement would reject the very plans a defect run
    // needs to build (and, in debug builds, abort the clean matrix on
    // the first hypothetical regression instead of reporting it all);
    // this tool's job is to report, so capture everything.
    setenv("MULTIGRAIN_LINT", "0", 1);
    setenv("MULTIGRAIN_CHECK", "0", 1);

    std::vector<UnitResult> all;
    for (const std::string &model : opt.models) {
        for (const std::string &device : opt.devices) {
            const sim::DeviceSpec spec = sim::device_spec_by_name(device);
            for (const std::string &mode : opt.modes) {
                tools::for_each_plan_unit(
                    opt.seed, model, device, mode,
                    [&](const std::string &unit, const LaunchGraph &graph) {
                        UnitResult r;
                        r.model = model;
                        r.device = device;
                        r.mode = mode;
                        r.unit = unit;
                        analyze_unit(r, opt, spec, graph);
                        print_unit(r, opt);
                        all.push_back(std::move(r));
                    });
                // Each combo's plans are one-shot here; don't let the
                // full matrix accumulate in the process-wide cache.
                PlanCache::instance().clear();
            }
        }
    }

    const Totals totals(all);
    print_summary(totals, all.size(), opt);

    if (!opt.report_path.empty()) {
        const std::string path =
            bench::resolve_out_path(opt.out_dir, opt.report_path);
        write_report(path, opt, all, totals);
        validate_report(path);
        if (!opt.quiet) {
            std::printf("wrote %s\n", path.c_str());
        }
    }

    if (opt.defect != Defect::kNone) {
        // The self-test must both corrupt something and catch every
        // corruption it seeded; a hook that never applied, or a seeded
        // bug the analyzer missed, is an internal error — not a finding.
        if (totals.corrupted == 0 || totals.caught < totals.corrupted) {
            std::fprintf(stderr,
                         "mgcheck: defect self-test failed: %zu seeded,"
                         " %zu missed\n",
                         totals.corrupted, totals.corrupted - totals.caught);
            return 1;
        }
    }
    return totals.gate_fails() ? 2 : 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const ValidationError &e) {
        std::fprintf(stderr, "mgcheck: validation error: %s\n", e.what());
        return 2;
    } catch (const Error &e) {
        std::fprintf(stderr, "mgcheck: error: %s\n", e.what());
        return 1;
    }
}
