#ifndef MULTIGRAIN_PROFILER_EXPORT_H_
#define MULTIGRAIN_PROFILER_EXPORT_H_

#include <iosfwd>
#include <string>

#include "common/json.h"
#include "gpusim/engine.h"
#include "gpusim/report.h"
#include "profiler/metrics.h"

/// Machine-readable export of simulator results and profiles.
///
/// Every JSON document carries a `schema` tag ("mgprof.simresult",
/// "mgprof.report", "mgprof.profile") and a `schema_version` integer.
/// The version is bumped when a field changes meaning or disappears;
/// adding fields is backward-compatible and does not bump it. Tests pin
/// the current version so schema drift is a deliberate act.
///
/// Non-finite metric values (e.g. the arithmetic intensity of a kernel
/// with zero DRAM traffic) are emitted as JSON null.
namespace multigrain::prof {

inline constexpr int kSchemaVersion = 1;
inline constexpr const char *kSimResultSchema = "mgprof.simresult";
inline constexpr const char *kReportSchema = "mgprof.report";
inline constexpr const char *kProfileSchema = "mgprof.profile";
inline constexpr const char *kBenchSchema = "mgprof.bench";

/// The bench schema has its own version: v2 added the RunManifest header
/// ("manifest" object: git sha/dirty, device, timestamp) to every
/// artifact. The row schema is unchanged from v1, and v1 documents (no
/// manifest) are still readable — prof::bench_run_from_json substitutes
/// an "unknown" manifest.
inline constexpr int kBenchSchemaVersion = 2;

/// mgperf's regression-report document ("mgperf.report").
inline constexpr const char *kRegressionSchema = "mgperf.report";
inline constexpr int kRegressionSchemaVersion = 1;

/// The serving-trace documents mgserve writes (src/serve/trace.h): the
/// SLO-attribution report, the event-log lines, and the flight-recorder
/// incident dumps all tag themselves so artifacts remain
/// self-describing when they leave the build tree.
inline constexpr const char *kServeTraceReportSchema = "mgtrace.report";
inline constexpr int kServeTraceReportVersion = 1;
inline constexpr const char *kServeIncidentSchema = "mgtrace.incident";
inline constexpr int kServeIncidentVersion = 1;

/// The per-tenant cost-attribution report mgserve writes
/// (src/serve/cost.h).
inline constexpr const char *kServeCostReportSchema = "mgcost.report";
inline constexpr int kServeCostReportVersion = 1;

/// The fleet report mgserve writes (src/serve/cluster.h): per-replica serving
/// summaries, router counters, the merged tenant ledger, and the
/// fleet-wide conservation verdict.
inline constexpr const char *kClusterReportSchema = "mgcluster.report";
inline constexpr int kClusterReportVersion = 1;

// ---- JSON ---------------------------------------------------------------

void write_json(const sim::SimResult &result, std::ostream &os);
void write_json(const sim::WorkloadReport &report, std::ostream &os);
void write_json(const ProfiledRun &run, std::ostream &os);

std::string to_json(const sim::SimResult &result);
std::string to_json(const sim::WorkloadReport &report);
std::string to_json(const ProfiledRun &run);

/// Reads back a SimResult emitted by write_json (round-trip). Validates
/// the schema tag and version; throws Error on mismatch or malformed
/// input.
sim::SimResult sim_result_from_json(const JsonValue &doc);
sim::SimResult sim_result_from_json(const std::string &text);

// ---- CSV ----------------------------------------------------------------

/// Carved phases, one row per phase (ops then subphases then layers,
/// tagged by a `group` column); columns come from phase_metric_registry().
void write_phase_csv(const ProfiledRun &run, std::ostream &os);

/// Per-kernel characterization rows.
void write_kernel_csv(const sim::WorkloadReport &report, std::ostream &os);

// ---- Files --------------------------------------------------------------

/// Writes `content` to `path`; throws Error on I/O failure.
void write_text_file(const std::string &path, const std::string &content);

}  // namespace multigrain::prof

#endif  // MULTIGRAIN_PROFILER_EXPORT_H_
