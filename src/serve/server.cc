#include "serve/server.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"
#include "serve/cluster.h"
#include "serve/trace.h"
#include "transformer/config.h"
#include "transformer/workload.h"

namespace multigrain::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Event shorthand for the guarded emissions below: every call site
/// already checked trace_ != nullptr, so the helpers only assemble the
/// record.
TraceEvent
request_event(TraceEventKind kind, double t_us, const Request &r)
{
    TraceEvent e;
    e.kind = kind;
    e.t_us = t_us;
    e.request = static_cast<std::int64_t>(r.id);
    return e;
}

/// The plan-holder key of one batch shape: runners, footprints, and
/// round compositions are all keyed on it.
std::string
runner_key(const std::string &model, SliceMode mode, index_t bucket,
           int planned_batch)
{
    return model + "|" + to_string(mode) + "|bucket=" +
           std::to_string(bucket) + "|batch=" + std::to_string(planned_batch);
}

/// tiny: the gate preset — Poisson traffic over the tiny test model with
/// three tenants across all SLO classes, sized so batches form (arrival
/// interval well below the round time) without overflowing the queue.
ServeConfig
preset_tiny()
{
    ServeConfig c;
    c.preset = "tiny";
    c.traffic.arrivals = ArrivalProcess::kPoisson;
    c.traffic.rate_rps = 20000;
    c.traffic.num_requests = 64;
    c.traffic.seed = 2022;
    c.traffic.models = {"tiny"};
    c.traffic.min_len = 16;
    c.traffic.tenants = {{"alice", 2.0, SloClass::kInteractive},
                         {"bob", 2.0, SloClass::kStandard},
                         {"carol", 1.0, SloClass::kBatch}};
    c.traffic.slo_budget_us[static_cast<int>(SloClass::kInteractive)] =
        600;
    c.traffic.slo_budget_us[static_cast<int>(SloClass::kStandard)] = 2000;
    c.admission.queue_capacity = 32;
    c.scheduler.max_batch = 4;
    c.scheduler.bucket_granularity = 64;
    c.scheduler.max_concurrent_batches = 2;
    return c;
}

/// steady: QDS-Transformer under moderate open-loop load with mixed
/// document lengths — the bucket-spread workload (512-token buckets).
ServeConfig
preset_steady()
{
    ServeConfig c;
    c.preset = "steady";
    c.traffic.arrivals = ArrivalProcess::kPoisson;
    c.traffic.rate_rps = 250;
    c.traffic.num_requests = 24;
    c.traffic.seed = 2022;
    c.traffic.models = {"qds"};
    c.traffic.min_len = 256;
    c.traffic.tenants = {{"search", 3.0, SloClass::kInteractive},
                         {"archive", 1.0, SloClass::kBatch}};
    c.traffic.slo_budget_us[static_cast<int>(SloClass::kInteractive)] =
        30000;
    c.admission.queue_capacity = 64;
    c.scheduler.max_batch = 2;
    c.scheduler.bucket_granularity = 512;
    c.scheduler.max_concurrent_batches = 2;
    return c;
}

/// overload: arrivals far beyond service capacity into a tight queue —
/// the admission-control preset. Must shed (tests assert a nonzero
/// rejected count and a max depth at the configured bound).
ServeConfig
preset_overload()
{
    ServeConfig c;
    c.preset = "overload";
    c.traffic.arrivals = ArrivalProcess::kPoisson;
    c.traffic.rate_rps = 100000;
    c.traffic.num_requests = 60;
    c.traffic.seed = 2022;
    c.traffic.models = {"tiny"};
    c.traffic.min_len = 16;
    c.traffic.tenants = {{"flood", 4.0, SloClass::kStandard},
                         {"victim", 1.0, SloClass::kInteractive}};
    c.traffic.slo_budget_us[static_cast<int>(SloClass::kInteractive)] =
        400;
    c.admission.queue_capacity = 8;
    c.admission.max_queue_wait_us = 1500;
    c.scheduler.max_batch = 2;
    c.scheduler.bucket_granularity = 64;
    c.scheduler.max_concurrent_batches = 1;
    return c;
}

/// closed: a closed loop of clients with think time — self-throttling
/// traffic whose arrival times depend on completions (the feedback path
/// of TrafficSource::on_completion).
ServeConfig
preset_closed()
{
    ServeConfig c;
    c.preset = "closed";
    c.traffic.arrivals = ArrivalProcess::kClosedLoop;
    c.traffic.concurrency = 6;
    c.traffic.think_time_us = 50;
    c.traffic.num_requests = 36;
    c.traffic.seed = 2022;
    c.traffic.models = {"tiny"};
    c.traffic.min_len = 16;
    c.traffic.tenants = {{"loop", 1.0, SloClass::kStandard}};
    c.admission.queue_capacity = 16;
    c.scheduler.max_batch = 4;
    c.scheduler.bucket_granularity = 64;
    c.scheduler.max_concurrent_batches = 2;
    return c;
}

/// memtight: the tiny traffic shape against an artificially small HBM
/// allowance — the byte-budget preset. Requests are priced by their
/// bucketed single-request MemPlan peak; admission sheds on projected
/// queue bytes (tests assert shed_memory > 0) and round formation packs
/// batches to a per-round byte budget, so both byte valves are
/// exercised by one deterministic run. The budgets are expressed as
/// multiples of the tiny model's bucket-64 single-request footprint
/// (~0.5 MB plan peak x layers) rather than a real device capacity —
/// tiny-model plans would never pressure 80 GB.
ServeConfig
preset_memtight()
{
    ServeConfig c = preset_tiny();
    c.preset = "memtight";
    // Queue holds ~3 priced requests' worth of projected bytes (a
    // bucket-64 single-request plan peaks at ~430 KB x layers); the
    // round budget fits one modest batch but not the full two-batch
    // round the tiny preset dispatches (~2.4 MiB).
    c.admission.hbm_budget_bytes = 1280ull << 10;      // 1.25 MiB.
    c.scheduler.round_hbm_budget_bytes = 768ull << 10;  // 0.75 MiB.
    return c;
}

/// noisy: the tiny traffic shape plus a misbehaving fourth tenant whose
/// weight claims most of the offered load but whose token bucket only
/// admits 2000 req/s with a 2-token burst — the rate-limiting preset.
/// The bucket throttles "hog" at the door (tests assert its
/// shed_ratelimit > 0) while the victims' tail latency stays bounded.
ServeConfig
preset_noisy()
{
    ServeConfig c = preset_tiny();
    c.preset = "noisy";
    c.traffic.num_requests = 96;
    c.traffic.tenants = {
        {"alice", 2.0, SloClass::kInteractive},
        {"bob", 2.0, SloClass::kStandard},
        {"carol", 1.0, SloClass::kBatch},
        {"hog", 8.0, SloClass::kBatch, /*rate_rps=*/2000, /*burst=*/2},
    };
    return c;
}

}  // namespace

const std::vector<ServePresetInfo> &
serve_presets()
{
    static const std::vector<ServePresetInfo> presets = {
        {"tiny", "Poisson traffic, tiny model, 3 tenants / 3 SLO classes "
                 "(the gated preset)"},
        {"steady", "QDS-Transformer, moderate Poisson load, 512-token "
                   "buckets"},
        {"overload", "arrivals beyond capacity into a tight queue — "
                     "sheds and times out"},
        {"closed", "closed loop of 6 clients with think time"},
        {"memtight", "tiny traffic under a small HBM budget — sheds on "
                     "memory and packs rounds to bytes"},
        {"noisy", "tiny traffic plus a rate-limited hog tenant — the "
                  "token-bucket / noisy-neighbor preset"},
    };
    return presets;
}

ServeConfig
serve_preset_by_name(const std::string &name)
{
    if (name == "tiny") {
        return preset_tiny();
    }
    if (name == "steady") {
        return preset_steady();
    }
    if (name == "overload") {
        return preset_overload();
    }
    if (name == "closed") {
        return preset_closed();
    }
    if (name == "memtight") {
        return preset_memtight();
    }
    if (name == "noisy") {
        return preset_noisy();
    }
    throw Error("unknown serve preset \"" + name +
                "\" (tiny|steady|overload|closed|memtight|noisy)");
}

Server::Server(ServeConfig config, sim::DeviceSpec device)
    : config_(std::move(config)), device_(std::move(device))
{
}

TransformerRunner &
Server::runner_for(const std::string &model, SliceMode mode,
                   index_t bucket, int planned_batch)
{
    std::unique_ptr<TransformerRunner> &slot =
        runners_[runner_key(model, mode, bucket, planned_batch)];
    if (slot == nullptr) {
        const ModelConfig bucketed =
            bucketed_model(model_config_by_name(model), bucket);
        slot = std::make_unique<TransformerRunner>(
            bucketed, mode, canonical_bucket_sample(bucketed, bucket),
            planned_batch);
    }
    return *slot;
}

TransformerRunner &
Server::runner_for(const Batch &batch)
{
    return runner_for(batch.model, batch.mode, batch.bucket,
                      batch.planned_batch);
}

std::uint64_t
Server::batch_footprint(const std::string &model, SliceMode mode,
                        index_t bucket, int planned_batch)
{
    const std::string key = runner_key(model, mode, bucket, planned_batch);
    const auto it = footprints_.find(key);
    if (it != footprints_.end()) {
        return it->second;
    }
    const TransformerRunner &runner =
        runner_for(model, mode, bucket, planned_batch);
    const std::uint64_t bytes =
        runner
            .layer_memplan(device_, TransformerRunner::LayerKind::kInference)
            ->peak_hbm_bytes() *
        static_cast<std::uint64_t>(runner.model().num_layers);
    footprints_.emplace(key, bytes);
    return bytes;
}

void
Server::dispatch_round(double now_us, std::int64_t round_id,
                       const Scheduler &scheduler, AdmissionQueue &queue)
{
    std::vector<Batch> round = scheduler.next_round(queue);
    MG_CHECK(!round.empty()) << "dispatch_round on an empty queue";
    current_round_ = round_id;

    // The round's projected HBM watermark: the sum of its batches' plan
    // footprints. Computed for every round (budgeted or not) so the
    // report always carries the byte timeline.
    std::uint64_t hbm_bytes = 0;
    for (const Batch &b : round) {
        hbm_bytes += batch_footprint(b.model, b.mode, b.bucket,
                                     b.planned_batch);
    }
    round_bytes_.push_back(hbm_bytes);

    // One simulator per distinct round: every batch replays its cached
    // layer graphs under its own prefix and a fresh stream binding, so the
    // round's batches co-schedule across simulated streams. The result is
    // a pure function of the round's composition (the device is fixed per
    // Server), so a repeated composition reuses it.
    std::vector<std::string> prefixes;
    std::string composition;
    prefixes.reserve(round.size());
    for (std::size_t j = 0; j < round.size(); ++j) {
        prefixes.push_back("B" + std::to_string(j) + ".");
        const Batch &b = round[j];
        composition += runner_key(b.model, b.mode, b.bucket, b.planned_batch);
        composition += ';';
    }
    auto memo = round_results_.find(composition);
    if (memo == round_results_.end()) {
        sim::GpuSim sim(device_);
        for (std::size_t j = 0; j < round.size(); ++j) {
            std::vector<int> binding;
            runner_for(round[j]).plan_inference_into(sim, binding,
                                                     prefixes[j]);
        }
        memo = round_results_.emplace(std::move(composition), sim.run())
                   .first;
        ++round_sims_;
    } else {
        // The same layer-graph lookups the replay makes, so plan-cache
        // hit/miss counters do not depend on the memo.
        for (const Batch &b : round) {
            runner_for(b).layer_graph(
                device_, TransformerRunner::LayerKind::kInference);
        }
        ++round_sim_hits_;
    }
    const sim::SimResult &result = memo->second;

    for (std::size_t j = 0; j < round.size(); ++j) {
        InFlightBatch f;
        f.batch = std::move(round[j]);
        f.id = next_batch_id_++;
        f.round = round_id;
        f.dispatch_us = now_us;
        f.finish_us = now_us + result.finish_us(prefixes[j]);
        f.footprint_bytes =
            batch_footprint(f.batch.model, f.batch.mode, f.batch.bucket,
                            f.batch.planned_batch);
        if (trace_ != nullptr) {
            for (const Request &r : f.batch.requests) {
                TraceEvent e =
                    request_event(TraceEventKind::kBatchForm, now_us, r);
                e.batch = f.id;
                e.round = round_id;
                e.model = f.batch.model;
                e.bucket = f.batch.bucket;
                e.planned_batch = f.batch.planned_batch;
                e.actual_batch = f.batch.size();
                trace_->record(std::move(e));
            }
        }
        in_flight_.push_back(std::move(f));
    }
    gpu_busy_ = true;
    gpu_free_us_ = now_us + result.total_us;
    if (trace_ != nullptr) {
        TraceEvent e;
        e.kind = TraceEventKind::kRoundDispatch;
        e.t_us = now_us;
        e.round = round_id;
        e.actual_batch = static_cast<int>(in_flight_.size());
        e.hbm_bytes = hbm_bytes;
        trace_->record(std::move(e));
        trace_->record_round_sim(round_id, now_us, result);
    }
}

void
Server::complete_round(ServeReport &report, TrafficSource &source,
                       TenantLedger &ledger)
{
    // Charge the round's device span — the exact quantity the serving
    // loop added to busy (gpu_free_us_ - dispatch time, evaluated on the
    // same doubles) — down to the batches that occupied it.
    MG_CHECK(!in_flight_.empty()) << "complete_round with no batches";
    std::vector<TenantLedger::BatchCharge> charges;
    charges.reserve(in_flight_.size());
    for (const InFlightBatch &f : in_flight_) {
        TenantLedger::BatchCharge charge;
        charge.device_us = f.finish_us - f.dispatch_us;
        charge.footprint_bytes = f.footprint_bytes;
        charge.bucket = f.batch.bucket;
        charge.planned_batch = f.batch.planned_batch;
        charge.requests = &f.batch.requests;
        charges.push_back(charge);
    }
    ledger.charge_round(gpu_free_us_ - in_flight_.front().dispatch_us,
                        charges);

    for (InFlightBatch &f : in_flight_) {
        report.batch_histogram[f.batch.size()] += 1;
        for (const Request &r : f.batch.requests) {
            RequestRecord rec;
            rec.request = r;
            rec.outcome = RequestRecord::Outcome::kCompleted;
            rec.dispatch_us = f.dispatch_us;
            rec.finish_us = f.finish_us;
            rec.bucket = f.batch.bucket;
            rec.batch_size = f.batch.size();
            rec.deadline_met = f.finish_us <= r.deadline_us;
            ledger.note_completed(r, rec.queue_us(), rec.latency_us(),
                                  rec.deadline_met);
            if (trace_ != nullptr) {
                TraceEvent e = request_event(TraceEventKind::kComplete,
                                             f.finish_us, r);
                e.batch = f.id;
                e.round = f.round;
                e.flag = rec.deadline_met;
                trace_->record(std::move(e));
            }
            report.records.push_back(std::move(rec));
            source.on_completion(r, f.finish_us);
        }
        if (trace_ != nullptr) {
            TraceEvent e;
            e.kind = TraceEventKind::kBatchDone;
            e.t_us = f.finish_us;
            e.batch = f.id;
            e.round = f.round;
            trace_->record(std::move(e));
        }
    }
    if (trace_ != nullptr) {
        TraceEvent e;
        e.kind = TraceEventKind::kRoundDone;
        e.t_us = gpu_free_us_;
        e.round = current_round_;
        trace_->record(std::move(e));
    }
    in_flight_.clear();
    gpu_busy_ = false;
}

// ---- Step-wise driving (ISSUE 9) ----------------------------------------

void
Server::begin()
{
    MG_CHECK(!begun_) << "Server::begin may be called once";
    begun_ = true;
    cache_before_ = PlanCache::instance().stats();
    // The specs carry each tenant's token-bucket rate limit; the queue
    // builds one bucket per tenant from them.
    queue_.emplace(config_.admission, config_.traffic.tenants);
    ledger_.emplace(config_.traffic.tenants);
    scheduler_.emplace(config_.scheduler, config_.traffic.models);
    // Byte packing (scheduler) and memory shedding (admission) both
    // price work with the cached MemPlans' peak footprints.
    scheduler_->set_footprint(
        [this](const std::string &model, SliceMode m, index_t bucket,
               int planned) {
            return batch_footprint(model, m, bucket, planned);
        });
    report_.preset = config_.preset;
    report_.device = device_.name;
}

void
Server::record_shed(Request copy, AdmitDecision::Shed reason,
                    double now_us, double finish_us)
{
    ledger_->note_shed(copy, reason);
    if (trace_ != nullptr) {
        // A token-bucket shed gets its own event kind; the capacity and
        // memory valves keep the original kShed.
        const TraceEventKind kind =
            reason == AdmitDecision::Shed::kRateLimit
                ? TraceEventKind::kShedRateLimit
                : TraceEventKind::kShed;
        trace_->record(request_event(kind, now_us, copy));
    }
    RequestRecord rec;
    rec.request = std::move(copy);
    rec.outcome = RequestRecord::Outcome::kRejected;
    rec.finish_us = finish_us;
    report_.records.push_back(std::move(rec));
}

void
Server::ingest(Request r, double now_us)
{
    // Requests carry the preset's processing method.
    r.mode = config_.mode;
    if (config_.admission.hbm_budget_bytes > 0) {
        // Price the request for memory shedding: what it would cost to
        // serve alone in its bucket.
        r.footprint_bytes = batch_footprint(
            r.model, r.mode, scheduler_->bucket_of(r),
            scheduler_->planned_batch(1));
    }
    Request copy = r;
    if (trace_ != nullptr) {
        TraceEvent e =
            request_event(TraceEventKind::kArrive, r.arrival_us, r);
        e.tenant = r.tenant;
        e.model = r.model;
        e.slo = static_cast<int>(r.slo);
        e.valid_len = r.valid_len;
        e.deadline_us = r.deadline_us;
        trace_->record(std::move(e));
    }
    const AdmitDecision decision = queue_->offer(std::move(r), now_us);
    if (!decision) {
        const double arrival_us = copy.arrival_us;
        record_shed(std::move(copy), decision.reason, now_us, arrival_us);
    } else if (trace_ != nullptr) {
        trace_->record(request_event(TraceEventKind::kAdmit, now_us, copy));
    }
}

bool
Server::reingest(Request r, double now_us)
{
    // The request keeps its original arrival time (latency is measured
    // from when the user issued it) but is re-priced for this replica's
    // device, and re-arrives on this replica's trace log at the reroute
    // time so each replica's log is self-contained.
    r.mode = config_.mode;
    if (config_.admission.hbm_budget_bytes > 0) {
        r.footprint_bytes = batch_footprint(
            r.model, r.mode, scheduler_->bucket_of(r),
            scheduler_->planned_batch(1));
    }
    Request copy = r;
    if (trace_ != nullptr) {
        TraceEvent e = request_event(TraceEventKind::kArrive, now_us, r);
        e.tenant = r.tenant;
        e.model = r.model;
        e.slo = static_cast<int>(r.slo);
        e.valid_len = r.valid_len;
        e.deadline_us = r.deadline_us;
        trace_->record(std::move(e));
    }
    const AdmitDecision decision = queue_->reoffer(std::move(r), now_us);
    if (!decision) {
        record_shed(std::move(copy), decision.reason, now_us, now_us);
        return false;
    }
    if (trace_ != nullptr) {
        trace_->record(request_event(TraceEventKind::kAdmit, now_us, copy));
    }
    return true;
}

void
Server::expire(double now_us)
{
    // Age out requests that waited past the admission bound.
    for (Request &r : queue_->expire(now_us)) {
        ledger_->note_aged_out(r, now_us - r.arrival_us);
        if (trace_ != nullptr) {
            trace_->record(
                request_event(TraceEventKind::kAgeOut, now_us, r));
        }
        RequestRecord rec;
        rec.request = std::move(r);
        rec.outcome = RequestRecord::Outcome::kTimedOut;
        rec.finish_us = now_us;
        rec.deadline_met = false;
        report_.records.push_back(std::move(rec));
    }
}

bool
Server::can_dispatch() const
{
    return begun_ && !down_ && !gpu_busy_ && !queue_->empty();
}

void
Server::dispatch(double now_us)
{
    MG_CHECK(can_dispatch()) << "dispatch without can_dispatch";
    dispatch_round(now_us, rounds_, *scheduler_, *queue_);
    ++rounds_;
    busy_accum_us_ += gpu_free_us_ - now_us;
}

double
Server::busy_until() const
{
    return gpu_busy_ ? gpu_free_us_ : kInf;
}

void
Server::complete(TrafficSource &source)
{
    complete_round(report_, source, *ledger_);
    push_wfq_charges();
}

void
Server::push_wfq_charges()
{
    if (!config_.admission.wfq) {
        return;
    }
    for (const auto &[tenant, device_us] :
         ledger_->charged_device_by_tenant()) {
        queue_->set_charged(tenant, device_us);
    }
}

void
Server::observe(double now_us)
{
    // Telemetry snapshot at a virtual-clock event; guarded like trace
    // emissions so an uninstrumented run skips all of it.
    if (telemetry_ == nullptr) {
        return;
    }
    TelemetrySample s;
    for (const InFlightBatch &f : in_flight_) {
        s.in_flight += f.batch.size();
    }
    if (gpu_busy_ && !round_bytes_.empty()) {
        s.round_hbm_bytes = round_bytes_.back();
    }
    s.queue_depth = queue_->tenant_depths();
    s.bucket_fill = queue_->bucket_fills();
    telemetry_->observe(now_us, std::move(s));
}

std::uint64_t
Server::outstanding_bytes() const
{
    std::uint64_t bytes = queue_ ? queue_->queued_bytes() : 0;
    for (const InFlightBatch &f : in_flight_) {
        bytes += f.footprint_bytes;
    }
    return bytes;
}

std::vector<Request>
Server::kill(double now_us)
{
    MG_CHECK(begun_ && !down_) << "kill on a replica that is not up";
    down_ = true;
    if (gpu_busy_) {
        // The device only ran until the fault: shrink the busy
        // accumulator back to the truncated span and charge exactly that
        // span to the batches that occupied it, so charged device time
        // still telescopes to busy_us on this replica. A batch whose own
        // finish predates the fault is charged its full span (it held
        // the device that long), but its requests are still lost — the
        // round never completed, so its results were never released.
        busy_accum_us_ -= gpu_free_us_ - now_us;
        std::vector<TenantLedger::BatchCharge> charges;
        charges.reserve(in_flight_.size());
        for (const InFlightBatch &f : in_flight_) {
            TenantLedger::BatchCharge charge;
            charge.device_us =
                std::min(f.finish_us, now_us) - f.dispatch_us;
            charge.footprint_bytes = f.footprint_bytes;
            charge.bucket = f.batch.bucket;
            charge.planned_batch = f.batch.planned_batch;
            charge.requests = &f.batch.requests;
            charges.push_back(charge);
        }
        ledger_->charge_round(now_us - in_flight_.front().dispatch_us,
                              charges);
        for (InFlightBatch &f : in_flight_) {
            report_.batch_histogram[f.batch.size()] += 1;
            for (const Request &r : f.batch.requests) {
                RequestRecord rec;
                rec.request = r;
                rec.outcome = RequestRecord::Outcome::kLostReplica;
                rec.dispatch_us = f.dispatch_us;
                rec.finish_us = now_us;
                rec.bucket = f.batch.bucket;
                rec.batch_size = f.batch.size();
                rec.deadline_met = false;
                ledger_->note_lost(r, rec.queue_us());
                report_.records.push_back(std::move(rec));
            }
            if (trace_ != nullptr) {
                TraceEvent e;
                e.kind = TraceEventKind::kBatchDone;
                e.t_us = now_us;
                e.batch = f.id;
                e.round = f.round;
                trace_->record(std::move(e));
            }
        }
        if (trace_ != nullptr) {
            TraceEvent e;
            e.kind = TraceEventKind::kRoundDone;
            e.t_us = now_us;
            e.round = current_round_;
            trace_->record(std::move(e));
        }
        in_flight_.clear();
        gpu_busy_ = false;
        push_wfq_charges();
    }
    return queue_->drain();
}

void
Server::revive()
{
    MG_CHECK(down_) << "revive on a replica that is up";
    down_ = false;
}

ServeReport
Server::finish(double now_us)
{
    MG_CHECK(begun_) << "Server::finish before begin";
    if (telemetry_ != nullptr) {
        telemetry_->finish(now_us);
    }

    // ---- Reduce the records into the report ----------------------------
    ServeReport report = std::move(report_);
    report.rounds = rounds_;
    report.round_sims = round_sims_;
    report.round_sim_hits = round_sim_hits_;
    report.busy_us = busy_accum_us_;
    report.admission = queue_->stats();
    report.round_hbm_bytes = std::move(round_bytes_);
    for (const std::uint64_t b : report.round_hbm_bytes) {
        report.peak_round_hbm_bytes =
            std::max(report.peak_round_hbm_bytes, b);
    }
    report.plan_cache =
        stats_delta(cache_before_, PlanCache::instance().stats());
    report.cost = ledger_->finish(busy_accum_us_);

    const CompletedSummary done = summarize_completed({&report.records});
    report.completed = done.completed;
    report.deadline_miss = done.deadline_miss;
    report.latency = done.latency;
    std::copy(std::begin(done.latency_by_class),
              std::end(done.latency_by_class), report.latency_by_class);
    report.makespan_us = done.makespan_us;
    report.throughput_rps = done.throughput_rps;
    report.lost_in_flight = static_cast<std::uint64_t>(std::count_if(
        report.records.begin(), report.records.end(),
        [](const RequestRecord &rec) {
            return rec.outcome == RequestRecord::Outcome::kLostReplica;
        }));
    if (report.makespan_us > 0) {
        report.gpu_util =
            std::min(1.0, report.busy_us / report.makespan_us);
    }
    int batch_sum = 0;
    int batch_count = 0;
    for (const auto &[size, count] : report.batch_histogram) {
        batch_sum += size * count;
        batch_count += count;
        report.max_batch = std::max(report.max_batch, size);
    }
    if (batch_count > 0) {
        report.avg_batch =
            static_cast<double>(batch_sum) / batch_count;
    }
    return report;
}

ServeReport
Server::run()
{
    MG_CHECK(!ran_) << "Server::run may be called once";
    ran_ = true;
    // A standalone server is a fleet of one: the loop Cluster::run
    // drives, behind a router with one replica to send work to.
    Router router(RoutePolicy::kRoundRobin, 1, config_.traffic.seed);
    TrafficSource source(config_.traffic);
    return finish(run_serving_loop({this}, router, source, {}));
}

CompletedSummary
summarize_completed(
    const std::vector<const std::vector<RequestRecord> *> &parts)
{
    CompletedSummary out;
    std::vector<double> latencies;
    std::vector<double> by_class[kNumSloClasses];
    double first_arrival = kInf;
    double last_finish = 0;
    for (const std::vector<RequestRecord> *records : parts) {
        for (const RequestRecord &rec : *records) {
            if (rec.outcome != RequestRecord::Outcome::kCompleted) {
                continue;
            }
            ++out.completed;
            if (!rec.deadline_met) {
                ++out.deadline_miss;
            }
            latencies.push_back(rec.latency_us());
            by_class[static_cast<int>(rec.request.slo)].push_back(
                rec.latency_us());
            first_arrival = std::min(first_arrival, rec.request.arrival_us);
            last_finish = std::max(last_finish, rec.finish_us);
        }
    }
    out.latency = prof::summarize_latencies(std::move(latencies));
    for (int c = 0; c < kNumSloClasses; ++c) {
        out.latency_by_class[c] =
            prof::summarize_latencies(std::move(by_class[c]));
    }
    if (out.completed > 0) {
        out.makespan_us = last_finish - first_arrival;
    }
    if (out.makespan_us > 0) {
        out.throughput_rps = static_cast<double>(out.completed) /
                             (out.makespan_us / 1e6);
    }
    return out;
}

// ---- Metric registry + bench rows ---------------------------------------

const std::vector<ServeMetricDef> &
serve_metric_registry()
{
    static const std::vector<ServeMetricDef> registry = {
        {"requests", "count", "Requests issued by the traffic source",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.offered);
         }},
        {"completed", "count", "Requests served to completion",
         [](const ServeReport &r) {
             return static_cast<double>(r.completed);
         }},
        {"rejected", "count", "Requests shed at admission (queue full)",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.rejected);
         }},
        {"shed_memory", "count",
         "Requests shed on projected HBM pressure (subset of rejected)",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.shed_memory);
         }},
        {"shed_ratelimit", "count",
         "Requests shed by per-tenant token buckets (subset of rejected)",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.shed_ratelimit);
         }},
        {"timed_out", "count", "Requests aged out of the queue",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.timed_out);
         }},
        {"deadline_miss", "count",
         "Completed requests that finished past their SLO deadline",
         [](const ServeReport &r) {
             return static_cast<double>(r.deadline_miss);
         }},
        {"max_queue_depth", "count",
         "High-water mark of the admission queue",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.max_depth);
         }},
        {"p50_us", "us", "Median request latency (arrival to completion)",
         [](const ServeReport &r) { return r.latency.p50; }},
        {"p95_us", "us", "95th-percentile request latency",
         [](const ServeReport &r) { return r.latency.p95; }},
        {"p99_us", "us", "99th-percentile request latency",
         [](const ServeReport &r) { return r.latency.p99; }},
        {"mean_us", "us", "Mean request latency",
         [](const ServeReport &r) { return r.latency.mean; }},
        {"max_us", "us", "Worst request latency",
         [](const ServeReport &r) { return r.latency.max; }},
        {"throughput_rps", "req/s",
         "Completed requests over the serving window",
         [](const ServeReport &r) { return r.throughput_rps; }},
        {"makespan_us", "us",
         "First arrival to last completion",
         [](const ServeReport &r) { return r.makespan_us; }},
        {"busy_us", "us", "Device-occupied time across rounds",
         [](const ServeReport &r) { return r.busy_us; }},
        {"gpu_util", "ratio", "busy / makespan",
         [](const ServeReport &r) { return r.gpu_util; }},
        {"rounds", "count", "Scheduling rounds dispatched",
         [](const ServeReport &r) {
             return static_cast<double>(r.rounds);
         }},
        {"avg_batch", "requests", "Mean actual batch size",
         [](const ServeReport &r) { return r.avg_batch; }},
        {"max_batch", "requests", "Largest actual batch size",
         [](const ServeReport &r) {
             return static_cast<double>(r.max_batch);
         }},
        {"peak_round_hbm_bytes", "bytes",
         "Largest projected HBM footprint of any dispatched round",
         [](const ServeReport &r) {
             return static_cast<double>(r.peak_round_hbm_bytes);
         }},
        {"max_queued_hbm_bytes", "bytes",
         "High-water mark of the admission queue's projected HBM bytes",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.max_queued_bytes);
         }},
        {"plan_cache.hits", "count",
         "Plan-cache hits attributable to this run",
         [](const ServeReport &r) {
             return static_cast<double>(r.plan_cache.hits);
         }},
        {"plan_cache.misses", "count",
         "Plan-cache misses attributable to this run",
         [](const ServeReport &r) {
             return static_cast<double>(r.plan_cache.misses);
         }},
    };
    return registry;
}

void
append_serve_rows(prof::BenchRun &run, const ServeReport &report)
{
    prof::BenchRow serve;
    serve.series = "serve";
    serve.labels.emplace_back("preset", report.preset);
    for (const ServeMetricDef &metric : serve_metric_registry()) {
        serve.metrics.emplace_back(metric.key, metric.get(report));
    }
    run.rows.push_back(std::move(serve));

    for (int c = 0; c < kNumSloClasses; ++c) {
        const prof::LatencySummary &s = report.latency_by_class[c];
        prof::BenchRow row;
        row.series = "slo";
        row.labels.emplace_back("class",
                                to_string(static_cast<SloClass>(c)));
        row.metrics.emplace_back("completed",
                                 static_cast<double>(s.count));
        row.metrics.emplace_back("p50_us", s.p50);
        row.metrics.emplace_back("p95_us", s.p95);
        row.metrics.emplace_back("p99_us", s.p99);
        row.metrics.emplace_back("max_us", s.max);
        run.rows.push_back(std::move(row));
    }

    for (const auto &[size, count] : report.batch_histogram) {
        prof::BenchRow row;
        row.series = "batch_hist";
        row.labels.emplace_back("size", std::to_string(size));
        row.metrics.emplace_back("count", static_cast<double>(count));
        run.rows.push_back(std::move(row));
    }

    // Per-tenant ledger rows: the gate watches each tenant's charged
    // device time (lower is better) and its rate-limit shed count.
    for (const TenantCost &t : report.cost.tenants) {
        prof::BenchRow row;
        row.series = "tenant";
        row.labels.emplace_back("tenant", t.tenant);
        row.metrics.emplace_back("completed",
                                 static_cast<double>(t.total.completed));
        row.metrics.emplace_back(
            "shed_ratelimit",
            static_cast<double>(t.total.shed_ratelimit));
        row.metrics.emplace_back("charged_us", t.total.device_us());
        row.metrics.emplace_back("pad_us", t.total.pad_us);
        row.metrics.emplace_back("queue_us", t.total.queue_us);
        row.metrics.emplace_back("p99_us", t.latency.p99);
        run.rows.push_back(std::move(row));
    }
}

prof::BenchRun
serve_bench_run(const ServeReport &report,
                const std::string &device_name)
{
    prof::BenchRun run;
    run.name = "serve_" + report.preset + "@" + device_name;
    run.manifest = prof::RunManifest::collect(device_name);
    append_serve_rows(run, report);
    return run;
}

}  // namespace multigrain::serve
