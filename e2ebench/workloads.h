#pragma once

/**
 * @file
 * The benchmark's workloads and the measurement pieces they share:
 * the independent repair re-check, the per-candidate layer replay, and
 * the metric definitions common to every workload.
 */

#include <string>
#include <vector>

#include "common.h"
#include "core/scenario.h"

namespace e2ebench {

/** Run one workload; @throws std::invalid_argument on an unknown name. */
Outcome runWorkload(const RunSettings &settings);

Outcome runTableWorkload(const RunSettings &settings);
Outcome runServiceMix(const RunSettings &settings);

/**
 * Independent check of a reported repair: re-parse @p repaired_source
 * (DUT + repair testbench), elaborate, simulate under the scenario's
 * probe and require the trace to equal the oracle exactly. Returns ""
 * on success, else why the repair was refused.
 */
std::string recheckRepair(const cirfix::core::Scenario &sc,
                          const std::string &repaired_source,
                          const cirfix::sim::RunLimits &limits);

/** Search counters summed over jobs (RepairResult fields). */
struct SearchCounters
{
    long evals = 0;
    long totalMutants = 0;
    long invalidMutants = 0;
    long lintRejects = 0;
    long earlyAborts = 0;
    double rowsScored = 0;
    double rowsSkipped = 0;
    long cacheHits = 0;
    long cacheMisses = 0;
    /** False when the workload's result payload lacks row counts. */
    bool haveRows = true;
};

/** Per-candidate layer timings of the replay (see replayCandidates). */
struct ReplayStats
{
    std::map<std::string, LayerStat> layers;
    long candidates = 0;  //!< patches pushed through the pipeline
    long simulated = 0;   //!< of those, simulated to a result
    double events = 0;    //!< scheduler events over simulated ones
    double logicAllocs = 0;
};

/**
 * Draw @p count single-edit candidates for @p sc with the public
 * Mutator over the faulty design's fault-localization set (seeded by
 * @p seed), push each through the layer calls one at a time with one
 * span per call, then time the same batch through
 * RepairEngine::evaluateUncached for the coverage ratio.
 */
void replayCandidates(const cirfix::core::Scenario &sc,
                      const cirfix::core::EngineConfig &cfg,
                      uint64_t seed, int count, long job,
                      ReplayStats &stats, SpanLog &log);

/** One measured job: per-pass latencies and its deterministic result. */
struct JobMeasure
{
    std::vector<double> latencies;  //!< seconds, one per pass
    bool found = false;
    bool correct = false;
    long evals = 0;
};

/** True when another pass of about @p last_pass seconds still fits in
 *  the measurement window that began at @p start. */
bool anotherPassFits(Clock::time_point start, double last_pass,
                     double window);

/** The end-to-end metrics every workload reports, from the set-up
 *  samples, the measured passes' search or job-loop costs, and the
 *  jobs. */
std::vector<Metric>
endToEndMetrics(const std::vector<Cost> &setup,
                const std::vector<Cost> &passes,
                const std::vector<JobMeasure> &jobs, long failed,
                Outcome &out);

/** Client-observed service layer figures, summed over jobs. */
struct ServiceLayer
{
    LayerStat submit;     //!< Client::submit round trip
    LayerStat queueWait;  //!< submit -> "running" state event
    LayerStat run;        //!< "running" -> terminal state event
    LayerStat result;     //!< Client::result round trip
    double events = 0;    //!< event frames received on subscribe
    double snapshotBytes = 0;  //!< summed over the state dir's .snap files
    long snapshots = 0;
};

/** Write a traced run's spans next to its result and note the path. */
void writeTrace(const RunSettings &settings, const SpanLog &log,
                Outcome &out);

/** Per-layer metrics shared by every workload. */
void addSearchMetrics(const SearchCounters &c, std::vector<Metric> &m);
void addReplayMetrics(const ReplayStats &r, std::vector<Metric> &m);
/** The service.* metrics; all 0 when @p s is null (a workload whose
 *  path never reaches the service layer). */
void addServiceMetrics(const ServiceLayer *s, std::vector<Metric> &m);

/** The number of threads that evaluate candidates of one table job. */
inline constexpr int kPoolThreads = 2;

/** Set-up samples per run; setup_s is their median. */
inline constexpr size_t kSetupSamples = 15;

/** Replay candidates drawn per scenario in the traced run. */
inline constexpr int kReplayBatch = 48;

} // namespace e2ebench
