/**
 * @file
 * The table3-small and table3-large workloads: one RepairEngine per
 * (defect, seed) job, run in-process through the public C++ API with
 * the evaluation pool at kPoolThreads threads.
 */

#include <cstdio>
#include <functional>
#include <stdexcept>

#include "benchmarks/registry.h"
#include "verilog/parser.h"
#include "workloads.h"

namespace e2ebench {

using namespace cirfix;

namespace {

struct TableSpec
{
    std::vector<std::string> projects;
    int popSize = 40;
    int maxGenerations = 8;
    int seedsPerDefect = 1;
};

/** Sizes fit a warm-up pass and two measured passes in a 30 s window
 *  on a 4-core host (README.md, "Workloads"). Host speed drifts over
 *  minutes, so more jobs per pass steady the figures more than more
 *  passes would. */
TableSpec
tableSpec(const std::string &workload)
{
    if (workload == "table3-small")
        return {{"decoder_3_to_8", "counter", "flip_flop", "fsm_full",
                 "lshift_reg", "mux_4_1"},
                60, 10, 6};
    return {{"i2c", "sha3", "tate_pairing", "reed_solomon_decoder",
             "sdram_controller"},
            30, 6, 5};
}

struct Job
{
    const core::DefectSpec *defect = nullptr;
    uint64_t seed = 0;
};

std::vector<Job>
makeJobs(const TableSpec &spec, uint64_t seed)
{
    std::vector<Job> jobs;
    for (const std::string &project : spec.projects)
        for (const core::DefectSpec *d : bench::defectsForProject(project))
            for (int k = 0; k < spec.seedsPerDefect; ++k)
                jobs.push_back({d, jobSeed(seed, d->id, k)});
    return jobs;
}

core::EngineConfig
engineConfig(const TableSpec &spec, uint64_t seed)
{
    core::EngineConfig cfg;
    cfg.popSize = spec.popSize;
    cfg.maxGenerations = spec.maxGenerations;
    // Out of reach: the generation budget alone ends every search, so
    // a job's search is a pure function of its seed.
    cfg.maxSeconds = 1e9;
    cfg.numThreads = kPoolThreads;
    cfg.seed = seed;
    return cfg;
}

JobRow
rowOf(const Job &job, const core::RepairResult &r)
{
    return {job.defect->id, job.seed, r.found, r.generations,
            r.fitnessEvals, r.found ? fnv1a(r.patch.key()) : 0};
}

std::string
label(const Job &job)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s seed %llu", job.defect->id.c_str(),
                  static_cast<unsigned long long>(job.seed));
    return buf;
}

/** What one pass over every job measured. */
struct Pass
{
    Cost search;  //!< the RepairEngine::run() calls
    std::vector<double> latency;
    std::vector<JobRow> rows;
    std::vector<core::RepairResult> results;
    LayerStat scenarioBuild, engineConstruct;
    LayerStat generation, tail;  //!< traced pass only
    std::vector<std::string> errors;  //!< jobs whose run() threw
};

using CheckFn = std::function<void(size_t, const core::Scenario &,
                                   const core::RepairResult &)>;

/**
 * Run every job once. With @p log, record the job, generation and
 * setup spans (the traced pass); with @p check, hand every result to
 * it outside the timed intervals.
 */
Pass
runPass(const TableSpec &spec, const std::vector<Job> &jobs,
        SpanLog *log, const CheckFn &check)
{
    Pass pass;
    std::unique_ptr<core::Scenario> sc;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const Job &job = jobs[i];
        long job_id = static_cast<long>(i) + 1;
        if (!sc || sc->defect != job.defect) {
            Clock::time_point t0 = Clock::now();
            sc = std::make_unique<core::Scenario>(core::buildScenario(
                bench::getProject(job.defect->project), *job.defect));
            Clock::time_point t1 = Clock::now();
            pass.scenarioBuild.add(secondsBetween(t0, t1));
            if (log)
                log->add("scenario.build", t0, t1, 0, job_id);
        }
        core::EngineConfig cfg = engineConfig(spec, job.seed);
        std::vector<Clock::time_point> gens;
        if (log)
            cfg.onGeneration = [&gens](const core::GenerationStats &) {
                gens.push_back(Clock::now());
            };
        Clock::time_point t0 = Clock::now();
        core::RepairEngine engine = sc->makeEngine(cfg);
        Clock::time_point t1 = Clock::now();
        pass.engineConstruct.add(secondsBetween(t0, t1));

        Clock::time_point r0 = Clock::now();
        CostTimer search;
        core::RepairResult res;
        try {
            res = engine.run();
        } catch (const std::exception &e) {
            pass.errors.push_back(label(job) + ": run() threw: " + e.what());
        }
        pass.latency.push_back(search.stop(pass.search));
        Clock::time_point r1 = Clock::now();
        pass.rows.push_back(rowOf(job, res));

        if (log) {
            log->add("engine.construct", t0, t1, 0, job_id);
            long run_id = log->add("engine.run", r0, r1, 0, job_id);
            Clock::time_point prev = r0;
            for (Clock::time_point g : gens) {
                log->add("engine.generation", prev, g, run_id, job_id);
                pass.generation.add(secondsBetween(prev, g));
                prev = g;
            }
            log->add("engine.tail", prev, r1, run_id, job_id);
            pass.tail.add(secondsBetween(prev, r1));
        }
        if (check)
            check(i, *sc, res);
        pass.results.push_back(std::move(res));
    }
    return pass;
}

/** One set-up sample: every job's scenario build and engine
 *  constructor, without the searches. */
Cost
setUp(const TableSpec &spec, const std::vector<Job> &jobs)
{
    Cost total;
    std::unique_ptr<core::Scenario> sc;
    for (const Job &job : jobs) {
        CostTimer cost;
        if (!sc || sc->defect != job.defect)
            sc = std::make_unique<core::Scenario>(core::buildScenario(
                bench::getProject(job.defect->project), *job.defect));
        core::RepairEngine engine =
            sc->makeEngine(engineConfig(spec, job.seed));
        cost.stop(total);
    }
    return total;
}

SearchCounters
countersOf(const std::vector<core::RepairResult> &results)
{
    SearchCounters c;
    for (const core::RepairResult &r : results) {
        c.evals += r.fitnessEvals;
        c.totalMutants += r.totalMutants;
        c.invalidMutants += r.invalidMutants;
        c.lintRejects += r.lintRejects;
        c.earlyAborts += r.earlyAborts;
        c.rowsScored += static_cast<double>(r.rowsScored);
        c.rowsSkipped += static_cast<double>(r.rowsSkipped);
        c.cacheHits += r.cache.hits;
        c.cacheMisses += r.cache.misses;
    }
    return c;
}

} // namespace

Outcome
runTableWorkload(const RunSettings &settings)
{
    const TableSpec spec = tableSpec(settings.workload);
    const std::vector<Job> jobs = makeJobs(spec, settings.seed);
    Outcome out;
    out.attempted = static_cast<long>(jobs.size());
    out.evalThreads = kPoolThreads;

    // Every reported repair is re-checked once, in the warm-up pass.
    std::vector<JobMeasure> measures(jobs.size());
    auto check = [&](size_t i, const core::Scenario &sc,
                     const core::RepairResult &r) {
        measures[i].found = r.found;
        measures[i].evals = r.fitnessEvals;
        if (!r.found)
            return;
        std::string why = recheckRepair(
            sc, r.repairedSource, engineConfig(spec, jobs[i].seed).simLimits);
        if (!why.empty())
            out.failures.push_back(label(jobs[i]) + ": " + why);
        measures[i].correct = core::checkCorrectness(sc, r.patch);
    };

    // Set-up is sampled first, while the heap is in the same state
    // whatever the seed.
    std::vector<Cost> setup;
    for (size_t i = 0; !settings.trace && i < kSetupSamples; ++i)
        setup.push_back(setUp(spec, jobs));

    // The warm-up pass fills caches and the allocator and runs the
    // checks; no timing comes from it.
    Clock::time_point window_start = Clock::now();
    Pass warm = runPass(spec, jobs, nullptr, check);
    out.rows = warm.rows;
    out.failures.insert(out.failures.end(), warm.errors.begin(),
                        warm.errors.end());
    const uint64_t hash = rowsHash(warm.rows);
    auto compare = [&](const Pass &p, const char *what) {
        if (rowsHash(p.rows) != hash)
            out.failures.push_back(std::string(what) +
                                   " did not reproduce the search "
                                   "identity of the warm-up pass");
    };

    if (settings.trace) {
        Pass untraced = runPass(spec, jobs, nullptr, nullptr);
        compare(untraced, "the untraced pass");
        SpanLog log;
        Pass traced = runPass(spec, jobs, &log, nullptr);
        compare(traced, "the traced pass");
        ReplayStats replay;
        LayerStat parse;
        const core::DefectSpec *last = nullptr;
        long replay_job = static_cast<long>(jobs.size());
        for (const Job &job : jobs) {
            if (job.defect == last)
                continue;
            last = job.defect;
            const core::ProjectSpec &project =
                bench::getProject(job.defect->project);
            std::string faulty_src =
                core::applyRewrites(project.goldenSource,
                                    job.defect->rewrites) +
                "\n" + project.testbenchSource;
            Clock::time_point t0 = Clock::now();
            auto parsed = verilog::parse(faulty_src);
            Clock::time_point t1 = Clock::now();
            parse.add(secondsBetween(t0, t1));
            log.add("verilog.parse", t0, t1, 0, ++replay_job);
            core::Scenario sc = core::buildScenario(project, *job.defect);
            replayCandidates(sc, engineConfig(spec, job.seed), job.seed,
                             kReplayBatch, replay_job, replay, log);
        }
        SearchCounters counters = countersOf(traced.results);
        auto &m = out.metrics;
        m.push_back({"scenario.build_ms", "ms", "lower",
                     traced.scenarioBuild.meanMicros() / 1e3});
        m.push_back({"engine.construct_ms", "ms", "lower",
                     traced.engineConstruct.meanMicros() / 1e3});
        m.push_back({"verilog.parse_ms", "ms", "lower",
                     parse.meanMicros() / 1e3});
        addSearchMetrics(counters, m);
        addReplayMetrics(replay, m);
        double evals = static_cast<double>(counters.evals);
        m.push_back({"engine.generation_ms", "ms", "lower",
                     traced.generation.meanMicros() / 1e3});
        m.push_back({"engine.tail_ms", "ms", "lower",
                     traced.tail.meanMicros() / 1e3});
        m.push_back({"engine.cpu_per_eval_us", "us", "lower",
                     evals > 0 ? traced.search.cpu * 1e6 / evals : 0.0});
        m.push_back({"evalpool.utilization", "ratio", "higher",
                     traced.search.cpu / (traced.search.wall * kPoolThreads)});
        m.push_back({"trace.overhead_ratio", "ratio", "lower",
                     traced.search.wall / untraced.search.wall - 1.0});
        addServiceMetrics(nullptr, m);
        out.notes["replay_candidates"] = std::to_string(replay.candidates);
        out.notes["untraced_wall_s"] = std::to_string(untraced.search.wall);
        out.notes["traced_wall_s"] = std::to_string(traced.search.wall);
        writeTrace(settings, log, out);
        return out;
    }

    // Measured passes: at least one, then more while they fit.
    std::vector<Cost> passes;
    double last_pass = 0;
    do {
        Clock::time_point pass_start = Clock::now();
        Pass p = runPass(spec, jobs, nullptr, nullptr);
        compare(p, "a measured pass");
        passes.push_back(p.search);
        for (size_t i = 0; i < jobs.size(); ++i)
            measures[i].latencies.push_back(p.latency[i]);
        last_pass = secondsBetween(pass_start, Clock::now());
    } while (anotherPassFits(window_start, last_pass, settings.seconds));
    out.metrics = endToEndMetrics(setup, passes, measures,
                                  static_cast<long>(out.failures.size()),
                                  out);
    return out;
}

} // namespace e2ebench
