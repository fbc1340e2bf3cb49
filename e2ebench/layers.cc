#include <memory>
#include <random>
#include <stdexcept>

#include "core/faultloc.h"
#include "core/fitness.h"
#include "core/mutation.h"
#include "lint/lint.h"
#include "sim/elaborate.h"
#include "verilog/parser.h"
#include "verilog/validate.h"
#include "workloads.h"

namespace e2ebench {

using namespace cirfix;
using SimStatus = sim::Scheduler::Status;

Outcome
runWorkload(const RunSettings &settings)
{
    if (settings.workload == "service-mix")
        return runServiceMix(settings);
    if (settings.workload == "table3-small" ||
        settings.workload == "table3-large")
        return runTableWorkload(settings);
    throw std::invalid_argument("unknown workload '" + settings.workload +
                                "'");
}

static bool
simulatedToResult(SimStatus s)
{
    return s == SimStatus::Finished || s == SimStatus::Idle ||
           s == SimStatus::MaxTime;
}

std::string
recheckRepair(const core::Scenario &sc, const std::string &repaired_source,
              const sim::RunLimits &limits)
{
    try {
        std::shared_ptr<const verilog::SourceFile> file =
            verilog::parse(repaired_source);
        auto design = sim::elaborate(file, sc.project->tbModule);
        sim::TraceRecorder rec(*design, sc.probe);
        auto rr = design->run(limits);
        if (!simulatedToResult(rr.status))
            return "re-simulation aborted: " +
                   design->scheduler().abortReason();
        if (rec.takeTrace().toCsv() != sc.oracle.toCsv())
            return "re-simulated trace differs from the oracle";
        return "";
    } catch (const std::exception &e) {
        return std::string("re-check threw: ") + e.what();
    }
}

namespace {

/** Time one call into a layer: stats + one span under @p parent. */
class LayerTimer
{
  public:
    LayerTimer(ReplayStats &stats, SpanLog &log, long parent, long job)
        : stats_(stats), log_(log), parent_(parent), job_(job)
    {}

    template <typename F>
    auto
    operator()(const char *layer, F &&fn)
    {
        Clock::time_point t0 = Clock::now();
        struct Stop
        {
            LayerTimer &self;
            const char *layer;
            Clock::time_point t0;
            ~Stop()
            {
                Clock::time_point t1 = Clock::now();
                self.stats_.layers[layer].add(secondsBetween(t0, t1));
                self.log_.add(layer, t0, t1, self.parent_, self.job_);
            }
        } stop{*this, layer, t0};
        return fn();
    }

  private:
    ReplayStats &stats_;
    SpanLog &log_;
    long parent_, job_;
};

} // namespace

void
replayCandidates(const core::Scenario &sc, const core::EngineConfig &cfg,
                 uint64_t seed, int count, long job, ReplayStats &stats,
                 SpanLog &log)
{
    const std::string &dut_name =
        sc.defect && !sc.defect->repairModule.empty()
            ? sc.defect->repairModule
            : sc.project->dutModule;
    const std::string &tb = sc.project->tbModule;
    core::RepairEngine engine = sc.makeEngine(cfg);

    const verilog::Module *dut = sc.faulty->findModule(dut_name);
    if (!dut)
        throw std::runtime_error("replay: no module " + dut_name);
    core::Variant base = engine.evaluateUncached(core::Patch{});
    core::FaultLocResult fl =
        core::faultLocalize(*dut, base.trace, sc.oracle);
    lint::Fingerprint base_fp =
        lint::fingerprint(lint::run(*sc.faulty, cfg.lintOptions));

    // Candidates: single edits of the faulty design, drawn the way the
    // engine draws children (template with probability rtThreshold,
    // otherwise a mutation) but never evolved further.
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    core::Mutator mutator(rng, cfg.mutation);
    LayerTimer draw(stats, log, 0, job);
    std::vector<core::Patch> batch;
    for (int i = 0; i < count; ++i) {
        bool use_template = coin(rng) < cfg.rtThreshold;
        std::optional<core::Edit> edit = draw("mutation.edit", [&] {
            return use_template
                       ? mutator.templateEdit(*sc.faulty, *dut, fl.nodeIds)
                       : mutator.mutate(*sc.faulty, *dut, fl.nodeIds);
        });
        if (!edit)
            continue;
        core::Patch p;
        p.edits.push_back(std::move(*edit));
        batch.push_back(std::move(p));
    }

    sim::SimGuards guards;
    guards.memBudgetBytes = cfg.evalMemoryBudget;
    guards.faultPlan = cfg.faultPlan;
    guards.backend = cfg.backend;
    sim::RunLimits limits = cfg.simLimits;
    if (limits.maxWallSeconds <= 0)
        limits.maxWallSeconds = cfg.evalDeadlineSeconds;

    // The pipeline of RepairEngine::evaluateUncached, one public call
    // per span, in the same order and with the same early exits.
    for (const core::Patch &patch : batch) {
        ++stats.candidates;
        long cand = log.reserve();
        Clock::time_point c0 = Clock::now();
        LayerTimer layer(stats, log, cand, job);
        std::shared_ptr<const verilog::SourceFile> patched =
            layer("verilog.apply_clone",
                  [&] { return core::applyPatch(*sc.faulty, patch); });
        bool ok = layer("verilog.validate",
                        [&] { return verilog::isValid(*patched); });
        if (ok && cfg.lintPrescreen)
            ok = layer("lint.prescreen", [&] {
                return lint::newErrorCount(
                           base_fp, lint::run(*patched, cfg.lintOptions)) ==
                       0;
            });
        std::unique_ptr<sim::Design> design;
        if (ok) {
            try {
                design = layer("sim.elaborate", [&] {
                    return sim::elaborate(patched, tb, guards);
                });
            } catch (const std::exception &) {
                ok = false;
            }
        }
        if (design) {
            sim::Trace trace;
            bool simulated = false;
            {
                sim::TraceRecorder rec(*design, sc.probe);
                uint64_t allocs0 = sim::logicHeapAllocs();
                try {
                    auto rr = layer("sim.simulate",
                                    [&] { return design->run(limits); });
                    simulated = simulatedToResult(rr.status);
                } catch (const std::exception &) {
                }
                if (simulated) {
                    ++stats.simulated;
                    stats.events += static_cast<double>(
                        design->scheduler().allocStats().eventsScheduled);
                    stats.logicAllocs += static_cast<double>(
                        sim::logicHeapAllocs() - allocs0);
                    trace = rec.takeTrace();
                }
            }
            if (simulated) {
                layer("fitness.score", [&] {
                    return core::evaluateFitness(trace, sc.oracle,
                                                 cfg.fitness);
                });
                // The engine re-localizes every parent it breeds from;
                // a simulated candidate is localized the same way.
                const verilog::Module *pdut = patched->findModule(dut_name);
                if (pdut)
                    layer("faultloc.localize", [&] {
                        return core::faultLocalize(*pdut, trace, sc.oracle);
                    });
            }
            layer("sim.teardown", [&] {
                design.reset();
                return 0;
            });
        }
        log.record(cand, "replay.candidate", c0, Clock::now(), 0, job, 0);
    }

    LayerTimer whole(stats, log, 0, job);
    for (const core::Patch &patch : batch)
        whole("engine.candidate",
              [&] { return engine.evaluateUncached(patch); });
}

bool
anotherPassFits(Clock::time_point start, double last_pass, double window)
{
    return secondsBetween(start, Clock::now()) + last_pass <= window;
}

std::vector<Metric>
endToEndMetrics(const std::vector<Cost> &setup,
                const std::vector<Cost> &passes,
                const std::vector<JobMeasure> &jobs, long failed,
                Outcome &out)
{
    std::vector<double> setup_wall, setup_cpu, pass_wall, pass_cpu;
    for (const Cost &c : setup) {
        setup_wall.push_back(c.wall);
        setup_cpu.push_back(c.cpu);
    }
    for (const Cost &c : passes) {
        pass_wall.push_back(c.wall);
        pass_cpu.push_back(c.cpu);
    }
    double wall = median(pass_wall);
    std::vector<double> latency, eval_rate, repair_time, repair_evals;
    double found = 0, correct = 0, evals = 0;
    for (const JobMeasure &j : jobs) {
        double lat = median(j.latencies);
        latency.push_back(lat);
        evals += static_cast<double>(j.evals);
        if (lat > 0)
            eval_rate.push_back(static_cast<double>(j.evals) / lat);
        if (j.found) {
            ++found;
            repair_time.push_back(lat);
            repair_evals.push_back(static_cast<double>(j.evals));
        }
        correct += j.correct ? 1 : 0;
    }
    double n = static_cast<double>(jobs.size());
    out.notes["passes"] = std::to_string(passes.size());
    out.notes["setup_samples"] = std::to_string(setup.size());
    out.notes["jobs"] = std::to_string(jobs.size());
    out.notes["repair_samples"] = std::to_string(repair_time.size());
    return {
        {"setup_s", "s", "lower", median(setup_cpu)},
        {"setup_wall_s", "s", "lower", median(setup_wall)},
        {"cpu_per_eval_us", "us", "lower",
         evals > 0 ? median(pass_cpu) * 1e6 / evals : 0.0},
        {"wall_s", "s", "lower", wall},
        {"evals_per_s", "1/s", "higher", median(eval_rate)},
        {"time_to_repair_p50_s", "s", "lower", median(repair_time)},
        {"evals_to_repair_p50", "count", "lower", median(repair_evals)},
        {"repairs_found", "count", "higher", found},
        {"repairs_correct", "count", "higher", correct},
        {"jobs_per_s", "1/s", "higher", wall > 0 ? n / wall : 0.0},
        {"job_latency_p50_s", "s", "lower", quantile(latency, 0.5)},
        {"job_latency_p90_s", "s", "lower", quantile(latency, 0.9)},
        {"peak_rss_mb", "MiB", "lower", peakRssMiB()},
        {"failed_share", "ratio", "lower",
         n > 0 ? static_cast<double>(failed) / n : 0.0},
    };
}

void
writeTrace(const RunSettings &settings, const SpanLog &log, Outcome &out)
{
    std::string path = settings.outDir + "/trace-" + settings.workload +
                       "-seed" + std::to_string(settings.seed) + ".json";
    log.writeChromeTrace(path);
    out.notes["spans"] = std::to_string(log.size());
    out.notes["trace_file"] = path;
}

static double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
addSearchMetrics(const SearchCounters &c, std::vector<Metric> &m)
{
    double mutants = static_cast<double>(c.totalMutants);
    m.push_back({"lint.reject_ratio", "ratio", "higher",
                 ratio(static_cast<double>(c.lintRejects), mutants)});
    m.push_back({"mutation.invalid_ratio", "ratio", "lower",
                 ratio(static_cast<double>(c.invalidMutants), mutants)});
    m.push_back({"fitness.early_abort_ratio", "ratio", "higher",
                 ratio(static_cast<double>(c.earlyAborts),
                       static_cast<double>(c.evals))});
    m.push_back({"fitness.rows_skipped_ratio", "ratio", "higher",
                 c.haveRows ? ratio(c.rowsSkipped,
                                    c.rowsScored + c.rowsSkipped)
                            : 0.0});
    m.push_back({"cache.hit_ratio", "ratio", "higher",
                 ratio(static_cast<double>(c.cacheHits),
                       static_cast<double>(c.cacheHits + c.cacheMisses))});
}

void
addReplayMetrics(const ReplayStats &r, std::vector<Metric> &m)
{
    auto us = [&](const char *layer) {
        auto it = r.layers.find(layer);
        return it == r.layers.end() ? 0.0 : it->second.meanMicros();
    };
    auto busy = [&](const char *layer) {
        auto it = r.layers.find(layer);
        return it == r.layers.end() ? 0.0 : it->second.seconds;
    };
    for (const char *layer :
         {"verilog.apply_clone", "verilog.validate", "lint.prescreen",
          "sim.elaborate", "sim.simulate", "sim.teardown", "fitness.score",
          "faultloc.localize", "mutation.edit", "engine.candidate"})
        m.push_back({std::string(layer) + "_us", "us", "lower", us(layer)});
    double sim_n = static_cast<double>(r.simulated);
    m.push_back({"sim.events_per_candidate", "count", "lower",
                 ratio(r.events, sim_n)});
    m.push_back({"sim.ns_per_event", "ns", "lower",
                 ratio(busy("sim.simulate") * 1e9, r.events)});
    m.push_back({"sim.logic_heap_allocs_per_candidate", "count", "lower",
                 ratio(r.logicAllocs, sim_n)});
    double covered = 0;
    for (const char *layer :
         {"verilog.apply_clone", "verilog.validate", "lint.prescreen",
          "sim.elaborate", "sim.simulate", "sim.teardown", "fitness.score"})
        covered += busy(layer);
    m.push_back({"engine.span_coverage", "ratio", "higher",
                 ratio(covered, busy("engine.candidate"))});
}

void
addServiceMetrics(const ServiceLayer *s, std::vector<Metric> &m)
{
    ServiceLayer none;
    const ServiceLayer &l = s ? *s : none;
    m.push_back({"service.submit_ms", "ms", "lower",
                 l.submit.meanMicros() / 1e3});
    m.push_back({"service.queue_wait_ms", "ms", "lower",
                 l.queueWait.meanMicros() / 1e3});
    m.push_back({"service.run_s", "s", "lower", l.run.meanMicros() / 1e6});
    m.push_back({"service.result_ms", "ms", "lower",
                 l.result.meanMicros() / 1e3});
    m.push_back({"service.events_per_job", "count", "lower",
                 ratio(l.events, static_cast<double>(l.submit.calls))});
    m.push_back({"service.snapshot_kb", "KiB", "lower",
                 ratio(l.snapshotBytes / 1024.0,
                       static_cast<double>(l.snapshots))});
}

} // namespace e2ebench
