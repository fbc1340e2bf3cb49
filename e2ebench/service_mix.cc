/**
 * @file
 * The service-mix workload: a closed loop against an in-process repair
 * daemon (service::Server on a Unix socket, kWorkers local workers).
 * kClients clients each submit their next job only after the previous
 * job's result has arrived. Jobs carry the faulty design, its testbench
 * and the golden source, so the oracle is recorded server-side, and run
 * at the service default of one evaluation thread.
 */

#include <filesystem>
#include <thread>

#include <unistd.h>

#include "benchmarks/registry.h"
#include "service/client.h"
#include "service/server.h"
#include "service/session.h"
#include "verilog/parser.h"
#include "workloads.h"

namespace e2ebench {

using namespace cirfix;
namespace fs = std::filesystem;

namespace {

constexpr int kWorkers = 2;
constexpr int kClients = 2;
/** Enough jobs that ten lie beyond the p90 latency. */
constexpr int kJobsPerPass = 100;

/** Defects jobs cycle through: the six course projects plus the large
 *  defects whose searches stay under a second at one thread. */
std::vector<const core::DefectSpec *>
defectPool()
{
    std::vector<const core::DefectSpec *> pool;
    for (const char *project : {"decoder_3_to_8", "counter", "flip_flop",
                                "fsm_full", "lshift_reg", "mux_4_1", "i2c"})
        for (const core::DefectSpec *d : bench::defectsForProject(project))
            pool.push_back(d);
    pool.push_back(&bench::getDefect("rs_out_stage_sensitivity"));
    pool.push_back(&bench::getDefect("sdram_sync_reset"));
    return pool;
}

struct MixJob
{
    const core::DefectSpec *defect = nullptr;
    uint64_t seed = 0;
    service::JobSpec spec;
};

std::vector<MixJob>
makeJobs(uint64_t seed)
{
    std::vector<const core::DefectSpec *> pool = defectPool();
    std::vector<MixJob> jobs;
    for (int i = 0; i < kJobsPerPass; ++i) {
        const core::DefectSpec *d = pool[static_cast<size_t>(i) % pool.size()];
        const core::ProjectSpec &p = bench::getProject(d->project);
        MixJob job;
        job.defect = d;
        job.seed = jobSeed(seed, d->id, i);
        job.spec.designSource =
            core::applyRewrites(p.goldenSource, d->rewrites) + "\n" +
            p.testbenchSource;
        job.spec.tbModule = p.tbModule;
        job.spec.dutModule =
            d->repairModule.empty() ? p.dutModule : d->repairModule;
        job.spec.goldenSource = p.goldenSource;
        job.spec.params.seed = job.seed;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** What the client saw of one job. */
struct Observed
{
    Clock::time_point submitted, accepted, running, terminal, replied,
        done;
    std::vector<Clock::time_point> generations;
    long events = 0;
    Json response;     //!< the result frame
    std::string error;  //!< non-empty: rejected, lost or failed
};

void
clientLoop(const std::string &address, const std::vector<MixJob> &jobs,
           int client, std::vector<Observed> &seen)
{
    std::unique_ptr<service::Client> conn;
    for (size_t i = static_cast<size_t>(client); i < jobs.size();
         i += kClients) {
        Observed &o = seen[i];
        try {
            if (!conn)
                conn = std::make_unique<service::Client>(address);
            o.submitted = Clock::now();
            long id = conn->submit(jobs[i].spec);
            o.accepted = Clock::now();
            conn->subscribe(id);
            Json ev;
            while (conn->recv(&ev) && ev.str("type") != "end_of_stream") {
                Clock::time_point now = Clock::now();
                ++o.events;
                if (ev.str("event") == "generation") {
                    o.generations.push_back(now);
                } else if (ev.str("event") == "state") {
                    service::JobState st =
                        service::jobStateFromName(ev.str("state"));
                    if (st == service::JobState::Running)
                        o.running = now;
                    else if (service::isTerminal(st))
                        o.terminal = now;
                }
            }
            o.replied = Clock::now();
            o.response = conn->result(id);
            o.done = Clock::now();
            if (o.response.str("state") != "done")
                o.error = "job ended " + o.response.str("state") + ": " +
                          o.response.str("error");
            else if (!o.response.find("result"))
                o.error = "job ended without a result";
        } catch (const service::ServiceError &e) {
            o.error = "rejected (" + e.code() + "): " + e.what();
            conn.reset();
        } catch (const std::exception &e) {
            o.error = std::string("lost: ") + e.what();
            conn.reset();
        }
    }
}

struct Pass
{
    Cost loop;  //!< first submit to last result
    std::vector<Observed> seen;
};

Pass
runPass(const std::string &address, const std::vector<MixJob> &jobs)
{
    Pass pass;
    pass.seen.resize(jobs.size());
    CostTimer loop;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(clientLoop, std::cref(address), std::cref(jobs),
                             c, std::ref(pass.seen));
    for (std::thread &t : clients)
        t.join();
    loop.stop(pass.loop);
    return pass;
}

JobRow
rowOf(const MixJob &job, const Observed &o)
{
    const Json *r = o.response.find("result");
    if (!r)
        return {job.defect->id, job.seed, false, 0, -1, 0};
    return {job.defect->id,
            job.seed,
            r->flag("found"),
            static_cast<int>(r->num("generations")),
            static_cast<long>(r->num("fitness_evals")),
            r->flag("found") ? fnv1a(r->str("patch")) : 0};
}

std::vector<JobRow>
rowsOf(const std::vector<MixJob> &jobs, const Pass &p)
{
    std::vector<JobRow> rows;
    for (size_t i = 0; i < jobs.size(); ++i)
        rows.push_back(rowOf(jobs[i], p.seen[i]));
    return rows;
}

service::ServerConfig
serverConfig(const std::string &dir)
{
    service::ServerConfig cfg;
    cfg.listenAddress = "unix:" + dir + "/sock";
    cfg.stateDir = dir + "/state";
    cfg.workers = kWorkers;
    return cfg;
}

/** Start a daemon on @p dir; @return what start-up cost. */
Cost
startServer(const std::string &dir,
            std::unique_ptr<service::Server> &server)
{
    Cost cost;
    CostTimer timer;
    server = std::make_unique<service::Server>(serverConfig(dir));
    server->start();
    timer.stop(cost);
    return cost;
}

double
resultDouble(const Observed &o, const char *key)
{
    const Json *r = o.response.find("result");
    return r ? static_cast<double>(r->num(key)) : 0.0;
}

double
outcomeCount(const Observed &o, const char *name)
{
    const Json *r = o.response.find("result");
    const Json *oc = r ? r->find("outcomes") : nullptr;
    return oc ? static_cast<double>(oc->num(name)) : 0.0;
}

} // namespace

Outcome
runServiceMix(const RunSettings &settings)
{
    const std::vector<MixJob> jobs = makeJobs(settings.seed);
    Outcome out;
    out.attempted = static_cast<long>(jobs.size());
    out.evalThreads = jobs.front().spec.params.numThreads;

    // Scenarios for the client-side checks, built outside every timing;
    // firsts holds each defect's first job, in job order.
    std::map<const core::DefectSpec *, core::Scenario> scenarios;
    std::vector<const MixJob *> firsts;
    for (const MixJob &j : jobs)
        if (!scenarios.count(j.defect)) {
            scenarios.emplace(j.defect,
                              core::buildScenario(
                                  bench::getProject(j.defect->project),
                                  *j.defect));
            firsts.push_back(&j);
        }

    const std::string dir =
        settings.outDir + "/service-" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::unique_ptr<service::Server> server;
    startServer(dir, server);
    const std::string address = serverConfig(dir).listenAddress;

    // The warm-up pass fills caches and the allocator and runs the
    // checks; no timing comes from it.
    Clock::time_point window_start = Clock::now();
    Pass warm = runPass(address, jobs);
    out.rows = rowsOf(jobs, warm);
    const uint64_t hash = rowsHash(out.rows);

    std::vector<JobMeasure> measures(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const Observed &o = warm.seen[i];
        const MixJob &job = jobs[i];
        JobMeasure &jm = measures[i];
        std::string label = job.defect->id + " seed " +
                            std::to_string(job.seed) + ": ";
        if (!o.error.empty()) {
            out.failures.push_back(label + o.error);
            continue;
        }
        const Json &r = *o.response.find("result");
        jm.found = r.flag("found");
        jm.evals = static_cast<long>(r.num("fitness_evals"));
        if (!jm.found)
            continue;
        const core::Scenario &sc = scenarios.at(job.defect);
        std::string source = r.str("repaired_source");
        std::string why = recheckRepair(
            sc, source, service::engineConfigFromSpec(job.spec).simLimits);
        if (!why.empty())
            out.failures.push_back(label + why);
        // Held-out check of the repaired text: the repaired design
        // stands in for the faulty one, with nothing left to patch.
        core::Scenario held = sc;
        held.faulty = verilog::parse(source);
        jm.correct = core::checkCorrectness(held, core::Patch{});
    }
    // Set-up: restart the daemon on the state directory the warm-up
    // pass left behind, as after a redeploy; every start recovers those
    // finished jobs. The last daemon started serves the measured passes.
    std::vector<Cost> setup;
    for (size_t i = 0; i < kSetupSamples; ++i) {
        server->stop();
        server.reset();
        setup.push_back(startServer(dir, server));
    }

    auto compare = [&](const Pass &p, const char *what) {
        if (rowsHash(rowsOf(jobs, p)) != hash)
            out.failures.push_back(std::string(what) +
                                   " did not reproduce the search "
                                   "identity of the warm-up pass");
    };

    if (settings.trace) {
        Pass untraced = runPass(address, jobs);
        compare(untraced, "the untraced pass");
        SpanLog log;
        Pass traced = runPass(address, jobs);
        compare(traced, "the traced pass");
        ServiceLayer svc;
        SearchCounters counters;
        counters.haveRows = false;  // not part of the result payload
        LayerStat generation, tail;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const Observed &o = traced.seen[i];
            long job_id = static_cast<long>(i) + 1;
            int tid = static_cast<int>(i % kClients) + 1;
            long span = log.add("service.job", o.submitted, o.done, 0,
                                job_id, tid);
            log.add("service.submit", o.submitted, o.accepted, span, job_id,
                    tid);
            log.add("service.queue_wait", o.submitted, o.running, span,
                    job_id, tid);
            long run = log.add("service.run", o.running, o.terminal, span,
                               job_id, tid);
            log.add("service.result", o.replied, o.done, span, job_id, tid);
            svc.submit.add(secondsBetween(o.submitted, o.accepted));
            svc.queueWait.add(secondsBetween(o.submitted, o.running));
            svc.run.add(secondsBetween(o.running, o.terminal));
            svc.result.add(secondsBetween(o.replied, o.done));
            svc.events += static_cast<double>(o.events);
            Clock::time_point prev = o.running;
            for (Clock::time_point g : o.generations) {
                log.add("engine.generation", prev, g, run, job_id, tid);
                generation.add(secondsBetween(prev, g));
                prev = g;
            }
            log.add("engine.tail", prev, o.terminal, run, job_id, tid);
            tail.add(secondsBetween(prev, o.terminal));

            counters.evals += static_cast<long>(resultDouble(o, "fitness_evals"));
            counters.totalMutants +=
                static_cast<long>(resultDouble(o, "total_mutants"));
            counters.invalidMutants +=
                static_cast<long>(resultDouble(o, "invalid_mutants"));
            counters.lintRejects +=
                static_cast<long>(outcomeCount(o, "lint-reject"));
            counters.earlyAborts +=
                static_cast<long>(outcomeCount(o, "early-abort"));
            if (const Json *r = o.response.find("result"))
                if (const Json *c = r->find("cache")) {
                    counters.cacheHits += static_cast<long>(c->num("hits"));
                    counters.cacheMisses +=
                        static_cast<long>(c->num("misses"));
                }
        }
        for (const auto &entry :
             fs::directory_iterator(serverConfig(dir).stateDir))
            if (entry.path().extension() == ".snap") {
                svc.snapshotBytes +=
                    static_cast<double>(fs::file_size(entry.path()));
                ++svc.snapshots;
            }
        server->stop();
        server.reset();

        // Layer calls for the same defects, from this process.
        ReplayStats replay;
        LayerStat build, construct, parse;
        long replay_job = static_cast<long>(jobs.size());
        for (const MixJob *first : firsts) {
            const MixJob &job = *first;
            core::EngineConfig cfg = service::engineConfigFromSpec(job.spec);
            ++replay_job;
            Clock::time_point t0 = Clock::now();
            auto parsed = verilog::parse(job.spec.designSource);
            Clock::time_point t1 = Clock::now();
            core::Scenario sc = core::buildScenario(
                bench::getProject(job.defect->project), *job.defect);
            Clock::time_point t2 = Clock::now();
            core::RepairEngine engine = sc.makeEngine(cfg);
            Clock::time_point t3 = Clock::now();
            parse.add(secondsBetween(t0, t1));
            build.add(secondsBetween(t1, t2));
            construct.add(secondsBetween(t2, t3));
            log.add("verilog.parse", t0, t1, 0, replay_job);
            log.add("scenario.build", t1, t2, 0, replay_job);
            log.add("engine.construct", t2, t3, 0, replay_job);
            replayCandidates(sc, cfg, job.seed, kReplayBatch, replay_job,
                             replay, log);
        }

        auto &m = out.metrics;
        m.push_back({"scenario.build_ms", "ms", "lower",
                     build.meanMicros() / 1e3});
        m.push_back({"engine.construct_ms", "ms", "lower",
                     construct.meanMicros() / 1e3});
        m.push_back({"verilog.parse_ms", "ms", "lower",
                     parse.meanMicros() / 1e3});
        addSearchMetrics(counters, m);
        addReplayMetrics(replay, m);
        double evals = static_cast<double>(counters.evals);
        m.push_back({"engine.generation_ms", "ms", "lower",
                     generation.meanMicros() / 1e3});
        m.push_back({"engine.tail_ms", "ms", "lower",
                     tail.meanMicros() / 1e3});
        m.push_back({"engine.cpu_per_eval_us", "us", "lower",
                     evals > 0 ? traced.loop.cpu * 1e6 / evals : 0.0});
        m.push_back({"evalpool.utilization", "ratio", "higher",
                     traced.loop.cpu / (traced.loop.wall * kWorkers)});
        m.push_back({"trace.overhead_ratio", "ratio", "lower",
                     traced.loop.wall / untraced.loop.wall - 1.0});
        addServiceMetrics(&svc, m);
        out.notes["replay_candidates"] = std::to_string(replay.candidates);
        out.notes["untraced_wall_s"] = std::to_string(untraced.loop.wall);
        out.notes["traced_wall_s"] = std::to_string(traced.loop.wall);
        writeTrace(settings, log, out);
        fs::remove_all(dir);
        return out;
    }

    // Measured passes: at least one, then more while they fit.
    std::vector<Cost> passes;
    double last_pass = 0;
    do {
        Clock::time_point pass_start = Clock::now();
        Pass p = runPass(address, jobs);
        compare(p, "a measured pass");
        passes.push_back(p.loop);
        for (size_t i = 0; i < jobs.size(); ++i)
            measures[i].latencies.push_back(
                secondsBetween(p.seen[i].submitted, p.seen[i].done));
        last_pass = secondsBetween(pass_start, Clock::now());
    } while (anotherPassFits(window_start, last_pass, settings.seconds));
    server->stop();
    server.reset();
    fs::remove_all(dir);
    out.metrics = endToEndMetrics(setup, passes, measures,
                                  static_cast<long>(out.failures.size()),
                                  out);
    return out;
}

} // namespace e2ebench
