#pragma once

/**
 * @file
 * Shared pieces of the end-to-end repair benchmark: run settings,
 * metric and search-identity records, order statistics, and the
 * in-memory span log the traced run writes as Chrome trace-event JSON.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/json.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;
using cirfix::service::Json;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One invocation's settings (see main.cc for the flags). */
struct RunSettings
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;  //!< measurement window
    bool trace = false;
    std::string outDir;     //!< results, traces and service state
};

struct Metric
{
    std::string name;
    std::string unit;
    std::string better;  //!< "lower" or "higher"
    double value = 0.0;
};

/** One search-identity row: everything a speed-only change must leave
 *  bit-identical about one repair job. */
struct JobRow
{
    std::string defect;
    uint64_t seed = 0;
    bool found = false;
    int generations = 0;
    long fitnessEvals = 0;
    uint64_t patchHash = 0;  //!< FNV-1a of the minimized patch

    std::string text() const;
};

/** Everything a workload hands back to main(). */
struct Outcome
{
    long attempted = 0;
    std::vector<std::string> failures;  //!< one entry per failed job
    std::vector<Metric> metrics;
    std::vector<JobRow> rows;
    int evalThreads = 0;
    /** Sample counts and other notes printed beside the metrics. */
    std::map<std::string, std::string> notes;
};

uint64_t fnv1a(const std::string &s,
               uint64_t h = 14695981039346656037ull);

/** Engine seed of job @p k of @p defect under workload seed @p seed. */
uint64_t jobSeed(uint64_t seed, const std::string &defect, int k);

uint64_t rowsHash(const std::vector<JobRow> &rows);

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Process CPU time (user + system), seconds. */
double processCpuSeconds();

/** Wall and process-CPU seconds spent over some interval(s). */
struct Cost
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** Measures a Cost from construction to stop(). */
class CostTimer
{
  public:
    /** Add the interval so far to @p into and return its wall seconds. */
    double
    stop(Cost &into) const
    {
        double wall = secondsBetween(wall0_, Clock::now());
        into.wall += wall;
        into.cpu += processCpuSeconds() - cpu0_;
        return wall;
    }

  private:
    Clock::time_point wall0_ = Clock::now();
    double cpu0_ = processCpuSeconds();
};

/** Peak resident set size of this process, MiB. */
double peakRssMiB();

/**
 * Spans held in memory and written once, at the end of the run, as
 * Chrome trace-event JSON. Every span names its parent span (0 for
 * none) and the job it belongs to; spans of one job share that id.
 * Thread-safe: the service clients record from their own threads.
 */
class SpanLog
{
  public:
    /** Reserve an id so children can name a parent recorded later. */
    long reserve();

    void record(long id, const std::string &name, Clock::time_point start,
                Clock::time_point end, long parent, long job, int tid);

    /** Reserve and record in one step; returns the span id. */
    long
    add(const std::string &name, Clock::time_point start,
        Clock::time_point end, long parent, long job, int tid = 0)
    {
        long id = reserve();
        record(id, name, start, end, parent, job, tid);
        return id;
    }

    size_t size() const;

    /** @throws std::runtime_error when the file cannot be written. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start, end;
        long id = 0, parent = 0, job = 0;
        int tid = 0;
    };

    mutable std::mutex mu_;
    std::vector<Span> spans_;
    long nextId_ = 1;
    Clock::time_point epoch_ = Clock::now();
};

/** Busy time and call count of one layer. */
struct LayerStat
{
    double seconds = 0.0;
    long calls = 0;

    void
    add(double s)
    {
        seconds += s;
        ++calls;
    }
    double
    meanMicros() const
    {
        return calls ? seconds * 1e6 / static_cast<double>(calls) : 0.0;
    }
};

/** Write @p j to @p path; @throws std::runtime_error on failure. */
void writeJsonFile(const std::string &path, const Json &j);

} // namespace e2ebench
