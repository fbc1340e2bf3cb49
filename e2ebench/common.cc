#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

namespace e2ebench {

std::string
JobRow::text() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s,%" PRIu64 ",%d,%d,%ld,%016" PRIx64,
                  defect.c_str(), seed, found ? 1 : 0, generations,
                  fitnessEvals, patchHash);
    return buf;
}

uint64_t
fnv1a(const std::string &s, uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
jobSeed(uint64_t seed, const std::string &defect, int k)
{
    // splitmix64 finalizer over (seed, defect, k): distinct, stable
    // engine seeds for every job of every workload seed.
    uint64_t z = fnv1a(defect, seed * 0x9e3779b97f4a7c15ull +
                                   static_cast<uint64_t>(k));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rowsHash(const std::vector<JobRow> &rows)
{
    uint64_t h = fnv1a("");
    for (const JobRow &r : rows)
        h = fnv1a(r.text() + "\n", h);
    return h;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

long
SpanLog::reserve()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

void
SpanLog::record(long id, const std::string &name, Clock::time_point start,
                Clock::time_point end, long parent, long job, int tid)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, id, parent, job, tid});
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto micros = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    };
    Json events = Json::array();
    for (const Span &s : spans_) {
        Json e = Json::object();
        e["name"] = s.name;
        e["cat"] = s.name.substr(0, s.name.find('.'));
        e["ph"] = "X";
        e["ts"] = micros(s.start);
        e["dur"] = micros(s.end) - micros(s.start);
        e["pid"] = 1;
        e["tid"] = s.tid;
        Json args = Json::object();
        args["id"] = s.id;
        args["parent"] = s.parent;
        args["job"] = s.job;
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    writeJsonFile(path, doc);
}

void
writeJsonFile(const std::string &path, const Json &j)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << j.dump() << "\n";
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

} // namespace e2ebench
