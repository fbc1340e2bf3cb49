/**
 * @file
 * End-to-end repair benchmark binary.
 *
 *   e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *            [--out DIR] [--source-id ID]
 *
 * Runs one workload through the public C++ API, checks every repair it
 * reports, and prints every metric by name, unit and direction. The
 * last stdout line is one JSON object {correct, attempted, failed,
 * metrics}; with --trace 0 the metrics are the end-to-end ones, with
 * --trace 1 the per-layer ones of a traced run. A full record (run
 * metadata, search-identity rows and hash, notes) lands in
 * DIR/result-<workload>-seed<N>-trace<T>.json, and a traced run's
 * spans in DIR/trace-<workload>-seed<N>.json. Exit status: 0 all
 * checks passed, 1 a check failed, 2 usage error or a refused build.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "workloads.h"

using namespace e2ebench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--source-id ID]\n",
                 why);
    return 2;
}

/** Why this build must not report timings ("" when it may). */
std::string
buildRefusal()
{
#if !defined(__OPTIMIZE__)
    return "built without optimisation";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return "built with a sanitizer";
#endif
#endif
    if (std::strstr(E2EBENCH_CXX_FLAGS, "-fsanitize"))
        return "built with a sanitizer";
    return "";
}

Json
metadata(const RunSettings &s, const Outcome &o, const std::string &source)
{
    Json meta = Json::object();
    meta["nproc"] = static_cast<long>(std::thread::hardware_concurrency());
    meta["eval_threads"] = o.evalThreads;
#if defined(__clang__)
    meta["compiler"] = std::string("clang ") + __clang_version__;
#else
    meta["compiler"] = std::string("gcc ") + __VERSION__;
#endif
    meta["build_type"] = std::string(E2EBENCH_BUILD_TYPE);
    meta["cxx_flags"] = std::string(E2EBENCH_CXX_FLAGS);
    meta["source"] = source;
    meta["seconds"] = s.seconds;
    return meta;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSettings s;
    s.outDir = ".";
    std::string source = "unknown";
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                s.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                s.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                s.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                s.trace = value == "1";
            } else if (flag == "--out") {
                s.outDir = value;
            } else if (flag == "--source-id") {
                source = value;
            } else {
                return usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed)
        return usage("--workload and --seed are required");
    if (!(s.seconds > 0))
        return usage("--seconds must be positive");
    std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr, "e2ebench: refusing to report: %s\n",
                     refusal.c_str());
        return 2;
    }

    Outcome out;
    try {
        std::filesystem::create_directories(s.outDir);
        out = runWorkload(s);
    } catch (const std::invalid_argument &e) {
        return usage(e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }

    const uint64_t hash = rowsHash(out.rows);
    char hash_hex[17];
    std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    Json meta = metadata(s, out, source);
    std::printf("# e2ebench workload=%s seed=%llu trace=%d\n",
                s.workload.c_str(), static_cast<unsigned long long>(s.seed),
                s.trace ? 1 : 0);
    std::printf("# meta %s\n", meta.dump().c_str());
    std::printf("# search-identity jobs=%zu hash=%s\n", out.rows.size(),
                hash_hex);
    for (const auto &[k, v] : out.notes)
        std::printf("# note %s=%s\n", k.c_str(), v.c_str());
    for (const std::string &f : out.failures)
        std::printf("# FAILED %s\n", f.c_str());
    for (const Metric &m : out.metrics)
        std::printf("# metric %-36s %16.6f %-6s (%s is better)\n",
                    m.name.c_str(), m.value, m.unit.c_str(),
                    m.better.c_str());

    long failed = std::min<long>(static_cast<long>(out.failures.size()),
                                 out.attempted);
    Json metrics = Json::object();
    for (const Metric &m : out.metrics) {
        Json v = Json::object();
        v["value"] = m.value;
        v["unit"] = m.unit;
        metrics[m.name] = std::move(v);
    }

    Json record = Json::object();
    record["workload"] = s.workload;
    record["seed"] = static_cast<long long>(s.seed);
    record["trace"] = s.trace;
    record["meta"] = meta;
    Json rows = Json::array();
    for (const JobRow &r : out.rows)
        rows.push(r.text());
    Json identity = Json::object();
    identity["columns"] =
        "defect,seed,found,generations,fitness_evals,patch_fnv1a";
    identity["rows"] = std::move(rows);
    identity["hash"] = std::string(hash_hex);
    record["search_identity"] = std::move(identity);
    Json failures = Json::array();
    for (const std::string &f : out.failures)
        failures.push(f);
    record["failures"] = std::move(failures);
    Json notes = Json::object();
    for (const auto &[k, v] : out.notes)
        notes[k] = v;
    record["notes"] = std::move(notes);
    record["metrics"] = metrics;
    try {
        writeJsonFile(s.outDir + "/result-" + s.workload + "-seed" +
                          std::to_string(s.seed) + "-trace" +
                          (s.trace ? "1" : "0") + ".json",
                      record);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }

    Json last = Json::object();
    last["correct"] = out.failures.empty();
    last["attempted"] = out.attempted;
    last["failed"] = failed;
    last["metrics"] = std::move(metrics);
    std::printf("%s\n", last.dump().c_str());
    return out.failures.empty() ? 0 : 1;
}
