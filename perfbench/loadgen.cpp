/**
 * @file
 * The benchmark's load generator: one process, one client session,
 * one workload per invocation.
 *
 *   perfbench_loadgen --workload <cot-bulk|infer-lan|infer-pipelined>
 *                     --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * Prints each metric by name with its unit, a diagnostics line (run
 * fingerprint, host steal, involuntary context switches, input and
 * output hashes), and last the result JSON
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * for --trace 0, the per-layer metrics for --trace 1. Exits 1 when any
 * output is wrong or the run fails, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "measure.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_loadgen: %s\nusage: perfbench_loadgen "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 why);
    return 2;
}

bool
parseUint(const char *s, uint64_t *out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || s[0] == '-')
        return false;
    *out = v;
    return true;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
diagnosticsJson(const RunConfig &cfg, const RunResult &r)
{
    std::string s = "{\"diagnostics\":{";
    s += "\"workload\":" + jsonString(cfg.workload);
    s += ",\"seed\":" + std::to_string(cfg.seed);
    s += ",\"trace\":" + std::to_string(cfg.trace ? 1 : 0);
    s += ",\"input_hash\":" + jsonString(hex(r.inputHash));
    s += ",\"output_hash\":" + jsonString(hex(r.outputHash));
    for (const auto &[k, v] : r.diagnostics) {
        s += ',';
        s += jsonString(k);
        s += ':';
        s += jsonString(v);
    }
    return s + "}}";
}

std::string
resultJson(const RunResult &r, const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += r.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i)
            s += ", ";
        s += jsonString(m.name);
        s += ": {\"value\": ";
        s += jsonNumber(m.value);
        s += ", \"unit\": ";
        s += jsonString(m.unit);
        s += '}';
    }
    return s + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        uint64_t n = 0;
        if (a == "--workload") {
            cfg.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            if (!parseUint(v, &n))
                return usage("--seed takes a non-negative integer");
            cfg.seed = n;
        } else if (a == "--seconds") {
            if (!parseUint(v, &n) || n < 1 || n > 120)
                return usage("--seconds takes an integer in [1, 120]");
            cfg.seconds = double(n);
        } else if (a == "--trace") {
            if (!parseUint(v, &n) || n > 1)
                return usage("--trace takes 0 or 1");
            cfg.trace = n == 1;
        } else if (a == "--out-dir") {
            cfg.outDir = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known |= w == cfg.workload;
    if (!known)
        return usage(("unknown workload " + cfg.workload).c_str());

    RunResult r;
    try {
        r = runWorkload(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_loadgen: run failed: %s\n",
                     e.what());
        return 1;
    }

    const std::vector<Metric> &metrics = cfg.trace ? r.perLayer : r.endToEnd;
    for (const Metric &m : metrics)
        std::printf("# %-34s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const std::string diag = diagnosticsJson(cfg, r);
    std::printf("%s\n", diag.c_str());
    if (!cfg.outDir.empty()) {
        const std::string path = cfg.outDir + "/" + cfg.workload +
                                 "_seed" + std::to_string(cfg.seed) +
                                 "_trace" + (cfg.trace ? "1" : "0") +
                                 "_run.json";
        if (FILE *f = std::fopen(path.c_str(), "w")) {
            std::fprintf(f, "%s\n%s\n", diag.c_str(),
                         resultJson(r, metrics).c_str());
            std::fclose(f);
        }
    }
    if (!r.correct)
        std::fprintf(stderr,
                     "perfbench_loadgen: %llu of %llu ops FAILED their "
                     "output check\n",
                     static_cast<unsigned long long>(r.failed),
                     static_cast<unsigned long long>(r.attempted));
    std::printf("%s\n", resultJson(r, metrics).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
