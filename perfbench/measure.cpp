#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "ot/lpn.h"

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

size_t
nearestRank(size_t n, double q)
{
    const double r = std::ceil(q * double(n) - 1e-9);
    return std::clamp<size_t>(size_t(r), 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    const size_t rank = nearestRank(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

size_t
samplesBeyond(size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

double
highestSupportedPercentile(size_t n)
{
    double best = 0;
    for (double q : {0.5, 0.9, 0.99, 0.999})
        if (samplesBeyond(n, q) >= 10)
            best = q;
    return best;
}

ProcessSample
ProcessSample::now()
{
    ProcessSample s;
    s.wallS = nowSeconds();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    s.cpuS = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    s.nivcsw = uint64_t(ru.ru_nivcsw);
    // Aggregate line: cpu user nice system idle iowait irq softirq
    // steal (guest time is already inside user).
    std::ifstream stat("/proc/stat");
    std::string label;
    uint64_t f[8] = {};
    if (stat >> label && label == "cpu") {
        for (uint64_t &v : f)
            stat >> v;
        for (uint64_t v : f)
            s.totalTicks += v;
        s.stealTicks = f[7];
    }
    return s;
}

PhaseCost
PhaseCost::between(const ProcessSample &a, const ProcessSample &b)
{
    PhaseCost c;
    c.wallS = b.wallS - a.wallS;
    c.cpuS = b.cpuS - a.cpuS;
    c.nivcsw = b.nivcsw - a.nivcsw;
    const uint64_t total = b.totalTicks - a.totalTicks;
    c.stealTicks = b.stealTicks - a.stealTicks;
    c.stealPct = total ? 100.0 * double(c.stealTicks) / double(total) : 0.0;
    return c;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::vector<std::pair<std::string, std::string>>
fingerprint()
{
    std::vector<std::pair<std::string, std::string>> fp;
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                model = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    fp.emplace_back("cpu_model", model);
    fp.emplace_back("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    fp.emplace_back("lpn_kernel",
                    ironman::ot::LpnEncoder::activeKernelName());
    std::string governor = "unreadable";
    std::ifstream gov(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    if (gov)
        std::getline(gov, governor);
    fp.emplace_back("governor", governor);
    return fp;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

uint64_t
fnv1a(const void *data, size_t n, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
