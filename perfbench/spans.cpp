#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "measure.h"

namespace perfbench {

int32_t
SpanLog::begin(const char *name, uint64_t request_id)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.requestId = request_id;
    s.startS = nowSeconds();
    spans_.push_back(s);
    const auto id = int32_t(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
SpanLog::end(int32_t id)
{
    if (id < 0)
        return;
    spans_[size_t(id)].endS = nowSeconds();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
SpanLog::add(const char *name, double start_s, double end_s,
             uint64_t request_id)
{
    if (!enabled_)
        return;
    Span s;
    s.name = name;
    s.startS = start_s;
    s.endS = end_s;
    s.parent = open_.empty() ? -1 : open_.back();
    s.requestId = request_id;
    spans_.push_back(s);
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back((s.endS - s.startS) * 1e3);
    return out;
}

std::vector<double>
SpanLog::selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[size_t(s.parent)].emplace_back(s.startS, s.endS);
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent.
        double covered = 0;
        double cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.startS);
            hi = std::min(hi, p.endS);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = (p.endS - p.startS - covered) * 1e3;
    }
    return self;
}

std::vector<SpanLog::LayerRow>
SpanLog::table() const
{
    const std::vector<double> self = selfTimesMs(spans_);
    std::vector<LayerRow> rows;
    std::map<std::string, size_t> index;
    std::vector<std::vector<double>> durations;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto [it, fresh] = index.emplace(s.name, rows.size());
        if (fresh) {
            rows.push_back(LayerRow{s.name});
            durations.emplace_back();
        }
        LayerRow &r = rows[it->second];
        const double ms = (s.endS - s.startS) * 1e3;
        ++r.count;
        r.totalMs += ms;
        r.selfMs += self[i];
        durations[it->second].push_back(ms);
    }
    for (size_t i = 0; i < rows.size(); ++i)
        rows[i].medianMs = median(durations[i]);
    return rows;
}

bool
SpanLog::writeTable(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "%-28s %8s %12s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms", "median_ms");
    for (const LayerRow &r : table())
        std::fprintf(f, "%-28s %8zu %12.3f %12.3f %12.4f\n",
                     r.name.c_str(), r.count, r.totalMs, r.selfMs,
                     r.medianMs);
    return std::fclose(f) == 0;
}

bool
SpanLog::writeChromeTrace(const std::string &path, size_t max_events) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().startS;
    const size_t n = std::min(spans_.size(), max_events);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d,\"request\":%llu}}%s\n",
                     jsonString(s.name).c_str(), (s.startS - t0) * 1e6,
                     (s.endS - s.startS) * 1e6, i, s.parent,
                     static_cast<unsigned long long>(s.requestId),
                     i + 1 < n ? "," : "");
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
