/**
 * @file
 * The benchmark's own span recorder: spans around the calls the load
 * generator makes into each layer's public entry points, kept in
 * memory and written out when the run ends as a per-layer table (count,
 * total, self time, median) and a Chrome trace-event JSON.
 *
 * A span's parent is the innermost span still open when it began, so
 * spans must be recorded from one thread (the load generator's driving
 * thread). Self time is a span's duration minus the part of its
 * interval that its child spans cover. A disabled log records nothing
 * and reads no clock.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog
{
  public:
    struct Span
    {
        const char *name = nullptr; ///< string literal
        double startS = 0;
        double endS = 0;
        int32_t parent = -1;
        uint64_t requestId = 0;
    };

    struct LayerRow
    {
        std::string name;
        size_t count = 0;
        double totalMs = 0;
        double selfMs = 0;
        double medianMs = 0;
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Pre-size so recording does not reallocate mid-phase. */
    void reserve(size_t n) { spans_.reserve(n); }

    /** Open a span (-1 when disabled). */
    int32_t begin(const char *name, uint64_t request_id = 0);

    /** Close span @p id (ignored for -1). */
    void end(int32_t id);

    /** Record an already-measured interval under the open span. */
    void add(const char *name, double start_s, double end_s,
             uint64_t request_id = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every span named @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Self time (ms) of each of @p spans, indexed like them. */
    static std::vector<double> selfTimesMs(const std::vector<Span> &spans);

    /** One row per span name, in first-seen order. */
    std::vector<LayerRow> table() const;

    /** Write table() as text; false when the file cannot be written. */
    bool writeTable(const std::string &path) const;

    /**
     * Write the first @p max_events spans as a Chrome trace-event JSON
     * (chrome://tracing, Perfetto).
     */
    bool writeChromeTrace(const std::string &path, size_t max_events) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

/** RAII span on a SpanLog. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint64_t request_id = 0)
        : log_(log), id_(log.begin(name, request_id))
    {
    }
    ~ScopedSpan() { log_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
