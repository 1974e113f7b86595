#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/crhf.h"
#include "crypto/seed_expander.h"
#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "ot/ggm_tree.h"
#include "ot/lpn.h"
#include "ot/spcot.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "spans.h"
#include "svc/cot_client.h"
#include "svc/cot_server.h"
#include "svc/operator_stock.h"

namespace perfbench {

using namespace ironman;

namespace {

/** Timed calls at least, so the quiet windows can hold 120 of them. */
constexpr size_t kMinCalls = 220;

/** Distinct generated inference inputs a run cycles through. */
constexpr size_t kInputPool = 256;

/** Correlations of every extension checked against the server half. */
constexpr size_t kCotSamples = 1024;

/** Most spans written to the Chrome trace (the table keeps them all). */
constexpr size_t kTraceEventCap = 20000;

uint64_t
counter(const char *name)
{
    return metrics::Registry::instance().counterValue(name);
}

/**
 * When a timed loop stops: after a deadline and a minimum call count,
 * or after an exact call count.
 */
struct StopRule
{
    double deadline = 0;
    size_t fixed = 0;
    size_t minCalls = 0;

    static StopRule
    after(double seconds, size_t fixed_calls, size_t min_calls = kMinCalls)
    {
        return {nowSeconds() + seconds, fixed_calls, min_calls};
    }

    bool
    more(size_t calls) const
    {
        if (fixed)
            return calls < fixed;
        return calls < minCalls || nowSeconds() < deadline;
    }
};

/**
 * One timed phase: per-call latencies, ops delivered and process cost,
 * cut into windows of about kWindowS so host interference (steal) can
 * be told apart per window.
 */
class Phase
{
  public:
    static constexpr double kWindowS = 0.5;
    static constexpr double kQuietShare = 0.25;
    static constexpr size_t kMinWindows = 6;
    /** Quiet calls at least, so p90 keeps ten samples beyond it. */
    static constexpr size_t kMinQuietCalls = 120;

    struct Window
    {
        PhaseCost cost;
        uint64_t ops = 0;
        std::vector<double> callMs;
    };

    void
    start()
    {
        mark_ = ProcessSample::now();
        windows_.assign(1, Window{});
    }

    /** One finished call of @p ms delivering @p ops. */
    void
    record(double ms, uint64_t ops)
    {
        Window &w = windows_.back();
        w.callMs.push_back(ms);
        w.ops += ops;
        if (nowSeconds() - mark_.wallS >= kWindowS) {
            close();
            windows_.emplace_back();
        }
    }

    void
    finish()
    {
        if (windows_.back().callMs.empty() && windows_.size() > 1)
            windows_.pop_back();
        else
            close();
    }

    const std::vector<Window> &windows() const { return windows_; }

    /**
     * The quiet windows. Host steal only ever slows the program down,
     * and on a shared host it comes and goes within a run, so the
     * end-to-end figures are taken on the windows that lost at most
     * one more steal tick than the least-stolen window — but on no
     * fewer than the least-stolen quarter of the windows, six windows
     * and kMinQuietCalls calls (all of them when there are fewer).
     */
    Phase
    quiet() const
    {
        std::vector<size_t> order(windows_.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return windows_[a].cost.stealTicks < windows_[b].cost.stealTicks;
        });
        const uint64_t floor =
            order.empty() ? 0 : windows_[order[0]].cost.stealTicks;
        const size_t min_keep = std::max<size_t>(
            kMinWindows, size_t(double(order.size()) * kQuietShare));
        size_t keep = 0, calls = 0;
        for (size_t i : order) {
            const Window &w = windows_[i];
            if (keep >= min_keep && calls >= kMinQuietCalls &&
                w.cost.stealTicks > floor + 1)
                break;
            ++keep;
            calls += w.callMs.size();
        }
        order.resize(keep);
        std::sort(order.begin(), order.end());
        Phase q;
        for (size_t i : order)
            q.windows_.push_back(windows_[i]);
        return q;
    }

    size_t
    calls() const
    {
        size_t n = 0;
        for (const Window &w : windows_)
            n += w.callMs.size();
        return n;
    }

    uint64_t
    ops() const
    {
        uint64_t n = 0;
        for (const Window &w : windows_)
            n += w.ops;
        return n;
    }

    std::vector<double>
    callMs() const
    {
        std::vector<double> all;
        for (const Window &w : windows_)
            all.insert(all.end(), w.callMs.begin(), w.callMs.end());
        return all;
    }

    PhaseCost
    cost() const
    {
        PhaseCost c;
        double steal_wall = 0;
        for (const Window &w : windows_) {
            c.wallS += w.cost.wallS;
            c.cpuS += w.cost.cpuS;
            c.nivcsw += w.cost.nivcsw;
            steal_wall += w.cost.stealPct * w.cost.wallS;
        }
        c.stealPct = c.wallS > 0 ? steal_wall / c.wallS : 0;
        return c;
    }

  private:
    void
    close()
    {
        const ProcessSample now = ProcessSample::now();
        windows_.back().cost = PhaseCost::between(mark_, now);
        mark_ = now;
    }

    ProcessSample mark_;
    std::vector<Window> windows_;
};

std::vector<Metric>
endToEndMetrics(const Phase &timed, const std::vector<double> &setup_s,
                double peak_rss_mb)
{
    const Phase ph = timed.quiet();
    const double ops = double(std::max<uint64_t>(ph.ops(), 1));
    const PhaseCost cost = ph.cost();
    const std::vector<double> calls = ph.callMs();
    return {
        {"ops_per_s", ops / cost.wallS, "1/s"},
        {"call_ms_p50", percentile(calls, 0.5), "ms"},
        {"call_ms_p90", percentile(calls, 0.9), "ms"},
        {"cpu_us_per_op", cost.cpuS * 1e6 / ops, "us"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
}

/**
 * Every per-layer value, zero where the workload does not exercise the
 * layer (cot-bulk serves no images; only infer-pipelined draws from a
 * reservoir).
 */
struct Layers
{
    double ggmMs = 0, crhfMs = 0, lpnMs = 0;
    double inprocMs = 0, inproc1Ms = 0, threadSpeedup = 0;
    double svcExtendMs = 0, wireMsPerExt = 0, bytesPerExt = 0;
    double enginesBuilt = 0;
    double requestMs = 0, submitMs = 0, commitMs = 0;
    double roundsPerImg = 0, bytesPerImg = 0, cotsPerImg = 0;
    double extPerImg = 0, rttFloorMs = 0;
    double localMsPerImg = 0, serveOverheadMs = 0;
    double stallUsPerImg = 0, waitUsPerImg = 0, refillsPerImg = 0;
    double traceOverheadMs = 0, traceOverheadPct = 0;

    std::vector<Metric>
    metrics() const
    {
        return {
            {"ot.ggm_expand_ms", ggmMs, "ms"},
            {"crypto.crhf_ms", crhfMs, "ms"},
            {"ot.lpn_encode_ms", lpnMs, "ms"},
            {"ot.extend_inproc_ms", inprocMs, "ms"},
            {"ot.extend_inproc_1t_ms", inproc1Ms, "ms"},
            {"ot.thread_speedup", threadSpeedup, "x"},
            {"svc.extend_ms", svcExtendMs, "ms"},
            {"net.wire_ms_per_ext", wireMsPerExt, "ms"},
            {"net.bytes_per_ext", bytesPerExt, "bytes"},
            {"svc.engines_built", enginesBuilt, "count"},
            {"infer.request_ms", requestMs, "ms"},
            {"infer.submit_ms", submitMs, "ms"},
            {"infer.commit_ms", commitMs, "ms"},
            {"infer.rounds_per_img", roundsPerImg, "count"},
            {"infer.online_bytes_per_img", bytesPerImg, "bytes"},
            {"infer.cots_per_img", cotsPerImg, "count"},
            {"ot.ext_per_img", extPerImg, "count"},
            {"net.rtt_floor_ms", rttFloorMs, "ms"},
            {"ppml.local_ms_per_img", localMsPerImg, "ms"},
            {"infer.serve_overhead_ms", serveOverheadMs, "ms"},
            {"svc.reservoir_stall_us_per_img", stallUsPerImg, "us"},
            {"svc.operator_wait_us_per_img", waitUsPerImg, "us"},
            {"svc.reservoir_refills_per_img", refillsPerImg, "count"},
            {"bench.trace_overhead_ms", traceOverheadMs, "ms"},
            {"bench.trace_overhead_pct", traceOverheadPct, "%"},
        };
    }
};

void
setTraceOverhead(Layers &l, const Phase &untraced, const Phase &traced)
{
    const double u = percentile(untraced.callMs(), 0.5);
    l.traceOverheadMs = percentile(traced.callMs(), 0.5) - u;
    l.traceOverheadPct = u > 0 ? 100.0 * l.traceOverheadMs / u : 0;
}

void
addPhaseDiagnostics(RunResult &r, const char *label, const Phase &ph)
{
    const std::string p(label);
    const PhaseCost cost = ph.cost();
    r.diagnostics.emplace_back(p + "_calls", std::to_string(ph.calls()));
    r.diagnostics.emplace_back(p + "_wall_s", jsonNumber(cost.wallS));
    r.diagnostics.emplace_back(p + "_steal_pct", jsonNumber(cost.stealPct));
    r.diagnostics.emplace_back(p + "_invol_ctx_switches",
                               std::to_string(cost.nivcsw));
    std::string ops_s, steal;
    for (const Phase::Window &w : ph.windows()) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%.4g", ops_s.empty() ? "" : " ",
                      double(w.ops) / w.cost.wallS);
        ops_s += buf;
        std::snprintf(buf, sizeof buf, "%s%.1f", steal.empty() ? "" : " ",
                      w.cost.stealPct);
        steal += buf;
    }
    r.diagnostics.emplace_back(p + "_window_ops_per_s", ops_s);
    r.diagnostics.emplace_back(p + "_window_steal_pct", steal);
    const Phase q = ph.quiet();
    r.diagnostics.emplace_back(p + "_quiet_windows",
                               std::to_string(q.windows().size()));
    r.diagnostics.emplace_back(p + "_quiet_calls", std::to_string(q.calls()));
    r.diagnostics.emplace_back(
        p + "_quiet_highest_supported_percentile",
        jsonNumber(highestSupportedPercentile(q.calls())));
    r.diagnostics.emplace_back(p + "_quiet_steal_pct",
                               jsonNumber(q.cost().stealPct));
    r.diagnostics.emplace_back(p + "_all_windows_ops_per_s",
                               jsonNumber(double(ph.ops()) / cost.wallS));
}

void
writeTraceFiles(const RunConfig &cfg, const SpanLog &log)
{
    if (cfg.outDir.empty())
        return;
    const std::string stem = cfg.outDir + "/" + cfg.workload + "_seed" +
                             std::to_string(cfg.seed);
    log.writeTable(stem + "_layers.txt");
    log.writeChromeTrace(stem + "_trace.json", kTraceEventCap);
}

// ---------------------------------------------------------------------------
// Engine-stage probes: the public kernels one extension runs, timed on
// the workload's parameter set. Each returns the median over reps.
// ---------------------------------------------------------------------------

double
probeGgmMs(const ot::FerretParams &p, SpanLog &log, int reps)
{
    const ot::GgmSumLayout layout =
        ot::GgmSumLayout::of(ot::treeArities(p.treeLeaves(), p.arity));
    constexpr size_t kChunk = ot::SpcotWorkspace::kBatchTrees;
    auto prg = crypto::makeTreeExpander(p.prg, p.arity);
    ot::GgmBatchScratch scratch;
    std::vector<Block> seeds(kChunk);
    for (size_t i = 0; i < kChunk; ++i)
        seeds[i] = Block::fromUint64(i + 1);
    std::vector<Block> leaves(kChunk * layout.leaves);
    std::vector<Block> sums(kChunk * layout.total);
    std::vector<Block> leaf_sums(kChunk);
    for (int r = 0; r < reps; ++r) {
        ScopedSpan span(log, "ot.ggm_expand");
        for (size_t tr0 = 0; tr0 < p.t; tr0 += kChunk) {
            const size_t cnt = std::min(kChunk, p.t - tr0);
            ot::ggmExpandBatchInto(*prg, seeds.data(), cnt, layout,
                                   scratch, leaves.data(), layout.leaves,
                                   sums.data(), layout.total,
                                   leaf_sums.data());
        }
    }
    return median(log.durationsMs("ot.ggm_expand"));
}

double
probeCrhfMs(const ot::FerretParams &p, SpanLog &log, int reps)
{
    ot::SpcotShape shape;
    shape.prepare(ot::SpcotConfig{p.treeLeaves(), p.arity, p.prg});
    // The sender's hash volume per extension: two pads per chosen OT
    // plus the per-tree mini-leaf pads.
    const size_t hashes =
        2 * p.t * shape.cotsPerTree + p.t * shape.sumsPerTree;
    crypto::Crhf crhf;
    Rng rng(7);
    const std::vector<Block> in = rng.nextBlocks(hashes);
    std::vector<Block> out(hashes);
    for (int r = 0; r < reps; ++r) {
        ScopedSpan span(log, "crypto.crhf");
        crhf.hashBatch(in.data(), out.data(), hashes, 1);
    }
    return median(log.durationsMs("crypto.crhf"));
}

double
probeLpnMs(const ot::FerretParams &p, int threads, SpanLog &log,
           int reps)
{
    ot::LpnParams lp;
    lp.n = p.n;
    lp.k = p.k;
    lp.d = p.lpnWeight;
    lp.seed = p.lpnSeed;
    const ot::LpnEncoder enc(lp);
    common::ThreadPool pool(threads);
    std::vector<ot::LpnEncodeScratch> scratch(static_cast<size_t>(threads));
    ot::LpnIndexTape tape;
    enc.buildTape(tape, lp.n, pool, scratch.data());
    Rng rng(8);
    const std::vector<Block> in = rng.nextBlocks(lp.k);
    std::vector<Block> rows = rng.nextBlocks(lp.n);
    for (int r = 0; r < reps; ++r) {
        ScopedSpan span(log, "ot.lpn_encode");
        enc.encodeBlocksTapePool(in.data(), rows.data(), lp.n, tape,
                                 pool);
    }
    return median(log.durationsMs("ot.lpn_encode"));
}

/**
 * One in-process FerretCotSender/Receiver pair over net::runTwoParty:
 * median receiver-side extendInto time after @p warm extensions.
 */
double
probeInprocMs(const ot::FerretParams &p, int threads, SpanLog &log,
              const char *span_name, int warm, int reps)
{
    Rng dealer(1234);
    const Block delta = dealer.nextBlock();
    auto [base_send, base_recv] =
        ot::dealBaseCots(dealer, delta, p.reservedCots());
    const int total = warm + reps;
    std::vector<std::pair<double, double>> stamps;
    net::runTwoParty(
        [&](net::Channel &ch) {
            ot::FerretCotSender sender(ch, p, delta,
                                       std::move(base_send.q));
            sender.setThreads(threads);
            Rng rng(1);
            std::vector<Block> q(p.usableOts());
            for (int i = 0; i < total; ++i)
                sender.extendInto(rng, q.data());
        },
        [&](net::Channel &ch) {
            ot::FerretCotReceiver receiver(ch, p,
                                           std::move(base_recv.choice),
                                           std::move(base_recv.t));
            receiver.setThreads(threads);
            Rng rng(2);
            BitVec choice;
            std::vector<Block> t(p.usableOts());
            for (int i = 0; i < total; ++i) {
                const double t0 = nowSeconds();
                receiver.extendInto(rng, choice, t.data());
                if (i >= warm)
                    stamps.emplace_back(t0, nowSeconds());
            }
        });
    std::vector<double> ms;
    for (const auto &[a, b] : stamps) {
        log.add(span_name, a, b);
        ms.push_back((b - a) * 1e3);
    }
    return median(ms);
}

/** Engine stages + in-process extension at 1 and 2 threads per party. */
void
probeEngine(const ot::FerretParams &p, int threads, bool big, SpanLog &log,
            Layers &l)
{
    const int reps = big ? 7 : 41;
    ScopedSpan probe(log, "probe.engine");
    l.ggmMs = probeGgmMs(p, log, reps);
    l.crhfMs = probeCrhfMs(p, log, reps);
    l.lpnMs = probeLpnMs(p, threads, log, reps);
    const int warm = big ? 6 : 8;
    l.inproc1Ms =
        probeInprocMs(p, 1, log, "ot.extend_inproc_1t", warm, reps + 4);
    const double two =
        probeInprocMs(p, 2, log, "ot.extend_inproc_2t", warm, reps + 4);
    l.inprocMs = threads == 1 ? l.inproc1Ms : two;
    l.threadSpeedup = two > 0 ? l.inproc1Ms / two : 0;
}

// ---------------------------------------------------------------------------
// cot-bulk
// ---------------------------------------------------------------------------

/**
 * Checks each extension's sampled correlations, t = q ^ b*delta,
 * between the client's receiver half and the server's sender half
 * (delivered on the server's session thread through the sender sink).
 */
class CotChecker
{
  public:
    CotChecker(uint64_t seed, size_t usable) : seed_(seed), usable_(usable)
    {
    }

    size_t
    sampleIndex(uint64_t iter, size_t j) const
    {
        if (j == 0)
            return 0;
        if (j == 1)
            return usable_ - 1;
        return size_t(mixSeed(seed_ ^ (iter << 20), j) % usable_);
    }

    void
    onServer(const svc::CotServer::SenderBatch &b)
    {
        std::vector<Block> q(kCotSamples);
        for (size_t j = 0; j < kCotSamples; ++j)
            q[j] = b.q[sampleIndex(b.iteration, j)];
        std::lock_guard<std::mutex> lock(m_);
        delta_ = b.delta;
        server_[b.iteration] = std::move(q);
        settleLocked(b.iteration);
    }

    void
    onClient(uint64_t iter, const BitVec &choice, const Block *t,
             bool corrupt)
    {
        ClientSample c;
        c.bits.resize(kCotSamples);
        c.t.resize(kCotSamples);
        for (size_t j = 0; j < kCotSamples; ++j) {
            const size_t i = sampleIndex(iter, j);
            c.bits[j] = choice.get(i);
            c.t[j] = t[i];
        }
        if (corrupt)
            c.t[0].lo ^= 1;
        std::lock_guard<std::mutex> lock(m_);
        client_[iter] = std::move(c);
        settleLocked(iter);
    }

    /** Wait until extensions [0, iters) are all checked. */
    bool
    waitChecked(uint64_t iters, double timeout_s)
    {
        std::unique_lock<std::mutex> lock(m_);
        return cv_.wait_for(lock,
                            std::chrono::duration<double>(timeout_s),
                            [&] { return checked_ >= iters; });
    }

    /** Extensions in [lo, hi) that failed or were never checked. */
    uint64_t
    badIn(uint64_t lo, uint64_t hi) const
    {
        std::lock_guard<std::mutex> lock(m_);
        uint64_t bad = 0;
        for (uint64_t i = lo; i < hi; ++i)
            bad += bad_.count(i) || !done_.count(i);
        return bad;
    }

  private:
    struct ClientSample
    {
        std::vector<uint8_t> bits;
        std::vector<Block> t;
    };

    void
    settleLocked(uint64_t iter)
    {
        const auto s = server_.find(iter);
        const auto c = client_.find(iter);
        if (s == server_.end() || c == client_.end())
            return;
        for (size_t j = 0; j < kCotSamples; ++j)
            if (c->second.t[j] !=
                (s->second[j] ^ scalarMul(c->second.bits[j], delta_))) {
                bad_.insert(iter);
                break;
            }
        server_.erase(s);
        client_.erase(c);
        done_.insert(iter);
        ++checked_;
        cv_.notify_all();
    }

    const uint64_t seed_;
    const size_t usable_;
    mutable std::mutex m_;
    std::condition_variable cv_;
    Block delta_;
    std::map<uint64_t, std::vector<Block>> server_;
    std::map<uint64_t, ClientSample> client_;
    std::set<uint64_t> bad_;
    std::set<uint64_t> done_;
    uint64_t checked_ = 0;
};

/** One cot-bulk bring-up: fresh server (fresh engine pool) + client. */
struct CotBringUp
{
    std::unique_ptr<CotChecker> check;
    std::unique_ptr<svc::CotServer> server;
    std::unique_ptr<svc::CotClient> client;

    CotBringUp() = default;
    CotBringUp(const CotBringUp &) = delete;
    CotBringUp &operator=(const CotBringUp &) = delete;

    ~CotBringUp()
    {
        if (client)
            client->close();
        if (server)
            server->stop();
    }

    /** Extensions of this session that failed their check. */
    uint64_t
    finish()
    {
        const uint64_t iters = client->extensionsRun();
        check->waitChecked(iters, 30.0);
        return check->badIn(0, iters);
    }
};

std::unique_ptr<CotBringUp>
bringUpCot(const ot::FerretParams &p, int threads, uint64_t seed,
           int rep, int warm, BitVec &choice, std::vector<Block> &t)
{
    auto b = std::make_unique<CotBringUp>();
    b->check = std::make_unique<CotChecker>(mixSeed(seed, 7),
                                            p.usableOts());
    svc::CotServer::Config cfg;
    cfg.engineThreads = threads;
    b->server = std::make_unique<svc::CotServer>(cfg);
    CotChecker *check = b->check.get();
    b->server->setSenderSink(
        [check](const svc::CotServer::SenderBatch &batch) {
            check->onServer(batch);
        });
    const uint16_t port = b->server->listenTcp(0);
    svc::CotClient::Options opt;
    opt.role = svc::Role::Receiver;
    opt.setupSeed = mixSeed(seed, 100 + uint64_t(rep));
    opt.threads = threads;
    b->client = svc::CotClient::connectTcp("127.0.0.1", port, p, opt);
    for (int w = 0; w < warm; ++w) {
        const uint64_t iter = b->client->extensionsRun();
        b->client->extendRecv(choice, t.data());
        check->onClient(iter, choice, t.data(), false);
    }
    return b;
}

RunResult
runCotBulk(const RunConfig &cfg)
{
    const ot::FerretParams p =
        cfg.smallParams ? ot::tinyTestParams() : ot::paperParamSet(20);
    // 2 engine threads per party: 4 in total, the 4-vCPU box's width.
    constexpr int kThreads = 2;
    // The first ~5 extensions of a fresh engine pair run ~2x slower
    // (first-touch of the arena and tape); warm-up covers them.
    constexpr int kWarm = 6;
    const size_t bring_ups = cfg.bringUps ? cfg.bringUps : 5;
    const uint64_t usable = p.usableOts();

    RunResult res;
    SpanLog log;
    log.reserve(1 << 16);
    BitVec choice;
    std::vector<Block> t(usable);
    // The timed session is the first bring-up, so the footprint the
    // timed phase sees is its own; the other bring-ups, timed for
    // setup_s only, follow the timed phase.
    std::vector<double> setup;
    uint64_t bad_setup = 0;
    const uint64_t built0 = counter("svc_engine_built_total");
    const double setup_t0 = nowSeconds();
    std::unique_ptr<CotBringUp> live =
        bringUpCot(p, kThreads, cfg.seed, 0, kWarm, choice, t);
    setup.push_back(nowSeconds() - setup_t0);
    const uint64_t first_timed = live->client->extensionsRun();
    uint64_t out_hash = fnv1a(nullptr, 0);

    auto run_phase = [&](StopRule stop, bool traced) {
        log.setEnabled(traced);
        Phase ph;
        ph.start();
        for (size_t i = 0; stop.more(i); ++i) {
            const uint64_t iter = live->client->extensionsRun();
            const int32_t span = log.begin("svc.extend", iter);
            const double t0 = nowSeconds();
            live->client->extendRecv(choice, t.data());
            const double ms = (nowSeconds() - t0) * 1e3;
            log.end(span);
            live->check->onClient(iter, choice, t.data(),
                                  int64_t(i) == cfg.corruptCall &&
                                      !traced);
            out_hash = fnv1a(t.data(), 8 * sizeof(Block), out_hash);
            ph.record(ms, usable);
        }
        ph.finish();
        log.setEnabled(false);
        return ph;
    };

    Layers layers;
    Phase untraced, traced;
    uint64_t bytes_per_ext = 0;
    if (cfg.trace) {
        // Each half only needs its median: half the minimum calls.
        untraced = run_phase(
            StopRule::after(cfg.seconds / 2, cfg.fixedCalls, kMinCalls / 2),
            false);
        const uint64_t bytes0 = counter("net_bytes_sent_total");
        traced = run_phase(
            StopRule::after(cfg.seconds / 2, cfg.fixedCalls, kMinCalls / 2),
            true);
        bytes_per_ext = (counter("net_bytes_sent_total") - bytes0) /
                        std::max<size_t>(traced.calls(), 1);
    } else {
        untraced =
            run_phase(StopRule::after(cfg.seconds, cfg.fixedCalls), false);
    }
    const uint64_t end_timed = live->client->extensionsRun();
    const double rss_mb = peakRssMiB();
    const uint64_t built = counter("svc_engine_built_total") - built0;

    live->check->waitChecked(end_timed, 30.0);
    const uint64_t bad_timed = live->check->badIn(first_timed, end_timed);
    bad_setup += live->check->badIn(0, first_timed);
    live.reset();
    for (size_t rep = 1; rep < bring_ups; ++rep) {
        const double t0 = nowSeconds();
        auto extra = bringUpCot(p, kThreads, cfg.seed, int(rep), kWarm,
                                choice, t);
        setup.push_back(nowSeconds() - t0);
        bad_setup += extra->finish();
    }

    // The inputs are the per-session dealer seeds; the output hash
    // folds the head of every timed extension's t.
    res.inputHash = fnv1a(nullptr, 0);
    for (size_t rep = 0; rep < bring_ups; ++rep) {
        const uint64_t s = mixSeed(cfg.seed, 100 + rep);
        res.inputHash = fnv1a(&s, sizeof s, res.inputHash);
    }
    res.outputHash = out_hash;
    res.attempted = untraced.ops() + traced.ops();
    res.failed = (bad_timed + bad_setup) * usable;
    res.correct = res.failed == 0;
    res.endToEnd = endToEndMetrics(untraced, setup, rss_mb);
    addPhaseDiagnostics(res, "timed", untraced);
    for (size_t i = 0; i < setup.size(); ++i)
        res.diagnostics.emplace_back("setup_s_" + std::to_string(i),
                                     jsonNumber(setup[i]));

    if (cfg.trace) {
        addPhaseDiagnostics(res, "traced", traced);
        layers.svcExtendMs = percentile(traced.callMs(), 0.5);
        layers.bytesPerExt = double(bytes_per_ext);
        layers.enginesBuilt = double(built);
        setTraceOverhead(layers, untraced, traced);
        log.setEnabled(true);
        probeEngine(p, kThreads, !cfg.smallParams, log, layers);
        layers.wireMsPerExt = layers.svcExtendMs - layers.inprocMs;
        res.perLayer = layers.metrics();
        writeTraceFiles(cfg, log);
    }
    return res;
}

// ---------------------------------------------------------------------------
// infer-lan / infer-pipelined
// ---------------------------------------------------------------------------

struct InferShape
{
    uint16_t depth;
    bool stream;
    infer::SupplyKind supply;
    uint64_t delayUs; ///< simulated one-way delay per client turnaround
    size_t warm;      ///< warm-up requests per bring-up (depth multiple)
};

constexpr unsigned kWidth = 32;
constexpr const char *kModel = "mlp-16x8x4";

/** One inference bring-up and everything its session served. */
struct InferBringUp
{
    std::unique_ptr<svc::OperatorStock> stock;
    std::unique_ptr<svc::CotServer> cot;
    std::unique_ptr<infer::InferServer> server;
    std::unique_ptr<infer::InferClient> client;
    uint64_t shareSeed = 0;
    uint64_t setupSeed = 0;
    std::vector<uint32_t> inputIdx;            ///< per request, in order
    std::vector<uint64_t> digests;  ///< per request's outputs, in order

    InferBringUp() = default;
    InferBringUp(const InferBringUp &) = delete;
    InferBringUp &operator=(const InferBringUp &) = delete;

    ~InferBringUp() { close(); }

    void
    close()
    {
        if (client)
            client->close();
        client.reset();
        if (server)
            server->stop();
        if (cot)
            cot->stop();
    }
};

/** Client and server counters an inference phase is measured by. */
struct InferCounters
{
    uint64_t turns = 0, bytes = 0, cots = 0, extensions = 0;
    uint64_t stallUs = 0, waitUs = 0, refills = 0;
    uint64_t commits = 0, commitUs = 0;

    static InferCounters
    read(const InferBringUp &b)
    {
        InferCounters c;
        c.turns = b.client->onlineTurns();
        c.bytes = b.client->onlineBytesSent() +
                  b.client->onlineBytesReceived();
        c.cots = b.client->cotsConsumed();
        c.extensions = b.cot ? b.cot->extensionsServed() : 0;
        c.stallUs = counter("svc_reservoir_stall_us_total");
        c.waitUs = counter("svc_operator_wait_us_total");
        c.refills = counter("svc_reservoir_refills_total");
        const auto h = metrics::Registry::instance().histogramSnapshot(
            "infer_commit_latency_us");
        c.commits = h.count;
        c.commitUs = h.sum;
        return c;
    }
};

class InferLoop
{
  public:
    InferLoop(const InferShape &shape, uint64_t seed, SpanLog &log)
        : shape_(shape), spec_(*ppml::findMlpModel(kModel)), log_(log),
          pick_(mixSeed(seed, 5))
    {
        for (size_t i = 0; i < kInputPool; ++i)
            pool_.push_back(
                ppml::sampleMlpInput(spec_, mixSeed(seed, 1000 + i), 1));
    }

    uint64_t
    inputHash() const
    {
        uint64_t h = fnv1a(nullptr, 0);
        for (const auto &in : pool_)
            h = fnv1a(in.data(), in.size() * sizeof(int64_t), h);
        return h;
    }

    std::unique_ptr<InferBringUp>
    bringUp(uint64_t seed, size_t rep)
    {
        auto b = std::make_unique<InferBringUp>();
        b->shareSeed = mixSeed(seed, 300 + rep);
        b->setupSeed = mixSeed(seed, 200 + rep);
        infer::InferClient::Options opt;
        opt.modelId = spec_.id;
        opt.width = kWidth;
        opt.batch = 1;
        opt.supply = shape_.supply;
        opt.setupSeed = b->setupSeed;
        opt.shareSeed = b->shareSeed;
        opt.params = ot::tinyTestParams();
        opt.depth = shape_.depth;
        opt.streamCommit = shape_.stream;
        opt.simulatedDelayUs = shape_.delayUs;
        b->server = std::make_unique<infer::InferServer>();
        if (shape_.supply == infer::SupplyKind::Reservoir) {
            b->stock = std::make_unique<svc::OperatorStock>();
            b->cot = std::make_unique<svc::CotServer>();
            b->stock->attach(*b->cot);
            b->server->attachOperatorStock(*b->stock);
            const uint16_t cot_port = b->cot->listenTcp(0);
            const uint16_t port = b->server->listenTcp(0);
            b->client = infer::InferClient::connectTcpReservoir(
                "127.0.0.1", port, "127.0.0.1", cot_port, opt);
        } else {
            const uint16_t port = b->server->listenTcp(0);
            b->client =
                infer::InferClient::connectTcp("127.0.0.1", port, opt);
        }
        run(*b, StopRule{0, shape_.warm});
        return b;
    }

    /** Closed loop until @p stop; for a window, to a group boundary. */
    Phase
    run(InferBringUp &b, StopRule stop)
    {
        return shape_.depth == 1 ? runDepth1(b, stop) : runWindow(b, stop);
    }

    /** Served request number @p i is corrupted before its check. */
    void corruptRequest(uint64_t i) { corrupt_ = i; }

    /**
     * The local reference of session @p b: per-request digests of the
     * expected outputs. A depth-k window evaluates each group as one
     * batch-k forward, so its reference is grouped the same way.
     */
    std::vector<uint64_t>
    reference(const InferBringUp &b, size_t first_requests,
              double *seconds) const
    {
        const size_t n = std::min(first_requests, b.inputIdx.size());
        const size_t depth = shape_.depth;
        std::vector<std::vector<int64_t>> reqs;
        for (size_t r = 0; r < n; ++r) {
            if (r % depth == 0)
                reqs.emplace_back();
            const auto &in = pool_[b.inputIdx[r]];
            reqs.back().insert(reqs.back().end(), in.begin(), in.end());
        }
        const double t0 = nowSeconds();
        const int32_t span = log_.begin("ppml.run_local", n);
        const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
            spec_, kWidth, reqs, b.shareSeed, b.setupSeed,
            ot::tinyTestParams());
        log_.end(span);
        if (seconds)
            *seconds = nowSeconds() - t0;
        const size_t out_dim = spec_.outputDim();
        std::vector<uint64_t> expected;
        for (const auto &group : local.outputs)
            for (size_t off = 0; off + out_dim <= group.size();
                 off += out_dim)
                expected.push_back(digest(std::vector<int64_t>(
                    group.begin() + off, group.begin() + off + out_dim)));
        return expected;
    }

  private:
    void
    keep(InferBringUp &b, std::vector<int64_t> &out)
    {
        if (b.digests.size() == corrupt_ && !out.empty())
            out[0] ^= 1;
        b.digests.push_back(digest(out));
    }

    const std::vector<int64_t> &
    nextInput(InferBringUp &b)
    {
        const auto idx = uint32_t(pick_.nextBelow(pool_.size()));
        b.inputIdx.push_back(idx);
        return pool_[idx];
    }

    Phase
    runDepth1(InferBringUp &b, StopRule stop)
    {
        Phase ph;
        ph.start();
        for (size_t i = 0; stop.more(i); ++i) {
            const std::vector<int64_t> &in = nextInput(b);
            const uint64_t id = b.digests.size();
            const int32_t req = log_.begin("infer.request", id);
            const double t0 = nowSeconds();
            const int32_t sub = log_.begin("infer.submit", id);
            b.client->submit(in);
            log_.end(sub);
            const int32_t col = log_.begin("infer.collect", id);
            infer::InferClient::Result r = b.client->collect();
            log_.end(col);
            const double ms = (nowSeconds() - t0) * 1e3;
            log_.end(req);
            keep(b, r.outputs);
            ph.record(ms, 1);
        }
        ph.finish();
        return ph;
    }

    /**
     * Streaming window: submit() keeps 2 x depth requests in flight and
     * commits the oldest full group; responses are collected as soon
     * as their group is answered.
     */
    Phase
    runWindow(InferBringUp &b, StopRule stop)
    {
        Phase ph;
        const size_t depth = shape_.depth;
        const uint64_t id0 = b.digests.size();
        std::vector<double> submitted_at;
        size_t submitted = 0, collected = 0;
        auto take = [&](infer::InferClient::Result r) {
            const double now = nowSeconds();
            ph.record((now - submitted_at[collected]) * 1e3, 1);
            log_.add("infer.request", submitted_at[collected], now,
                     id0 + collected);
            keep(b, r.outputs);
            ++collected;
        };
        ph.start();
        while (stop.more(submitted) || submitted % depth != 0) {
            const std::vector<int64_t> &in = nextInput(b);
            submitted_at.push_back(nowSeconds());
            const int32_t sub = log_.begin("infer.submit", id0 + submitted);
            b.client->submit(in);
            log_.end(sub);
            ++submitted;
            size_t ready = submitted - b.client->inFlight() - collected;
            while (ready-- > 0) {
                const int32_t col =
                    log_.begin("infer.collect", id0 + collected);
                infer::InferClient::Result r = b.client->collect();
                log_.end(col);
                take(std::move(r));
            }
        }
        const int32_t drain = log_.begin("infer.drain", id0 + collected);
        std::vector<infer::InferClient::Result> rest = b.client->drain();
        log_.end(drain);
        for (auto &r : rest)
            take(std::move(r));
        ph.finish();
        return ph;
    }

    const InferShape shape_;
    const ppml::MlpModelSpec &spec_;
    SpanLog &log_;
    Rng pick_;
    std::vector<std::vector<int64_t>> pool_;
    uint64_t corrupt_ = ~0ULL;

};

template <typename T>
std::vector<T>
slice(const std::vector<T> &v, size_t lo, size_t hi)
{
    lo = std::min(lo, v.size());
    hi = std::min(hi, v.size());
    return std::vector<T>(v.begin() + lo, v.begin() + hi);
}

RunResult
runInfer(const RunConfig &cfg, const InferShape &shape)
{
    const size_t bring_ups = cfg.bringUps ? cfg.bringUps : 15;
    RunResult res;
    SpanLog log;
    log.reserve(1 << 18);
    InferLoop loop(shape, cfg.seed, log);
    res.inputHash = loop.inputHash();

    // As in cot-bulk: the timed session is the first bring-up, the
    // set-up-only bring-ups follow the timed phase.
    std::vector<double> setup;
    uint64_t bad_setup = 0;
    const uint64_t built0 = counter("svc_engine_built_total");
    const double setup_t0 = nowSeconds();
    std::unique_ptr<InferBringUp> live = loop.bringUp(cfg.seed, 0);
    setup.push_back(nowSeconds() - setup_t0);
    uint64_t min_rtt_us = live->client->measuredRttUs();
    const size_t first_timed = live->digests.size();
    if (cfg.corruptCall >= 0)
        loop.corruptRequest(first_timed + uint64_t(cfg.corruptCall));

    Phase untraced, traced;
    InferCounters c0, c1;
    if (cfg.trace) {
        untraced = loop.run(*live, StopRule::after(cfg.seconds / 2,
                                                     cfg.fixedCalls,
                                                     kMinCalls / 2));
        c0 = InferCounters::read(*live);
        log.setEnabled(true);
        traced = loop.run(*live, StopRule::after(cfg.seconds / 2,
                                                   cfg.fixedCalls,
                                                   kMinCalls / 2));
        log.setEnabled(false);
        c1 = InferCounters::read(*live);
    } else {
        untraced =
            loop.run(*live, StopRule::after(cfg.seconds, cfg.fixedCalls));
    }
    const uint64_t built = counter("svc_engine_built_total") - built0;
    const double rss_mb = peakRssMiB();
    live->close();

    double ref_all_s = 0;
    log.setEnabled(cfg.trace);
    const std::vector<uint64_t> expected =
        loop.reference(*live, ~0ULL, &ref_all_s);
    const size_t n = live->digests.size();
    const uint64_t bad_timed =
        countMismatches(slice(live->digests, first_timed, n),
                        slice(expected, first_timed, n));
    bad_setup += countMismatches(slice(live->digests, 0, first_timed),
                                 slice(expected, 0, first_timed));
    log.setEnabled(false);
    loop.corruptRequest(~0ULL);
    for (size_t rep = 1; rep < bring_ups; ++rep) {
        const double t0 = nowSeconds();
        std::unique_ptr<InferBringUp> extra = loop.bringUp(cfg.seed, rep);
        setup.push_back(nowSeconds() - t0);
        min_rtt_us = std::min(min_rtt_us, extra->client->measuredRttUs());
        extra->close();
        bad_setup += countMismatches(extra->digests,
                                     loop.reference(*extra, ~0ULL, nullptr));
    }

    res.outputHash = fnv1a(live->digests.data(),
                           live->digests.size() * sizeof(uint64_t));
    res.attempted = untraced.ops() + traced.ops();
    res.failed = bad_timed + bad_setup;
    res.correct = res.failed == 0;
    res.endToEnd = endToEndMetrics(untraced, setup, rss_mb);
    addPhaseDiagnostics(res, "timed", untraced);
    for (size_t i = 0; i < setup.size(); ++i)
        res.diagnostics.emplace_back("setup_s_" + std::to_string(i),
                                     jsonNumber(setup[i]));

    if (cfg.trace) {
        addPhaseDiagnostics(res, "traced", traced);
        log.setEnabled(true);
        Layers layers;
        const double imgs = double(std::max<uint64_t>(traced.ops(), 1));
        layers.requestMs = median(log.durationsMs("infer.request"));
        layers.submitMs = median(log.durationsMs("infer.submit"));
        layers.commitMs = c1.commits > c0.commits
                         ? double(c1.commitUs - c0.commitUs) / 1e3 /
                               double(c1.commits - c0.commits)
                         : 0;
        layers.roundsPerImg = double(c1.turns - c0.turns) / 2.0 / imgs;
        layers.bytesPerImg = double(c1.bytes - c0.bytes) / imgs;
        layers.cotsPerImg = double(c1.cots - c0.cots) / imgs;
        const double usable = double(ot::tinyTestParams().usableOts());
        // Reservoir supply: extensions the attached COT service ran;
        // Engine supply runs them inline, one per usableOts() drawn.
        layers.extPerImg =
            live->cot ? double(c1.extensions - c0.extensions) / imgs
                      : layers.cotsPerImg / usable;
        layers.rttFloorMs = layers.roundsPerImg * double(min_rtt_us) / 1e3;
        layers.stallUsPerImg = double(c1.stallUs - c0.stallUs) / imgs;
        layers.waitUsPerImg = double(c1.waitUs - c0.waitUs) / imgs;
        layers.refillsPerImg = double(c1.refills - c0.refills) / imgs;
        layers.enginesBuilt = double(built);
        setTraceOverhead(layers, untraced, traced);

        {
            // T(N) - T(1) over the reference cancels its engine
            // bring-up; T(N) is the check's reference run above.
            double ref_one_s = 0;
            const size_t one = shape.depth;
            loop.reference(*live, one, &ref_one_s);
            const double extra_imgs = double(n) - double(one);
            layers.localMsPerImg =
                extra_imgs > 0 ? (ref_all_s - ref_one_s) * 1e3 / extra_imgs
                               : 0;
        }
        layers.serveOverheadMs =
            traced.cost().wallS * 1e3 / imgs - layers.localMsPerImg;
        probeEngine(ot::tinyTestParams(), 1, false, log, layers);
        {
            // The COT service on the workload's parameter set: one
            // receiver session, median extendRecv and wire bytes.
            ScopedSpan probe(log, "probe.svc");
            const ot::FerretParams p = ot::tinyTestParams();
            BitVec choice;
            std::vector<Block> t(p.usableOts());
            auto svc = bringUpCot(p, 1, cfg.seed, 99, 8, choice, t);
            const uint64_t bytes0 = counter("net_bytes_sent_total");
            const uint64_t iter0 = svc->client->extensionsRun();
            constexpr int kReps = 41;
            for (int i = 0; i < kReps; ++i) {
                const uint64_t iter = svc->client->extensionsRun();
                ScopedSpan span(log, "svc.extend", iter);
                svc->client->extendRecv(choice, t.data());
                svc->check->onClient(iter, choice, t.data(), false);
            }
            layers.bytesPerExt =
                double(counter("net_bytes_sent_total") - bytes0) /
                double(svc->client->extensionsRun() - iter0);
            layers.svcExtendMs = median(log.durationsMs("svc.extend"));
            res.failed += svc->finish() * p.usableOts();
            res.correct = res.failed == 0;
        }
        layers.wireMsPerExt = layers.svcExtendMs - layers.inprocMs;
        res.perLayer = layers.metrics();
        writeTraceFiles(cfg, log);
    }
    return res;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cot-bulk", "infer-lan", "infer-pipelined"};
    return names;
}

uint64_t
digest(const std::vector<int64_t> &outputs)
{
    return fnv1a(outputs.data(), outputs.size() * sizeof(int64_t));
}

size_t
countMismatches(const std::vector<uint64_t> &served,
                const std::vector<uint64_t> &expected)
{
    const size_t n = std::max(served.size(), expected.size());
    size_t bad = 0;
    for (size_t i = 0; i < n; ++i)
        bad += i >= served.size() || i >= expected.size() ||
               served[i] != expected[i];
    return bad;
}

RunResult
runWorkload(const RunConfig &cfg)
{
    RunResult r;
    if (cfg.workload == "cot-bulk")
        r = runCotBulk(cfg);
    else if (cfg.workload == "infer-lan")
        r = runInfer(cfg, {1, false, infer::SupplyKind::Engine, 150, 24});
    else if (cfg.workload == "infer-pipelined")
        r = runInfer(cfg,
                     {8, true, infer::SupplyKind::Reservoir, 0, 64});
    else
        throw std::invalid_argument("unknown workload: " + cfg.workload);
    // Read after the engines ran: Auto resolves on first use.
    auto fp = fingerprint();
    r.diagnostics.insert(r.diagnostics.begin(), fp.begin(), fp.end());
    return r;
}

} // namespace perfbench
