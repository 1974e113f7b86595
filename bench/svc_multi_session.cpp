/**
 * @file
 * Multi-session COT service throughput: aggregate OT/s of a loopback
 * CotServer as the concurrent-session count grows — the first
 * bench of the concurrent-serving workload class (the ROADMAP's
 * "many users" axis), measured over the real socket transport.
 *
 * Each client thread runs a fixed number of extension batches; the
 * table reports per-sweep aggregate throughput and the engine-pool
 * construction count (sessions beyond the first wave reuse warm
 * engines): engines built should track peak concurrency, not session
 * count.
 *
 * Emits BENCH_svc_multi_session.json for the CI perf trajectory.
 *
 * Run: ./bench_svc_multi_session   (IRONMAN_BENCH_FAST=1 trims)
 */

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "ot/ferret_params.h"
#include "svc/cot_client.h"
#include "svc/cot_server.h"

using namespace ironman;
using namespace ironman::svc;

namespace {

struct SweepPoint
{
    int sessions;
    uint64_t totalOts;
    double seconds;
    double aggregateOtsPerSec;
};

SweepPoint
runSweep(uint16_t port, const ot::FerretParams &p, int sessions,
         int iters, uint64_t seed_base)
{
    Timer timer;
    std::vector<std::thread> clients;
    std::atomic<uint64_t> total{0};
    for (int i = 0; i < sessions; ++i)
        clients.emplace_back([&, i] {
            CotClient::Options opt;
            opt.setupSeed = seed_base + uint64_t(i);
            auto client =
                CotClient::connectTcp("127.0.0.1", port, p, opt);
            BitVec choice;
            std::vector<Block> t(client->usableOts());
            for (int it = 0; it < iters; ++it)
                client->extendRecv(choice, t.data());
            total.fetch_add(uint64_t(client->usableOts()) * iters);
            client->close();
        });
    for (auto &th : clients)
        th.join();

    SweepPoint pt;
    pt.sessions = sessions;
    pt.totalOts = total.load();
    pt.seconds = timer.seconds();
    pt.aggregateOtsPerSec = double(pt.totalOts) / pt.seconds;
    return pt;
}

} // namespace

int
main()
{
    bench::banner("svc_multi_session",
                  "aggregate COT service throughput vs concurrent "
                  "session count (loopback TCP)");

    const bool fast = bench::fastMode();
    const int iters = fast ? 2 : 4;
    const int session_counts[] = {1, 2, 4, 8};

    bench::JsonWriter j("BENCH_svc_multi_session.json");
    j.kv("bench", "svc_multi_session");
    j.kv("iters_per_session", uint64_t(iters));
    j.key("series");
    j.beginArray();

    bool ok = true;
    for (const ot::FerretParams &p :
         {ot::tinyAlignedParams(), ot::tinyTestParams()}) {
        CotServer::Config cfg;
        cfg.maxSessions = 16;
        CotServer server(cfg);
        const uint16_t port = server.listenTcp(0);

        std::printf("\nparam set %s (n=%zu, %zu usable OTs/ext):\n",
                    p.name.c_str(), p.n, p.usableOts());
        std::printf("  %8s %12s %10s %14s %16s\n", "sessions",
                    "total OTs", "seconds", "aggregate OT/s",
                    "engines built");

        uint64_t seed = 0xb0b0 + uint64_t(p.n);
        for (int sessions : session_counts) {
            const SweepPoint pt =
                runSweep(port, p, sessions, iters, seed);
            seed += uint64_t(sessions);
            const uint64_t engines = server.pool().sendersCreated();
            std::printf("  %8d %12llu %10.3f %11.2f M/s %16llu\n",
                        pt.sessions,
                        (unsigned long long)pt.totalOts, pt.seconds,
                        pt.aggregateOtsPerSec / 1e6,
                        (unsigned long long)engines);
            if (pt.aggregateOtsPerSec < 1e5)
                ok = false;

            j.beginObject();
            j.kv("params", p.name);
            j.kv("sessions", uint64_t(pt.sessions));
            j.kv("total_ots", pt.totalOts);
            j.kv("seconds", pt.seconds);
            j.kv("aggregate_ots_per_sec", pt.aggregateOtsPerSec);
            j.kv("engines_built", engines);
            j.endObject();
        }
        // Warm-reuse sentinel: engines built must stay well under the
        // total sessions served (15 per sweep). It can transiently
        // exceed the peak concurrency (8) — a finishing session's
        // engine may still be mid-return when the next checkout
        // lands — but a pool that builds per session would hit 15.
        uint64_t total_sessions = 0;
        for (int s : session_counts)
            total_sessions += uint64_t(s);
        if (server.pool().sendersCreated() >= total_sessions)
            ok = false;
        server.stop();
    }
    j.endArray();
    j.kv("ok", uint64_t(ok ? 1 : 0));
    j.close();

    bench::note("engines built should track peak concurrency, not "
                "session count.");
    std::printf("%s\n", ok ? "BENCH-SMOKE OK" : "BENCH-SMOKE FAILED");
    return ok ? 0 : 1;
}
