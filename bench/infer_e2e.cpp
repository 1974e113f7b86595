/**
 * @file
 * End-to-end private-inference serving bench: images/s, COT/image,
 * online bytes/image and online rounds/image for the ways the
 * repository can run the same GMW MLP inference —
 *
 *   in-process   MemoryDuplex + per-party FerretCotEngine (the
 *                baseline examples/private_mlp runs),
 *   served+engine    loopback TCP, per-session dual-direction engine
 *                    on the inference channel (packed and unpacked
 *                    wire, the PR 6 A/B),
 *   served+reservoir loopback TCP, correlations from background
 *                    COT-service sessions (the paper architecture:
 *                    online phase overlaps with COT refill),
 *
 * plus two PR 6 sections: request-level pipelining (depth-8 batch-1
 * vs depth-1 batch-8 over the same images) and simulated-latency rows
 * (SocketChannel::setSimulatedDelay on the client end, LAN 0.15 ms
 * RTT always, WAN 20 ms RTT in full mode) where pipelining must show
 * its round-hiding.
 *
 * Sentinels (CI runs fast mode; any failure fails the bench):
 *   - every served output bit-identical to its local reference —
 *     sequential for depth-1 rows, grouped for pipelined rows (a
 *     depth-k batch-1 group shares and evaluates exactly like one
 *     batch-k request, so the same reference covers both),
 *   - packed/unpacked online-byte ratio >= 4x at width 32 and >= 6x
 *     at width 8, and the packed mlp-16x8x4@32 row under an absolute
 *     bytes/image ceiling,
 *   - depth-8 batch-1 >= 0.8x the depth-1 batch-8 throughput on
 *     loopback, and STRICTLY faster on every simulated-latency row,
 *     each compared on the median of 3 interleaved repetitions.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "svc/cot_server.h"
#include "svc/operator_stock.h"

using namespace ironman;

namespace {

constexpr uint64_t kShareSeed = 0xbe7c5;
constexpr uint64_t kSetupSeed = 424242;

/** Regression ceiling for the packed mlp-16x8x4@32 reservoir row
 *  (PR 5 shipped ~34 kB/img; the packed codec lands near 0.6 kB/img
 *  on the ripple, ~1.7 kB/img on the default Kogge-Stone ladder —
 *  the ladder burns ~4x the AND gates to cut the round chain ~4x,
 *  and every gate is online payload). The reservoir row is the
 *  honest online measurement: its COT preprocessing rides the
 *  separate COT-service channel, whereas the engine-supply row's
 *  mid-session extensions share the inference channel and pollute
 *  the delta once image counts grow. */
constexpr double kPackedByteCeiling = 2200.0;

struct Row
{
    std::string path;
    double seconds = 0;
    double imagesPerSec = 0;
    double cotsPerImage = 0;
    double onlineBytesPerImage = 0;
    double onlineRoundsPerImage = 0;
    double preprocBytesPerImage = 0;
    unsigned inflightDepth = 1;
    bool packed = true;
    bool ladder = true; ///< negotiated comparison circuit
    bool stream = false; ///< negotiated streaming commits
    double rttMs = 0;
    double bandwidthMbps = 0;
    bool bitIdentical = true;
};

/** Repetitions behind every throughput sentinel's median. */
constexpr size_t kSentinelReps = 3;

/**
 * Runs each of @p runs kSentinelReps times, interleaved (every run
 * once, then again), and returns per run its median-throughput row.
 * bitIdentical is AND-ed over all repetitions, so a mismatch in any of
 * them still fails. Sentinels that compare two rows then compare
 * medians, not single shots, which one noisy neighbour can flip.
 */
std::vector<Row>
interleavedMedians(const std::vector<std::function<Row()>> &runs)
{
    std::vector<std::vector<Row>> reps(runs.size());
    for (size_t rep = 0; rep < kSentinelReps; ++rep)
        for (size_t i = 0; i < runs.size(); ++i)
            reps[i].push_back(runs[i]());
    std::vector<Row> medians;
    for (std::vector<Row> &rows : reps) {
        bool identical = true;
        for (const Row &r : rows)
            identical &= r.bitIdentical;
        std::sort(rows.begin(), rows.end(),
                  [](const Row &a, const Row &b) {
                      return a.imagesPerSec < b.imagesPerSec;
                  });
        medians.push_back(rows[rows.size() / 2]);
        medians.back().bitIdentical = identical;
    }
    return medians;
}

struct ServedCfg
{
    std::string path;
    bool reservoir = false;
    bool packed = true;
    uint16_t depth = 1;
    uint64_t rttUs = 0; ///< client-side per-turnaround sleep
    uint64_t bandwidthBps = 0; ///< server-side link shaping (0 = off)
    bool ladder = true; ///< Kogge-Stone ladder (false = ripple A/B)
    bool stream = false; ///< counted streaming commits
};

void
emitRow(bench::JsonWriter &json, const std::string &model,
        size_t images, const Row &row)
{
    std::printf("%-24s | %9.1f | %8.0f | %11.0f | %8.1f | %s\n",
                row.path.c_str(), row.imagesPerSec, row.cotsPerImage,
                row.onlineBytesPerImage, row.onlineRoundsPerImage,
                row.bitIdentical ? "bit-identical" : "MISMATCH");
    json.beginObject();
    json.kv("model", model);
    json.kv("path", row.path);
    json.kv("images", uint64_t(images));
    json.kv("seconds", row.seconds);
    json.kv("images_per_s", row.imagesPerSec);
    json.kv("cots_per_image", row.cotsPerImage);
    json.kv("online_bytes_per_image", row.onlineBytesPerImage);
    json.kv("rounds_per_image", row.onlineRoundsPerImage);
    json.kv("preproc_bytes_per_image", row.preprocBytesPerImage);
    json.kv("inflight_depth", uint64_t(row.inflightDepth));
    json.kv("packed", uint64_t(row.packed ? 1 : 0));
    json.kv("cmp_mode", row.ladder ? "ladder" : "ripple");
    json.kv("stream", uint64_t(row.stream ? 1 : 0));
    json.kv("rtt_ms", row.rttMs);
    json.kv("bandwidth_mbps", row.bandwidthMbps);
    json.kv("bit_identical", uint64_t(row.bitIdentical ? 1 : 0));
    json.endObject();
}

void
printHeader()
{
    std::printf("%-24s | %9s | %8s | %11s | %8s | %s\n", "path",
                "images/s", "COT/img", "online B/img", "rnd/img",
                "outputs");
}

/**
 * One served run: a fresh server (+ COT service when reservoir), one
 * client session, @p reqs submitted through the negotiated window,
 * outputs compared against @p expected (one vector per request for
 * depth 1; for depth k, group g's concatenated outputs against
 * expected[g]). Timings/bytes/rounds are ONLINE deltas measured after
 * session bring-up so engine-supply preprocessing doesn't pollute the
 * wire numbers.
 */
Row
runServed(const ppml::MlpModelSpec &spec, unsigned width,
          uint32_t batch, const ot::FerretParams &params,
          const std::vector<std::vector<int64_t>> &reqs,
          const std::vector<std::vector<int64_t>> &expected,
          const ServedCfg &cfg)
{
    svc::OperatorStock stock;
    svc::CotServer cot;
    stock.attach(cot);
    const uint16_t cot_port = cot.listenTcp(0);
    infer::InferServer::Config srv_cfg;
    srv_cfg.simulatedBandwidthBps = cfg.bandwidthBps;
    infer::InferServer server(srv_cfg);
    server.attachOperatorStock(stock);
    const uint16_t port = server.listenTcp(0);

    infer::InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = width;
    opt.batch = batch;
    opt.setupSeed = kSetupSeed;
    opt.shareSeed = kShareSeed;
    opt.params = params;
    opt.depth = cfg.depth;
    opt.packedWire = cfg.packed;
    opt.ladderCmp = cfg.ladder;
    opt.streamCommit = cfg.stream;
    opt.simulatedDelayUs = cfg.rttUs;

    Row row;
    row.path = cfg.path;
    row.inflightDepth = cfg.depth;
    row.packed = cfg.packed;
    row.rttMs = double(cfg.rttUs) / 1000.0;
    row.bandwidthMbps = double(cfg.bandwidthBps) / 1e6;

    auto client =
        cfg.reservoir ? infer::InferClient::connectTcpReservoir(
                            "127.0.0.1", port, "127.0.0.1", cot_port,
                            opt)
                      : infer::InferClient::connectTcp("127.0.0.1",
                                                       port, opt);
    row.ladder = client->comparisonMode() == ppml::CmpMode::Ladder;
    row.stream = client->streaming();
    const uint64_t base_bytes =
        client->onlineBytesSent() + client->onlineBytesReceived();
    const uint64_t base_turns = client->onlineTurns();

    const size_t images = reqs.size() * batch;
    Timer timer;
    if (cfg.depth <= 1) {
        for (size_t r = 0; r < reqs.size(); ++r) {
            const std::vector<int64_t> out = client->infer(reqs[r]);
            row.bitIdentical &= out == expected[r];
        }
    } else {
        // Issue half: the client auto-commits every full window.
        for (const auto &r : reqs)
            client->submit(r);
        const auto results = client->drain();
        row.bitIdentical &= results.size() == reqs.size();
        // Drain half: group g's concatenated outputs must equal the
        // grouped reference request g.
        std::vector<int64_t> cat;
        for (size_t i = 0; i < results.size(); ++i) {
            cat.insert(cat.end(), results[i].outputs.begin(),
                       results[i].outputs.end());
            if ((i + 1) % cfg.depth == 0 || i + 1 == results.size()) {
                row.bitIdentical &= cat == expected[i / cfg.depth];
                cat.clear();
            }
        }
    }
    row.seconds = timer.seconds();
    row.imagesPerSec = double(images) / row.seconds;
    row.cotsPerImage = double(client->cotsConsumed()) / double(images);
    row.onlineBytesPerImage =
        double(client->onlineBytesSent() +
               client->onlineBytesReceived() - base_bytes) /
        double(images);
    row.onlineRoundsPerImage =
        double(client->onlineTurns() - base_turns) / 2.0 /
        double(images);
    row.preprocBytesPerImage =
        double(client->preprocBytesSent()) / double(images);
    client->close();
    server.stop();
    cot.stop();
    return row;
}

} // namespace

int
main()
{
    const bool fast = bench::fastMode();
    const size_t requests = fast ? 3 : 16;
    const uint32_t batch = fast ? 2 : 8;
    const ot::FerretParams params = ot::tinyTestParams();

    bench::banner("infer_e2e",
                  "served GMW MLP inference: packed wire, pipelining, "
                  "latency rows");
    bench::note("byte/round columns are online deltas measured after "
                "session bring-up");

    bench::JsonWriter json("BENCH_infer_e2e.json");
    json.kv("bench", "infer_e2e");
    json.kv("requests", uint64_t(requests));
    json.kv("batch", uint64_t(batch));
    json.key("series");
    json.beginArray();

    bool all_identical = true;
    bool sentinels_ok = true;

    // ------------------------------------------------------------------
    // Section A: wire packing A/B on the depth-1 protocol
    // ------------------------------------------------------------------
    struct PackPoint
    {
        const char *model;
        unsigned width;
        double minRatio; ///< unpacked/packed online-byte floor
    };
    std::vector<PackPoint> pack_grid = {{"mlp-16x8x4", 32, 4.0},
                                        {"mlp-4x3x2", 8, 6.0}};
    if (!fast)
        pack_grid.push_back({"mlp-32x16x10", 32, 4.0});

    for (const PackPoint &g : pack_grid) {
        const ppml::MlpModelSpec &spec = *ppml::findMlpModel(g.model);
        const size_t images = requests * batch;
        std::vector<std::vector<int64_t>> reqs;
        for (size_t r = 0; r < requests; ++r)
            reqs.push_back(ppml::sampleMlpInput(spec, 7000 + r, batch));

        std::printf("\n%s, width %u, %zu requests x %u images\n",
                    spec.name.c_str(), g.width, requests, batch);
        printHeader();

        Timer local_timer;
        const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
            spec, g.width, reqs, kShareSeed, kSetupSeed, params);
        Row local_row;
        local_row.path = "in-process";
        local_row.seconds = local_timer.seconds();
        local_row.imagesPerSec = double(images) / local_row.seconds;
        local_row.cotsPerImage =
            double(local.cotsPerParty) / double(images);
        local_row.onlineBytesPerImage =
            double(local.onlineBytes) / double(images);
        emitRow(json, spec.name, images, local_row);

        const Row packed_row =
            runServed(spec, g.width, batch, params, reqs,
                      local.outputs,
                      {"served+engine packed", false, true, 1, 0});
        const Row unpacked_row =
            runServed(spec, g.width, batch, params, reqs,
                      local.outputs,
                      {"served+engine unpacked", false, false, 1, 0});
        const Row reservoir_row =
            runServed(spec, g.width, batch, params, reqs,
                      local.outputs,
                      {"served+reservoir packed", true, true, 1, 0});
        for (const Row *row :
             {&packed_row, &unpacked_row, &reservoir_row}) {
            emitRow(json, spec.name, images, *row);
            all_identical &= row->bitIdentical;
        }

        const double ratio = unpacked_row.onlineBytesPerImage /
                             packed_row.onlineBytesPerImage;
        std::printf("  packed saves %.1fx online bytes (floor %.0fx)\n",
                    ratio, g.minRatio);
        if (ratio < g.minRatio) {
            std::printf("BENCH-SMOKE: FAIL — %s w%u packing ratio "
                        "%.2f below %.0fx\n",
                        spec.name.c_str(), g.width, ratio, g.minRatio);
            sentinels_ok = false;
        }
        if (g.width == 32 && spec.name == "mlp-16x8x4" &&
            reservoir_row.onlineBytesPerImage > kPackedByteCeiling) {
            std::printf("BENCH-SMOKE: FAIL — packed %s@32 "
                        "%.0f B/img above the %.0f ceiling\n",
                        spec.name.c_str(),
                        reservoir_row.onlineBytesPerImage,
                        kPackedByteCeiling);
            sentinels_ok = false;
        }
    }

    // ------------------------------------------------------------------
    // Section B: request-level pipelining, loopback
    // ------------------------------------------------------------------
    {
        const ppml::MlpModelSpec &spec =
            *ppml::findMlpModel("mlp-16x8x4");
        constexpr unsigned width = 32;
        constexpr uint16_t depth = 8;
        const size_t groups = fast ? 4 : 8;
        const size_t images = groups * depth;

        // The same images once as batch-8 requests, once as batch-1:
        // identical share stream, so one grouped reference covers both.
        std::vector<std::vector<int64_t>> reqs8, reqs1;
        for (size_t g = 0; g < groups; ++g) {
            reqs8.push_back(
                ppml::sampleMlpInput(spec, 7800 + g, depth));
            for (size_t i = 0; i < depth; ++i)
                reqs1.emplace_back(
                    reqs8.back().begin() + i * spec.inputDim(),
                    reqs8.back().begin() + (i + 1) * spec.inputDim());
        }
        const ppml::LocalMlpResult grouped =
            ppml::runLocalMlpInference(spec, width, reqs8, kShareSeed,
                                       kSetupSeed, params);
        // A depth-1 batch-1 session evaluates per request, which is a
        // different tweak stream than the grouped runs: it gets its
        // own sequential reference.
        const ppml::LocalMlpResult seq1 =
            ppml::runLocalMlpInference(spec, width, reqs1, kShareSeed,
                                       kSetupSeed, params);

        std::printf("\n%s w%u pipelining, %zu images, loopback\n",
                    spec.name.c_str(), width, images);
        printHeader();
        // Loopback throughput at this scale is noisy (refill threads
        // share the cores with the online phase) and the sentinel
        // compares the two rows against each other: medians.
        const std::vector<Row> ab = interleavedMedians({
            [&] {
                return runServed(spec, width, depth, params, reqs8,
                                 grouped.outputs,
                                 {"depth-1 batch-8", true, true, 1, 0});
            },
            [&] {
                return runServed(spec, width, 1, params, reqs1,
                                 grouped.outputs,
                                 {"depth-8 batch-1", true, true, depth, 0});
            },
        });
        const Row &wide = ab[0];
        const Row &deep = ab[1];
        for (const Row *row : {&wide, &deep}) {
            emitRow(json, spec.name, images, *row);
            all_identical &= row->bitIdentical;
        }
        if (deep.imagesPerSec < 0.8 * wide.imagesPerSec) {
            std::printf("BENCH-SMOKE: FAIL — depth-8 batch-1 "
                        "%.1f img/s under 0.8x of batch-8 %.1f\n",
                        deep.imagesPerSec, wide.imagesPerSec);
            sentinels_ok = false;
        }

        // --------------------------------------------------------------
        // Section C: the same A/B under simulated link latency, where
        // hiding rounds is the whole game.
        // --------------------------------------------------------------
        std::vector<std::pair<const char *, uint64_t>> links = {
            {"LAN", 150}};
        if (!fast)
            links.push_back({"WAN", 20000});
        for (const auto &[link, rtt_us] : links) {
            std::printf("\n%s w%u pipelining, %zu images, %s "
                        "(%.2f ms RTT)\n",
                        spec.name.c_str(), width, images, link,
                        double(rtt_us) / 1000.0);
            printHeader();
            const std::vector<Row> lab = interleavedMedians({
                [&] {
                    return runServed(
                        spec, width, depth, params, reqs8,
                        grouped.outputs,
                        {std::string("depth-1 batch-8 ") + link, true,
                         true, 1, rtt_us});
                },
                [&] {
                    return runServed(
                        spec, width, 1, params, reqs1, grouped.outputs,
                        {std::string("depth-8 batch-1 ") + link, true,
                         true, depth, rtt_us});
                },
                [&] {
                    return runServed(
                        spec, width, 1, params, reqs1, seq1.outputs,
                        {std::string("depth-1 batch-1 ") + link, true,
                         true, 1, rtt_us});
                },
            });
            const Row &lwide = lab[0];
            const Row &ldeep = lab[1];
            const Row &lone = lab[2];
            for (const Row *row : {&lwide, &ldeep, &lone}) {
                emitRow(json, spec.name, images, *row);
                all_identical &= row->bitIdentical;
            }
            // Same rounds per image here (one commit either way);
            // the depth-8 path must not be slower, and depth-1
            // batch-1 vs depth-8 batch-1 is the dramatic gap — show
            // it on the LAN row.
            if (ldeep.imagesPerSec < lwide.imagesPerSec * 0.8) {
                std::printf("BENCH-SMOKE: FAIL — %s depth-8 %.1f "
                            "img/s under depth-1 batch-8 %.1f\n",
                            link, ldeep.imagesPerSec,
                            lwide.imagesPerSec);
                sentinels_ok = false;
            }
            if (ldeep.imagesPerSec <= lone.imagesPerSec) {
                std::printf("BENCH-SMOKE: FAIL — %s pipelining not "
                            "strictly faster: depth-8 %.1f img/s vs "
                            "depth-1 batch-1 %.1f\n",
                            link, ldeep.imagesPerSec,
                            lone.imagesPerSec);
                sentinels_ok = false;
            }

            // PR 8 A/B on the LAN link: the ripple baseline and the
            // streaming ladder through the same depth-8 window. The
            // outputs are mode- and schedule-independent (invariant
            // 16), so the grouped reference covers all three.
            if (std::string(link) == "LAN") {
                const Row rdeep = runServed(
                    spec, width, 1, params, reqs1, grouped.outputs,
                    {std::string("depth-8 ripple ") + link, true, true,
                     depth, rtt_us, 0, /*ladder=*/false});
                const Row sdeep = runServed(
                    spec, width, 1, params, reqs1, grouped.outputs,
                    {std::string("depth-8 streaming ") + link, true,
                     true, depth, rtt_us, 0, /*ladder=*/true,
                     /*stream=*/true});
                for (const Row *row : {&rdeep, &sdeep}) {
                    emitRow(json, spec.name, images, *row);
                    all_identical &= row->bitIdentical;
                }
                // The tentpole sentinel: the Kogge-Stone ladder cuts
                // the measured width-32 round chain to a quarter of
                // the ripple's, per image, on the same window.
                if (ldeep.onlineRoundsPerImage >
                    rdeep.onlineRoundsPerImage / 4.0) {
                    std::printf(
                        "BENCH-SMOKE: FAIL — ladder %.2f rounds/img "
                        "above ripple %.2f / 4 at w32\n",
                        ldeep.onlineRoundsPerImage,
                        rdeep.onlineRoundsPerImage);
                    sentinels_ok = false;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Section D: bandwidth-shaped WAN — RTT plus a finite link, the
    // complete PR 6/7 WAN model. Shaping is server-side
    // (Config::simulatedBandwidthBps), the RTT client-side, so both
    // knobs cross the config surface they'd use in a real deployment.
    // ------------------------------------------------------------------
    {
        const ppml::MlpModelSpec &spec =
            *ppml::findMlpModel("mlp-16x8x4");
        constexpr unsigned width = 32;
        const size_t wan_requests = fast ? 2 : 8;
        const uint32_t wan_batch = fast ? 2 : 8;
        // Fast mode keeps CI quick on a thin pipe; full mode is the
        // honest 20 ms / 100 Mbps WAN row for EXPERIMENTS.md.
        const uint64_t rtt_us = fast ? 1000 : 20000;
        const uint64_t bps = fast ? 200'000'000 : 100'000'000;

        std::vector<std::vector<int64_t>> reqs;
        for (size_t r = 0; r < wan_requests; ++r)
            reqs.push_back(
                ppml::sampleMlpInput(spec, 7900 + r, wan_batch));
        const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
            spec, width, reqs, kShareSeed, kSetupSeed, params);

        std::printf("\n%s w%u bandwidth-shaped WAN (%.1f ms RTT, "
                    "%.0f Mbps), %zu images\n",
                    spec.name.c_str(), width, double(rtt_us) / 1000.0,
                    double(bps) / 1e6, wan_requests * size_t(wan_batch));
        printHeader();
        const Row shaped = runServed(
            spec, width, wan_batch, params, reqs, local.outputs,
            {"served+reservoir shaped", true, true, 1, rtt_us, bps});
        emitRow(json, spec.name, wan_requests * size_t(wan_batch),
                shaped);
        all_identical &= shaped.bitIdentical;

        // PR 8: the same images again through a full-depth streaming
        // ladder window — every round-chain trick at once on the
        // shaped link. One group of wan_requests, so the grouped
        // reference is the one concatenated request.
        const uint16_t wdepth = uint16_t(wan_requests);
        std::vector<int64_t> cat;
        for (const auto &r : reqs)
            cat.insert(cat.end(), r.begin(), r.end());
        const ppml::LocalMlpResult glocal = ppml::runLocalMlpInference(
            spec, width, {cat}, kShareSeed, kSetupSeed, params);
        const Row deep = runServed(
            spec, width, wan_batch, params, reqs, glocal.outputs,
            {"served+reservoir shaped deep+stream", true, true, wdepth,
             rtt_us, bps, /*ladder=*/true, /*stream=*/true});
        emitRow(json, spec.name, wan_requests * size_t(wan_batch),
                deep);
        all_identical &= deep.bitIdentical;
        // Full mode is the honest WAN row EXPERIMENTS.md quotes: the
        // PR 7 protocol served 6.2 img/s here; ladder + pipelining +
        // streaming must clear 3x that.
        if (!fast && deep.imagesPerSec < 3.0 * 6.2) {
            std::printf("BENCH-SMOKE: FAIL — WAN deep+stream %.1f "
                        "img/s under the 18.6 floor (3x the PR 7 "
                        "row)\n",
                        deep.imagesPerSec);
            sentinels_ok = false;
        }
    }

    // ------------------------------------------------------------------
    // Section E: recovery latency — kill the daemon under an
    // autoReconnect client and time the redial + re-handshake +
    // replay until the next bit-identical answer lands.
    // ------------------------------------------------------------------
    {
        const ppml::MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");
        constexpr unsigned width = 16;
        std::vector<std::vector<int64_t>> reqs;
        for (size_t r = 0; r < 4; ++r)
            reqs.push_back(ppml::sampleMlpInput(spec, 8100 + r, 1));

        auto server = std::make_unique<infer::InferServer>();
        const uint16_t port = server->listenTcp(0);

        infer::InferClient::Options opt;
        opt.modelId = spec.id;
        opt.width = width;
        opt.setupSeed = kSetupSeed;
        opt.shareSeed = kShareSeed;
        opt.params = params;
        opt.autoReconnect = true;
        opt.retry.baseBackoffMs = 5; // the daemon restarts instantly
        auto client =
            infer::InferClient::connectTcp("127.0.0.1", port, opt);
        client->infer(reqs[0]);
        client->infer(reqs[1]);

        server->stop();
        server = std::make_unique<infer::InferServer>();
        server->listenTcp(port);

        // The next request detects the dead session and reconnects.
        // Its Commit raced the kill, so the library reports it failed
        // (maybe-answered) rather than replaying; the app-level retry
        // on the recovered session is the measured tail. The exact
        // model keeps the answer bit-identical (invariant 15).
        Timer recover;
        client->submit(reqs[2]);
        infer::InferClient::Result r2 = client->collect();
        if (!r2.ok) {
            client->submit(reqs[2]);
            r2 = client->collect();
        }
        const double recovery_ms = recover.seconds() * 1000.0;
        const bool recovered_identical =
            r2.ok && r2.outputs == ppml::mlpPlainForward(spec, reqs[2]) &&
            client->reconnects() == 1;
        client->infer(reqs[3]);
        client->close();
        server->stop();

        std::printf("\nrecovery: daemon killed+restarted under an "
                    "autoReconnect client -> next answer in %.1f ms "
                    "(%s)\n",
                    recovery_ms,
                    recovered_identical ? "bit-identical"
                                        : "MISMATCH");
        json.beginObject();
        json.kv("model", spec.name);
        json.kv("path", "recovery");
        json.kv("recovery_ms", recovery_ms);
        json.kv("bit_identical",
                uint64_t(recovered_identical ? 1 : 0));
        json.endObject();
        if (!recovered_identical) {
            std::printf("BENCH-SMOKE: FAIL — recovered request not "
                        "bit-identical after reconnect\n");
            sentinels_ok = false;
        }
    }

    json.endArray();
    json.close();

    if (!all_identical) {
        std::printf("\nBENCH-SMOKE: FAIL — served outputs diverged "
                    "from the local reference\n");
        return 1;
    }
    if (!sentinels_ok) {
        std::printf("\nBENCH-SMOKE: FAIL — sentinel thresholds "
                    "violated (see above)\n");
        return 1;
    }
    std::printf("\nBENCH-SMOKE: OK — bit-identity, packing ratios, "
                "byte ceiling and pipelining sentinels all hold "
                "(BENCH_infer_e2e.json written)\n");
    return 0;
}
