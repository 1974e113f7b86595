/**
 * @file
 * Wire protocol of the inference service (src/infer): the handshake
 * that negotiates WHAT to compute (a ppml::MlpModelSpec by wire id,
 * the fixed-point bitwidth, the images-per-request batch size, and
 * where the COT correlations come from) and how many requests may
 * ride in flight, plus the length-framed request/response opcodes
 * that carry secret-shared tensors.
 *
 * Session, client's (= MPC party 0's) view:
 *
 *   connect ──► InferHello { magic, version, supply, model, width,
 *                            batch, setupSeed, cot session ids,
 *                            engine params, depth, flags }
 *           ◄── InferAccept { status, negotiated depth, negotiated
 *                             flags, sessionId }
 *   [supply == Engine: both ends construct one dual-direction
 *    ppml::FerretCotEngine over THIS channel — the handshake's
 *    setupSeed seeds the dealer substitution, exactly like the COT
 *    service]
 *   loop:   ──► InferOp::Infer, u32 tag, batch*inputDim input shares
 *               (the server's share x1) — ENQUEUED on both sides, up
 *               to the negotiated depth in flight
 *           ──► InferOp::Commit — both ends run ONE joint
 *               MlpRunner::forward over every pending request's
 *               concatenated shares (effective batch = in-flight
 *               count x batch, so the DReLU round chain is paid once
 *               per group, not once per request)
 *           ◄── per pending request, in submission order: u32 tag,
 *               batch*outputDim output shares (the server's y1)
 *   final:  ──► InferOp::Close
 *
 * There is one dialect. Every online payload travels at semantic
 * width — chosen-OT lanes through ot::chosenOtSendPacked/RecvPacked
 * (1-bit AND messages, width-bit MUX arms, raw derand bytes) and the
 * tensor shares below as width-bit LE lanes — and every DReLU runs
 * the Kogge-Stone ladder (ppml::CmpMode::Ladder). Any other version
 * number is refused with BadVersion.
 *
 * Flags negotiate only scheduling and observability, never the
 * transcript of a single forward. kInferFlagStreamCommit: Commit
 * carries a u16 group COUNT and evaluates only the OLDEST count
 * pending requests, and the server accepts Infer frames for up to 2x
 * the negotiated depth — so the client can push group k+1's frames
 * while group k's forward is still evaluating. Without the flag
 * Commit has no count and drains everything pending.
 * kInferFlagTrace: see below. The server clamps the requested depth
 * to its own bound and echoes the result in the accept; unknown flag
 * bits (including the retired 0x1 packing and 0x2 ladder bits) are
 * dropped, not rejected.
 */

#ifndef IRONMAN_INFER_WIRE_H
#define IRONMAN_INFER_WIRE_H

#include <cstdint>
#include <vector>

#include "net/channel.h"
#include "svc/wire.h"

namespace ironman::infer {

constexpr uint32_t kInferMagic = 0x49524946; ///< "IRIF"
/**
 * 4: packed shares and the comparison ladder are no longer negotiated.
 * Earlier versions are refused: v3 peers may still clear the retired
 * packing/ladder bits, and v1/v2 peers run full-tree SPCOT engines
 * (DESIGN.md §4).
 */
constexpr uint16_t kInferWireVersion = 4;

/** Counted partial commits + 2x-depth recv-ahead (streaming). */
constexpr uint16_t kInferFlagStreamCommit = 0x4;
/**
 * Wire-propagated trace context (PR 10): the hello carries a 64-bit
 * trace id + sampled bit as trailing bytes, the accept returns the
 * server's monotonic clock sample (the client pairs it with the
 * hello->accept RTT midpoint for the cross-party clock-offset
 * estimate — see common/trace.h). Both trailers exist ONLY when this
 * bit is set on the respective message, so flagless transcripts carry
 * no trace bytes at all.
 */
constexpr uint16_t kInferFlagTrace = 0x8;

/** Where a session's COT correlations come from. */
enum class SupplyKind : uint8_t
{
    /** Dual-direction FerretCotEngine on the inference channel. */
    Engine = 0,
    /**
     * Client: svc::ReservoirCotSupply over two COT-service sessions;
     * server: svc::OperatorCotSupply over the same sessions' operator
     * halves.
     */
    Reservoir = 1,
};

const char *supplyKindName(SupplyKind k);

/** Per-request opcodes (client to server). */
enum class InferOp : uint8_t
{
    Infer = 1,  ///< one batch: tagged input shares, enqueued
    Close = 2,  ///< end the session
    Commit = 3, ///< jointly evaluate the pending requests
};

/** Handshake outcome (server to client). */
enum class InferStatus : uint8_t
{
    Ok = 0,
    BadMagic = 1,
    BadVersion = 2,
    BadModel = 3,   ///< model id not in ppml::inferenceZoo()
    BadWidth = 4,   ///< width outside the model's overflow-free range
    BadBatch = 5,   ///< zero or above the server's maxBatch
    BadSupply = 6,  ///< unknown kind, or Reservoir with no COT service
    BadParams = 7,  ///< Engine supply with invalid FerretParams
    /** Valid engine params, but not on the server's allowlist. */
    ParamsNotAllowed = 8,
    /** Reservoir sids unknown, ended, or owned by another client. */
    ForeignSession = 9,
    BadDepth = 10, ///< hello with zero in-flight depth
};

const char *inferStatusName(InferStatus s);

/** Client's opening message. */
struct InferHello
{
    uint16_t version = kInferWireVersion;
    SupplyKind supply = SupplyKind::Engine;
    uint32_t modelId = 0;
    uint8_t width = 32;
    uint32_t batch = 1;
    /** Engine supply: dealer seed of the dual-direction engine. */
    uint64_t setupSeed = 0;
    /** Reservoir supply: the client's Sender-role COT session id. */
    uint64_t sendSessionId = 0;
    /** Reservoir supply: the client's Receiver-role COT session id. */
    uint64_t recvSessionId = 0;
    /** Engine supply: the OT parameter set (ignored for Reservoir). */
    svc::WireParams params;
    /** Requested in-flight requests per session (server clamps). */
    uint16_t depth = 1;
    /** Requested session properties (kInferFlag*). */
    uint16_t flags = 0;
    /** kInferFlagTrace: the Dapper-style trace id this session's
     * spans correlate under on both parties (0 = let the client pick). */
    uint64_t traceId = 0;
    /** kInferFlagTrace: whether the chain is sampled (servers
     * adopt the bit; unsampled sessions negotiate but record nothing). */
    uint8_t traceSampled = 1;
};

/** Server's reply. */
struct InferAccept
{
    InferStatus status = InferStatus::Ok;
    uint16_t depth = 0; ///< negotiated in-flight bound
    uint16_t flags = 0; ///< negotiated session properties
    uint64_t sessionId = 0;
    /** kInferFlagTrace only: the server's trace::nowUs() sample taken
     * while sending this accept — the client's clock-offset anchor. */
    uint64_t serverClockUs = 0;
};

void sendInferHello(net::Channel &ch, const InferHello &h);

/**
 * Parse the peer's hello. Returns Ok and fills @p out, or the
 * structural rejection (magic/version/model/width/batch/params/depth);
 * a BadVersion return has read only the magic+version prefix. Policy
 * rejections (maxBatch, depth clamp, missing COT service) are the
 * server's to add.
 */
InferStatus recvInferHello(net::Channel &ch, InferHello *out);

/**
 * The accept layout is shared by every version, so a refused peer of
 * any version can read its BadVersion status.
 */
void sendInferAccept(net::Channel &ch, const InferAccept &a);
InferAccept recvInferAccept(net::Channel &ch);

void sendInferOp(net::Channel &ch, InferOp op);
InferOp recvInferOp(net::Channel &ch);

/** Request/response tag. */
void sendInferTag(net::Channel &ch, uint32_t tag);
uint32_t recvInferTag(net::Channel &ch);

/**
 * Streaming-commit group count (follows InferOp::Commit only when
 * kInferFlagStreamCommit was negotiated).
 */
void sendCommitCount(net::Channel &ch, uint16_t count);
uint16_t recvCommitCount(net::Channel &ch);

/**
 * Width-packed tensor: n width-bit LSB-first lanes, ceil(n*width/8)
 * bytes, no length prefix (n and width are negotiated session state).
 * Elements are masked to width on the way out and arrive masked.
 */
void sendShareVectorPacked(net::Channel &ch, const uint64_t *shares,
                           size_t n, unsigned width);
void recvShareVectorPacked(net::Channel &ch, uint64_t *shares, size_t n,
                           unsigned width);

} // namespace ironman::infer

#endif // IRONMAN_INFER_WIRE_H
