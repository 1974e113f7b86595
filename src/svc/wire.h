/**
 * @file
 * Wire protocol of the COT service (src/svc): the handshake and the
 * per-batch opcodes that frame the Ferret protocol bytes.
 *
 * One session, client's view:
 *
 *   connect ──► Hello { magic, version, role, FerretParams, setupSeed }
 *           ◄── Accept { status, sessionId }
 *   loop:   ──► Op::Extend, then both ends run one
 *               FerretCotSender/Receiver::extendInto over the same
 *               channel (the opcode and the first protocol bytes share
 *               a frame — SocketChannel cuts frames on turnarounds)
 *   final:  ──► Op::Close
 *
 * The client picks its OWN role; the server plays the opposite one.
 * Parameters travel as explicit little-endian fields (WireParams), so
 * the negotiated FerretParams is identical on both ends — the engines'
 * outputs are a deterministic function of (params, base material, the
 * two parties' RNG tapes), which is what the multi-session
 * bit-identity test pins down.
 *
 * Base-OT substitution: like the rest of the repository (DESIGN.md
 * §4), the one-time base-COT phase is replaced by a trusted dealer.
 * The handshake's setupSeed seeds that dealer on both ends
 * (dealSessionBase) and both parties keep their own halves; the
 * derived per-party RNG seeds (senderRngSeed / receiverRngSeed) make
 * whole sessions reproducible, which tests and the reservoir's
 * correlation checks rely on. A deployment replacing the dealer with
 * real base OTs only swaps dealSessionBase — the framing is unchanged.
 */

#ifndef IRONMAN_SVC_WIRE_H
#define IRONMAN_SVC_WIRE_H

#include <cstdint>

#include "common/block.h"
#include "net/channel.h"
#include "ot/cot.h"
#include "ot/ferret_params.h"

namespace ironman::svc {

constexpr uint32_t kMagic = 0x49525356;  ///< "IRSV"
/// 2: kept-prefix GGM trees. The SPCOT sums and recovery blocks carry
/// different values in the same bytes, so a version-1 peer is refused
/// instead of silently pairing into wrong correlations.
constexpr uint16_t kWireVersion = 2;

/** The OT role the CLIENT plays; the server plays the opposite. */
enum class Role : uint8_t
{
    Sender = 0,
    Receiver = 1,
};

const char *roleName(Role r);

/** Per-batch opcodes (client to server). */
enum class Op : uint8_t
{
    Extend = 1, ///< run one extendInto on both ends
    Close = 2,  ///< end the session; the engine returns to the pool
};

/** Handshake outcome (server to client). */
enum class Status : uint8_t
{
    Ok = 0,
    BadMagic = 1,
    BadVersion = 2,
    BadParams = 3,
    /** Params are well-formed but not on the server's allowlist. */
    ParamsNotAllowed = 4,
    /** This client address exhausted its session quota. */
    SessionQuota = 5,
    /** This client address exhausted its served-bytes quota. */
    ByteQuota = 6,
};

const char *statusName(Status s);

/** FerretParams as explicit wire fields (name is derived, not sent). */
struct WireParams
{
    uint64_t n = 0;
    uint64_t k = 0;
    uint64_t t = 0;
    uint64_t lpnSeed = 0;
    uint32_t arity = 0;
    uint32_t lpnWeight = 0;
    uint8_t prg = 0; ///< crypto::PrgKind

    static WireParams of(const ot::FerretParams &p);
    ot::FerretParams toFerretParams() const;
};

/**
 * Structural sanity of untrusted wire params: bounded sizes,
 * self-consistent shape, and at least one usable COT per extension —
 * everything a hostile hello could use to abort or mis-size the
 * server. Shared by the COT-service handshake and the inference
 * handshake (infer/wire.h).
 */
bool wireParamsValid(const WireParams &w);

/** Client's opening message. */
struct Hello
{
    uint16_t version = kWireVersion;
    Role role = Role::Receiver;
    uint64_t setupSeed = 0;
    WireParams params;
};

/** Server's reply. */
struct Accept
{
    Status status = Status::Ok;
    uint64_t sessionId = 0;
};

void sendHello(net::Channel &ch, const Hello &h);

/**
 * Parse the peer's Hello. Returns Status::Ok and fills @p out, or the
 * rejection status (magic/version mismatch) with @p out untouched
 * beyond the offending fields.
 */
Status recvHello(net::Channel &ch, Hello *out);

void sendAccept(net::Channel &ch, const Accept &a);
Accept recvAccept(net::Channel &ch);

void sendOp(net::Channel &ch, Op op);
Op recvOp(net::Channel &ch);

// ---------------------------------------------------------------------------
// Session determinism helpers (shared by server, client, and tests)
// ---------------------------------------------------------------------------

/** RNG seed of the party playing the OT sender in a session. */
uint64_t senderRngSeed(uint64_t setup_seed);

/** RNG seed of the party playing the OT receiver. */
uint64_t receiverRngSeed(uint64_t setup_seed);

/**
 * The trusted-dealer substitute for per-session base-OT setup: both
 * ends replay the dealer tape seeded by @p setup_seed and keep their
 * own halves. @p delta_out receives the session offset.
 */
void dealSessionBase(const ot::FerretParams &p, uint64_t setup_seed,
                     ot::CotSenderBatch *sender_half,
                     ot::CotReceiverBatch *receiver_half,
                     Block *delta_out);

} // namespace ironman::svc

#endif // IRONMAN_SVC_WIRE_H
