/**
 * @file
 * OT-based online protocols for nonlinear functions (Sec. 2.2).
 *
 * This is the "online OT protocol" half of the PPML stack: GMW-style
 * two-party computation over XOR/additive secret shares, where every
 * AND gate and multiplexer consumes pre-generated COT correlations —
 * exactly the resource Ironman accelerates. The engine implements:
 *
 *   - batched AND on boolean shares (2 COTs per bit, one per
 *     direction — this is why the protocol needs role switching and a
 *     unified sender/receiver architecture, Sec. 5.2),
 *   - DReLU: the sign bit of an additively shared fixed-point value,
 *     via a Kogge–Stone carry-prefix ladder (log-depth, the default)
 *     or a sequential ripple carry (the in-process reference) — see
 *     ppml/cmp_mode.h for the round/gate trade,
 *   - MUX and ReLU on additive shares (2 COTs per element),
 *   - max-pool style pairwise maximum.
 *
 * These are faithful (semi-honest) protocols, tested against plain
 * evaluation; the per-element COT counts they report anchor the
 * framework cost models in ppml/framework.h.
 */

#ifndef IRONMAN_PPML_SECURE_COMPUTE_H
#define IRONMAN_PPML_SECURE_COMPUTE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/rng.h"
#include "crypto/crhf.h"
#include "net/channel.h"
#include "ot/chosen_ot.h"
#include "ot/cot.h"
#include "ppml/cmp_mode.h"
#include "ppml/cot_engine.h"

namespace ironman::ppml {

/** Two-party GMW engine; instantiate one per party. */
class SecureCompute
{
  public:
    /**
     * Correlations are drawn from a CotSupply — normally a persistent
     * FerretCotEngine (shared channel, self-refilling across layers),
     * or a svc::ReservoirCotSupply stocked by background COT-service
     * sessions. @p supply must outlive this object, and both parties'
     * supplies must hand out matching halves in lockstep.
     *
     * @param party 0 or 1 (party 0 sends first in every batch).
     * @param bitwidth Fixed-point width for arithmetic ops (<= 64).
     */
    SecureCompute(net::Channel &ch, int party, CotSupply &supply,
                  unsigned bitwidth = 32);

    // ---- boolean-share operations ------------------------------------

    /** Local XOR. */
    static BitVec xorShares(const BitVec &a, const BitVec &b);

    /** Batched AND of boolean shares; consumes 2 COTs per bit. */
    BitVec andShares(const BitVec &a, const BitVec &b);

    // ---- additive-share operations (mod 2^bitwidth) -------------------

    /**
     * DReLU: boolean shares of (x >= 0) for additively shared x,
     * where x is interpreted as a signed bitwidth-bit integer. The
     * carry circuit is comparisonMode()'s; the reconstructed BIT is
     * the same function either way, but the output SHARES differ
     * (each mode draws a different AND-mask tape) — downstream
     * consumers (mux/relu) erase that difference, see mux().
     */
    BitVec drelu(const std::vector<uint64_t> &shares);

    /**
     * MUX: additive shares of (b ? x : 0) from boolean shares of b
     * and additive shares of x. 2 COTs per element.
     *
     * Output-share determinism: y_p = r_p + (b ? x_{1-p} : 0) -
     * r_{1-p} depends on the RECONSTRUCTED bit b and the x shares,
     * never on the individual b shares — and the masks r draw from a
     * dedicated per-call counter (muxSeq), not the op-order tweak. So
     * relu() output shares are identical across comparison modes even
     * though the drelu shares differ (the anchor of the cross-mode
     * bit-identity invariant, DESIGN.md invariant 16).
     */
    std::vector<uint64_t> mux(const BitVec &b_shares,
                              const std::vector<uint64_t> &x_shares);

    /** ReLU = MUX(DReLU(x), x). */
    std::vector<uint64_t> relu(const std::vector<uint64_t> &shares);

    /** Pairwise maximum of two shared vectors (max-pool building block). */
    std::vector<uint64_t> maxElementwise(const std::vector<uint64_t> &a,
                                         const std::vector<uint64_t> &b);

    /**
     * Secure table lookup (the GELU/Softmax/exp building block of
     * SiRNN/Bolt): given additive shares mod N of indices x (N =
     * table.size(), a power of two), returns additive shares mod
     * 2^bitwidth of table[x]. Party 0 acts as the 1-of-N OT sender;
     * log2(N) COTs per element.
     */
    std::vector<uint64_t> lutEval(const std::vector<uint64_t> &x_shares,
                                  const std::vector<uint64_t> &table);

    /** Total COT correlations consumed so far. */
    size_t
    cotsConsumed() const
    {
        return engine->cotsTaken();
    }

    /**
     * Comparison circuit for drelu/relu (default Ladder). Both
     * parties must agree BEFORE the first comparison — the modes
     * consume different COT counts and interleave different AND
     * batches. The inference service always runs the ladder; the
     * ripple is the in-process reference it is tested against.
     */
    void setComparisonMode(CmpMode m) { cmpMode = m; }
    CmpMode comparisonMode() const { return cmpMode; }

    /**
     * Batched interactions (AND/MUX/LUT rounds) run so far — the
     * measured round count MlpLayerStat reports; matches
     * ppml::reluRounds() per relu() call by construction.
     */
    unsigned roundsUsed() const { return rounds; }

    unsigned bitwidth() const { return width; }

    uint64_t
    maskValue(uint64_t v) const
    {
        return width == 64 ? v : (v & ((uint64_t(1) << width) - 1));
    }

  private:
    /**
     * One batched chosen-OT where this party is the sender. Every
     * message ships at its semantic width @p wire_width (1-bit AND
     * lanes, bitwidth-bit MUX arms); the pads stay full-Block CRHF
     * hashes, so truncation commutes with the XOR unmasking.
     */
    void otSendBatch(const std::vector<Block> &m0,
                     const std::vector<Block> &m1, unsigned wire_width);
    /** One batched chosen-OT where this party is the receiver. */
    std::vector<Block> otRecvBatch(const BitVec &choices,
                                   unsigned wire_width);

    /** Boolean shares of bit @p i of every element of @p shares. */
    BitVec bitShares(const std::vector<uint64_t> &shares,
                     unsigned i) const;
    BitVec dreluRipple(const std::vector<uint64_t> &shares);
    BitVec dreluLadder(const std::vector<uint64_t> &shares);
    BitVec dreluFinish(const std::vector<uint64_t> &shares,
                       const BitVec &carry);

    net::Channel &ch;
    int party;
    CotSupply *engine = nullptr;
    unsigned width;
    CmpMode cmpMode = CmpMode::Ladder;
    unsigned rounds = 0;
    crypto::Crhf crhf;
    ot::ChosenOtScratch otScratch;
    Rng localRng;
    uint64_t tweak = 0x10000000;
    /**
     * MUX mask counter, deliberately separate from `tweak`: the tweak
     * advances per COT and therefore diverges across comparison
     * modes, while the mux masks must not (see mux()).
     */
    uint64_t muxSeq = 0;
};

} // namespace ironman::ppml

#endif // IRONMAN_PPML_SECURE_COMPUTE_H
