/**
 * @file
 * Reduce-phase bookkeeping for the server-side controller (paper §5.2,
 * Algorithm 2, and the reconstruction reduce of §6.1).
 *
 * A ReduceSession collects partial results for one in-flight operation.
 * Sessions are keyed by the host operation id — the paper keys by offset,
 * which relies on the one-write-per-stripe rule; the id key additionally
 * tolerates the concurrent same-stripe *reads* enabled by the §8
 * lock-free-read optimization.
 *
 * The non-blocking multi-stage property lives here: a session is created
 * by whichever arrives first (host Parity/Reconstruction command or a
 * Peer partial), partials are reduced immediately on arrival, and only
 * the final persist/reply step waits for the host command (which carries
 * wait-num).
 *
 * The engine is pure bookkeeping plus buffer math: all I/O, CPU charging,
 * and networking is sequenced by DraidBdev, which makes the reduce logic
 * unit-testable without a cluster.
 */

#ifndef DRAID_CORE_REDUCE_ENGINE_H
#define DRAID_CORE_REDUCE_ENGINE_H

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ec/buffer.h"
#include "proto/opcodes.h"
#include "sim/types.h"

namespace draid::core {

/** What a reduce session produces. */
enum class SessionKind
{
    kParity,      ///< partial-stripe write: persist the reduced parity
    kReconstruct, ///< degraded read: return the reconstructed segment
};

/** One in-flight reduce operation on a bdev. */
struct ReduceSession
{
    SessionKind kind = SessionKind::kParity;
    proto::Subtype subtype = proto::Subtype::kNone;

    /** Host command seen yet? (it may arrive after peers, §5.2). */
    bool hostCmdSeen = false;

    /** Outstanding contributions: += wait-num, -1 per absorbed partial. */
    int remaining = 0;

    /** Old-parity preload (RMW) still in flight? */
    bool preloadPending = false;

    /**
     * Accumulator holding in-chunk bytes [accLo, accEnd): acc[i] is the
     * byte at in-chunk offset accLo + i. It spans only what contributions
     * have covered (Alg. 2 keeps just the written window), starting as a
     * copy of the first one and growing, zero-padded, in either direction
     * when a later one falls outside it. Empty until a non-empty
     * contribution arrives. The session owns these bytes exclusively.
     */
    ec::Buffer acc;
    std::uint32_t accLo = 0;
    std::uint32_t accEnd = 0;

    /** Final window (from the host command): in-chunk offset + length. */
    std::uint32_t baseOffset = 0;
    std::uint32_t length = 0;

    /** Device address of the chunk start (persist location). */
    std::uint64_t chunkDeviceAddr = 0;

    /** Who to notify and under which command id. */
    sim::NodeId replyTo = sim::kInvalidNode;
    std::uint64_t hostCmdId = 0;

    /**
     * Rebuild only: node whose drive receives the reconstructed chunk
     * (peer-to-peer spare write); kInvalidNode for ordinary degraded
     * reads, whose result returns to the host.
     */
    sim::NodeId spareDest = sim::kInvalidNode;

    /** Contributions absorbed (stats/tests). */
    std::uint32_t absorbed = 0;

    /** Bytes folded into the accumulator (stats). */
    std::uint64_t bytesAbsorbed = 0;

    /** Telemetry trace id of the owning host operation (0 = untraced). */
    std::uint64_t traceId = 0;

    /**
     * Barrier-mode ablation: number of Peer partials that must be
     * stashed before reduction starts; -1 until the host command arrives.
     */
    int barrierExpect = -1;
};

/** Lifetime-aggregate reduce statistics (telemetry probes). */
struct ReduceStats
{
    std::uint64_t sessionsCreated = 0;
    std::uint64_t partialsAbsorbed = 0;
    std::uint64_t bytesAbsorbed = 0;
};

/** Session table plus the reduce arithmetic. */
class ReduceEngine
{
  public:
    /** Get or create the session for host operation @p key. */
    ReduceSession &obtain(std::uint64_t key);

    /** Look up an existing session; nullptr if absent. */
    ReduceSession *find(std::uint64_t key);

    /** Drop a finished session, folding its tallies into stats(). */
    void erase(std::uint64_t key);

    std::size_t activeSessions() const { return sessions_.size(); }

    /** Aggregates over all sessions ever created (survives erase()). */
    const ReduceStats &stats() const { return stats_; }

    /**
     * XOR @p data into the session accumulator at in-chunk offset
     * @p offset, growing the accumulator as needed, and decrement the
     * outstanding count. @p data is only read.
     */
    static void absorb(ReduceSession &s, std::uint32_t offset,
                       const ec::Buffer &data);

    /** absorb() without touching the outstanding count (RMW preload). */
    static void absorbNoCount(ReduceSession &s, std::uint32_t offset,
                              const ec::Buffer &data);

    /**
     * Ready to persist/reply: host command processed, no outstanding
     * contributions, no preload in flight.
     */
    static bool readyToFinish(const ReduceSession &s);

    /**
     * The final bytes [baseOffset, baseOffset+length) of the window.
     * Usually a view of the accumulator (call it once the session is
     * done absorbing); bytes no contribution covered read as zero.
     */
    static ec::Buffer finalWindow(const ReduceSession &s);

  private:
    // draid-lint: cap(concurrent rebuild sessions; at most one per failed device)
    std::unordered_map<std::uint64_t, ReduceSession> sessions_;
    ReduceStats stats_;
};

} // namespace draid::core

#endif // DRAID_CORE_REDUCE_ENGINE_H
