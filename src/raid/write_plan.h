/**
 * @file
 * Per-stripe write planning: pick the write mode (full-stripe,
 * read-modify-write, or reconstruct write), enumerate the device I/Os
 * every mode needs, and decide how a write proceeds while one member is
 * failed (§5.3). Used by the host-side controllers of dRAID and of both
 * baselines, so all systems make identical mode decisions, healthy and
 * degraded (§9.1's fairness requirement); each host only maps the
 * planner's answer onto its own executors.
 */

#ifndef DRAID_RAID_WRITE_PLAN_H
#define DRAID_RAID_WRITE_PLAN_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "raid/geometry.h"

namespace draid::raid {

/** The three RAID write modes (§2.1). */
enum class WriteMode
{
    kFullStripe,      ///< all data chunks fully covered; no remote reads
    kReadModifyWrite, ///< read old data + parity, apply deltas
    kReconstructWrite,///< read untouched chunks, rebuild parity from scratch
};

/** One data chunk receiving new bytes in a stripe write. */
struct WriteSegment
{
    std::uint32_t dataIdx; ///< data-chunk index within the stripe
    std::uint32_t offset;  ///< byte offset within the chunk
    std::uint32_t length;  ///< byte length
};

/** Plan for the portion of a write that falls in one stripe. */
struct StripeWritePlan
{
    std::uint64_t stripe = 0;
    WriteMode mode = WriteMode::kFullStripe;

    /** Chunks receiving new data, ordered by dataIdx. */
    // draid-lint: cap(chunks of one stripe; at most data width)
    std::vector<WriteSegment> writes;

    /** Untouched data chunks to read whole (reconstruct write only). */
    // draid-lint: cap(untouched chunks of one stripe; at most data width)
    std::vector<std::uint32_t> rcwReads;

    /** Parity byte range to update (union of deltas for RMW; whole chunk
     * for RCW/FSW). */
    std::uint32_t parityOffset = 0;
    std::uint32_t parityLength = 0;

    /** Partial parities the parity bdev must wait for (dRAID wait-num). */
    std::uint32_t waitNum = 0;

    /** Bytes of user data written in this stripe. */
    std::uint64_t userBytes() const;
};

/** How a stripe write proceeds with one member failed. */
enum class DegradedWriteKind
{
    kNormal,     ///< lost P (RAID-6) or Q, or a full-stripe write: the
                 ///< ordinary flow skips the failed device
    kParityLess, ///< lost P on RAID-5: plain data writes, no parity
    kForcedRmw,  ///< failed data chunk untouched: its unknown content
                 ///< cancels out of the delta, so RMW works unmodified
    kTargeted,   ///< failed data chunk written: its new bytes go straight
                 ///< into the parity window (survivors first, if any)
};

/** planDegraded()'s decision for one stripe. */
struct DegradedWritePlan
{
    DegradedWriteKind kind = DegradedWriteKind::kNormal;

    /** kTargeted: the failed chunk's segment, peeled off the plan... */
    WriteSegment failedSeg{};
    /** ...and its former index in the plan's writes. */
    std::size_t failedPos = 0;

    /** kTargeted with surviving segments: a forced-RMW plan that writes
     * them before the targeted parity update. */
    std::optional<StripeWritePlan> phase1;
};

/**
 * Splits a logical write into per-stripe plans and decides each stripe's
 * mode by comparing the *bytes that must be read* from the drives:
 *   RMW reads  = written bytes (old data) + parity window (x parities)
 *   RCW reads  = untouched chunks + uncovered parts of written chunks
 * choosing RMW iff it reads strictly fewer bytes. With the paper's default
 * RAID-5 geometry (k=7, 512 KB chunks) this yields the §9.3 regime
 * boundaries — RMW below 1536 KB, reconstruct write from 1536 KB to
 * 3584 KB, full stripe at 3584 KB — while still picking RMW for small
 * partial-chunk writes on narrow arrays (the Fig. 12 width-4 case).
 */
class WritePlanner
{
  public:
    explicit WritePlanner(const Geometry &geom) : geom_(geom) {}

    /** Plan the write [offset, offset+length). */
    std::vector<StripeWritePlan> plan(std::uint64_t offset,
                                      std::uint64_t length) const;

    /** Plan a single stripe given its write segments. */
    StripeWritePlan planStripe(std::uint64_t stripe,
                               std::vector<WriteSegment> segs) const;

    /**
     * Decide how @p plan proceeds with member @p failedDevice failed,
     * rewriting @p plan in place: forced RMW switches its mode, and a
     * targeted write peels the failed chunk's segment off its writes
     * (the caller drops the matching payload at failedPos).
     */
    DegradedWritePlan planDegraded(StripeWritePlan &plan,
                                   std::uint32_t failedDevice) const;

    /**
     * Turn @p plan into a read-modify-write: parity window = union of the
     * written ranges, one partial parity per written chunk, no RCW reads.
     * @pre plan.writes is not empty
     */
    void forceRmw(StripeWritePlan &plan) const;

  private:
    const Geometry &geom_;
};

} // namespace draid::raid

#endif // DRAID_RAID_WRITE_PLAN_H
