/**
 * @file
 * Write buffer configuration: the paper's Table 2 parameters plus
 * the extensions discussed in §2.2 and §4.3.
 */

#ifndef WBSIM_CORE_CONFIG_HH
#define WBSIM_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "util/types.hh"

namespace wbsim
{

/**
 * What to do when an L1 load miss hits a block that is active in the
 * write buffer (paper §2.2, Figure 2).
 */
enum class LoadHazardPolicy : std::uint8_t
{
    FlushFull,     //!< flush every occupied entry (Alpha 21064)
    FlushPartial,  //!< flush in FIFO order up to the hit entry (21164)
    FlushItemOnly, //!< flush the hit entry alone (Chu & Gottipati)
    ReadFromWB,    //!< deliver data straight from the buffer
};

const char *loadHazardPolicyName(LoadHazardPolicy policy);

/** Inverse of loadHazardPolicyName(); fatal() on an unknown name. */
LoadHazardPolicy parseLoadHazardPolicy(std::string_view name);

/** When the buffer decides to retire entries on its own. */
enum class RetirementMode : std::uint8_t
{
    /** Retire while occupancy >= the high-water mark ("retire-at-N",
     *  the paper's main policy). */
    Occupancy,
    /** Retire one entry every fixedRatePeriod cycles if non-empty
     *  (Jouppi's fixed-rate policy, studied as an ablation). */
    FixedRate,
    /** Retire-at-N rate-limited by a token bucket: bursts drain
     *  back-to-back up to pacedBurst entries, sustained drain is
     *  capped at one write per pacedRefillPeriod cycles. Smooths
     *  drain traffic to shorten the read-access stall tail. */
    Paced,
};

const char *retirementModeName(RetirementMode mode);

/** Inverse of retirementModeName(); fatal() on an unknown name. */
RetirementMode parseRetirementMode(std::string_view name);

/**
 * Which entry goes when a retirement occurs (Table 2's "Retirement
 * Order" row; "typically FIFO").
 */
enum class RetirementOrder : std::uint8_t
{
    /** Oldest allocation first — the paper's (and the Alphas')
     *  order; preserves as much write order as coalescing allows. */
    Fifo,
    /** Most-valid-words first: maximises datapath utilisation per
     *  transfer at the cost of keeping the oldest (and most
     *  merge-ripe) entries around. A design-space extension. */
    FullestFirst,
};

const char *retirementOrderName(RetirementOrder order);

/** Inverse of retirementOrderName(); fatal() on an unknown name. */
RetirementOrder parseRetirementOrder(std::string_view name);

/** Organisation of the store buffer. */
enum class BufferKind : std::uint8_t
{
    WriteBuffer, //!< FIFO coalescing write buffer (the paper's model)
    WriteCache,  //!< fully-associative, LRU, retire-on-evict (Jouppi)
};

const char *bufferKindName(BufferKind kind);

/** Inverse of bufferKindName(); fatal() on an unknown name. */
BufferKind parseBufferKind(std::string_view name);

/** @name Non-fatal parse variants for untrusted (wire) input: false
 *  on an unknown name instead of terminating the daemon. */
/// @{
bool tryParseLoadHazardPolicy(std::string_view name,
                              LoadHazardPolicy &out);
bool tryParseRetirementMode(std::string_view name, RetirementMode &out);
bool tryParseRetirementOrder(std::string_view name,
                             RetirementOrder &out);
bool tryParseBufferKind(std::string_view name, BufferKind &out);
/// @}

/** Full configuration of the store-buffer stage. */
struct WriteBufferConfig
{
    BufferKind kind = BufferKind::WriteBuffer;

    /** Number of entries ("depth", Table 2). */
    unsigned depth = 4;
    /** Bytes per entry ("width"); one cache line in the baseline. */
    unsigned entryBytes = 32;
    /** Valid-bit granularity: the smallest writable datum (the
     *  paper's Alphas write 4-byte words at minimum). */
    unsigned wordBytes = 4;
    /** False models the non-coalescing buffer of §2.2/Table 2. */
    bool coalescing = true;

    RetirementMode retirementMode = RetirementMode::Occupancy;
    RetirementOrder retirementOrder = RetirementOrder::Fifo;
    /** Retire-at-N high-water mark (Occupancy mode). */
    unsigned highWaterMark = 2;
    /** Period in cycles between retirements (FixedRate mode). */
    Cycle fixedRatePeriod = 8;
    /** Token regeneration period in cycles (Paced mode). */
    Cycle pacedRefillPeriod = 8;
    /** Token-bucket depth: longest back-to-back drain burst (Paced
     *  mode). */
    unsigned pacedBurst = 2;
    /** Retire a lingering front entry after this many cycles; 0
     *  disables. The 21064 uses 256, the 21164 uses 64 (§2.2). */
    Cycle ageTimeout = 0;

    LoadHazardPolicy hazardPolicy = LoadHazardPolicy::FlushFull;

    /** UltraSPARC-style arbitration: once occupancy reaches
     *  writePriorityThreshold the buffer takes priority over reads
     *  until it drains below the threshold; 0 keeps the paper's pure
     *  read-bypassing. */
    unsigned writePriorityThreshold = 0;

    /** Extra cycles for a load served straight from the buffer under
     *  read-from-WB (0 = as fast as an L1 hit; §4.3 last bullet). */
    Cycle wbHitExtraCycles = 0;

    /** Serve hot-path queries (occupancy, merge target, load probe,
     *  retirement victim) from the legacy O(depth) scans instead of
     *  the incremental indexes. Simulation results are identical by
     *  construction; the toggle exists so the equivalence fuzzers can
     *  prove it (DESIGN.md "Performance"). */
    bool naiveScan = false;

    /** Cross-check every indexed answer against the naive scan and
     *  verify index integrity after each mutation. Forced on in
     *  debug (!NDEBUG) builds; tests and fuzzers set it explicitly. */
    bool crossCheck = false;

    /** Every field once, in wire and fingerprint order, as
     *  visit(wire key, member), plus an enum's name and parse
     *  functions. */
    template <typename Visit>
    static void
    forEachField(Visit &&visit)
    {
        using W = WriteBufferConfig;
        visit("kind", &W::kind, bufferKindName, tryParseBufferKind);
        visit("depth", &W::depth);
        visit("entry_bytes", &W::entryBytes);
        visit("word_bytes", &W::wordBytes);
        visit("coalescing", &W::coalescing);
        visit("retirement_mode", &W::retirementMode, retirementModeName,
              tryParseRetirementMode);
        visit("retirement_order", &W::retirementOrder,
              retirementOrderName, tryParseRetirementOrder);
        visit("high_water_mark", &W::highWaterMark);
        visit("fixed_rate_period", &W::fixedRatePeriod);
        visit("paced_refill_period", &W::pacedRefillPeriod);
        visit("paced_burst", &W::pacedBurst);
        visit("age_timeout", &W::ageTimeout);
        visit("hazard_policy", &W::hazardPolicy, loadHazardPolicyName,
              tryParseLoadHazardPolicy);
        visit("write_priority_threshold", &W::writePriorityThreshold);
        visit("wb_hit_extra_cycles", &W::wbHitExtraCycles);
        visit("naive_scan", &W::naiveScan);
        visit("cross_check", &W::crossCheck);
    }

    /** Headroom = depth - highWaterMark, the quantity §3.3 shows
     *  matters more than depth. */
    unsigned headroom() const;

    /** Words per entry (entryBytes / wordBytes). */
    unsigned wordsPerEntry() const { return entryBytes / wordBytes; }

    /** fatal() on inconsistent parameters. */
    void validate() const;

    /** First inconsistency as a message, or "" when the
     *  configuration is valid. The non-fatal face of validate() for
     *  network-supplied configurations (wbsim-serve). */
    std::string validationError() const;

    /** Short identity like "4-deep/retire-at-2/flush-full". */
    std::string describe() const;
};

} // namespace wbsim

#endif // WBSIM_CORE_CONFIG_HH
