/**
 * @file
 * A materialized trace: one immutable, compactly-encoded copy of a
 * record stream, replayable by any number of cheap cursors.
 *
 * The experiment grid runs every benchmark against many machine
 * variants. Regenerating the synthetic stream per variant makes the
 * generator — several RNG draws, a weighted behaviour pick and a PC
 * model per record — the dominant sweep cost. Materializing the
 * stream once per (profile, seed, length) and replaying it V times
 * turns that per-variant cost into a per-benchmark one.
 *
 * Storage is structure-of-arrays in spirit but byte-packed in
 * practice: one header byte per record (op, size class, delta flags)
 * followed by a raw fixed-width address delta (int32, or int64 for
 * wide jumps) and a zigzag-varint PC delta. Runs of plain
 * non-memory instructions (size 0, no address, pc advancing by 4) —
 * the majority of every stream — collapse into a run-prefix byte on
 * the next record's header, so the batched decoder replays them
 * with unconditional fill stores instead of one header dispatch per
 * record. Typical synthetic streams
 * encode in 1-3 bytes per record versus the 24-byte TraceRecord, so
 * whole-figure trace sets stay cache- and memory-friendly. Periodic
 * sync points make seek() cheap, which is what lets warm-state
 * checkpoint forks resume mid-stream without decoding the warmup
 * prefix.
 */

#ifndef WBSIM_TRACE_MATERIALIZED_TRACE_HH
#define WBSIM_TRACE_MATERIALIZED_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/source.hh"
#include "util/lint.hh"

namespace wbsim
{

/** An immutable, delta-encoded record stream. */
class MaterializedTrace
{
  public:
    MaterializedTrace() = default;

    /**
     * Drain @p source (up to @p limit records; 0 = to exhaustion)
     * into a materialized trace named after the source. The source
     * is read as run items (TraceSource::nextRuns), so a run costs
     * one step per sync interval, not one per record; the bytes are
     * those of appending every record one by one.
     */
    static MaterializedTrace build(TraceSource &source, Count limit = 0);

    /** Number of records. */
    Count size() const { return size_; }

    /** Encoded bytes (for footprint reporting and tests). */
    std::size_t encodedBytes() const { return bytes_.size(); }

    /** Identity inherited from the source (reports key off it). */
    const std::string &name() const { return name_; }

    /** Content hash: two traces with equal fingerprints and sizes
     *  replay identically (used by cache cross-checks and tests).
     *  Computed on demand over the encoded bytes and the size: the
     *  encoding is lossless, so equal records give equal bytes. */
    std::uint64_t fingerprint() const;

  private:
    friend class MaterializedCursor;

    /** Records between seekable sync points (power of two). Sync
     *  points also cut NonMem runs (an item never spans one), so the
     *  interval is kept coarse: fine syncs fragment the run-prefix
     *  encoding for no decode benefit. */
    static constexpr Count kSyncInterval = 4096;

    /** Decoder state immediately before record kSyncInterval * i. */
    struct Sync
    {
        std::size_t byteOffset = 0;
        Addr lastAddr = 0;
        Addr lastPc = 0;
    };

    /** Run items pulled per nextRuns() call while building. */
    static constexpr std::size_t kBuildItems = 256;

    /** Start a sync point when the next record begins an interval. */
    void syncIfDue();

    void append(const TraceRecord &record);

    /** append() of @p count plain NonMem records, each continuing
     *  the last pc by 4 (a run item's prefix). */
    void appendRun(Count count);

    /** Emit any accumulated NonMem run as self-carried records
     *  (used when no following record can carry the prefix). */
    void flushRun();

    std::vector<std::uint8_t> bytes_;
    std::vector<Sync> syncs_;
    Count size_ = 0;
    std::string name_ = "materialized";

    /** @name Encoder state (meaningful only during build()). */
    /// @{
    Addr enc_last_addr_ = 0;
    Addr enc_last_pc_ = 0;
    /** Plain NonMem records accumulated but not yet tokenised. */
    unsigned enc_run_ = 0;
    /// @}
};

/**
 * A read cursor over a MaterializedTrace. Non-virtual decode loop in
 * nextBatch(); the trace itself is shared and never mutated, so any
 * number of cursors (one per grid cell, across threads) may replay
 * it concurrently.
 */
class MaterializedCursor final : public TraceSource
{
  public:
    /** @param trace the trace to replay; caller keeps it alive. */
    explicit MaterializedCursor(const MaterializedTrace &trace);

    bool next(TraceRecord &record) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t max) override;
    void reset() override;
    std::string name() const override { return trace_->name(); }

    /**
     * Decode up to @p max run items (see TraceRun) covering at most
     * @p budget records: the same stream nextBatch() yields, but
     * with NonMem runs delivered as counts instead of materialized
     * filler records. The cursor advances by the records the items
     * cover, so nextRuns(), nextBatch(), next() and seek() may be
     * interleaved freely on one cursor. An item cut by the budget
     * parks the rest of its run and its record exactly as a
     * batch-cut item does.
     * @return items produced; 0 at end of trace.
     */
    WBSIM_HOT std::size_t nextRuns(TraceRun *out, std::size_t max,
                                   Count budget = kNoBudget) override;

    /** Jump so the next record returned is record @p index. */
    void seek(Count index);

    /** Index of the next record to be returned. */
    Count position() const { return index_; }

  private:
    const MaterializedTrace *trace_;
    std::size_t offset_ = 0; //!< byte offset into trace_->bytes_
    Count index_ = 0;
    Addr last_addr_ = 0;
    Addr last_pc_ = 0;
    /** NonMem records left in the run prefix being replayed. */
    unsigned run_left_ = 0;
    /** Header byte of an item cut by a batch boundary after its
     *  run prefix was (partially) consumed; -1 when none. */
    int pending_ = -1;

    void decodeOne(TraceRecord &record);
};

} // namespace wbsim

#endif // WBSIM_TRACE_MATERIALIZED_TRACE_HH
