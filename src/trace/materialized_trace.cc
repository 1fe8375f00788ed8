#include "trace/materialized_trace.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/logging.hh"
#include "util/random.hh"

namespace wbsim
{

namespace
{

/** Header-byte layout: op | size class | field-presence flags. */
constexpr std::uint8_t kOpMask = 0x03;
constexpr unsigned kSizeShift = 2;
constexpr std::uint8_t kSizeMask = 0x03;
constexpr std::uint8_t kSizeZero = 0;     //!< size == 0
constexpr std::uint8_t kSizeFour = 1;     //!< size == 4
constexpr std::uint8_t kSizeEight = 2;    //!< size == 8
constexpr std::uint8_t kSizeExplicit = 3; //!< size byte follows
constexpr std::uint8_t kHasAddr = 0x10;   //!< addr delta field follows
constexpr std::uint8_t kPcPlus4 = 0x20;   //!< pc advances by 4, no field
/** With kHasAddr: the delta is a raw int64 instead of the raw int32
 *  short form. Fixed-width deltas decode with one memcpy load; the
 *  data-dependent varint byte loop they replace mispredicted once
 *  per multi-byte delta, which made memory records the decode
 *  bottleneck (cross-arena behaviour switches produce ~2^33 deltas
 *  every few records). */
constexpr std::uint8_t kAddrWide = 0x80;
/** Run prefix: a byte follows the header giving the number (1-255)
 *  of plain NonMem records — size 0, addr 0, pc advancing by 4 —
 *  that precede this record. Folding runs into the next record's
 *  header instead of standalone run tokens keeps the decode loop at
 *  one item per real record: the batched decoder fills the prefix
 *  with unconditional stores and never takes a data-dependent
 *  run-vs-record branch. Runs longer than 255 chain through plain
 *  prefixed NonMem records (256 replayed records per 2 bytes). */
constexpr std::uint8_t kRunBit = 0x40;
/** Zero slack bytes appended after the encoded stream so the decoder
 *  may always issue full 8-byte delta loads. */
constexpr std::size_t kBytePad = 8;

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1)
        ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1)
        ^ -static_cast<std::int64_t>(v & 1);
}

/** Append the raw in-memory bytes of @p v (int32 or int64 delta). */
template <typename T>
void
putRaw(std::vector<std::uint8_t> &bytes, T v)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
}

void
putVarint(std::vector<std::uint8_t> &bytes, std::uint64_t v)
{
    while (v >= 0x80) {
        bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    bytes.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::uint8_t *bytes, std::size_t &offset)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        std::uint8_t b = bytes[offset++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0)
            return v;
        shift += 7;
    }
}

/**
 * Everything the decoder needs to know about one header byte,
 * precomputed so the common decode path is pure table lookups and
 * conditional moves. Compress-class streams interleave NonMem runs
 * with isolated loads and stores in a data-dependent order; with
 * per-field `if`s the decoder took several unpredictable branches
 * per memory record, and the mispredicts — not the byte maths —
 * dominated replay. The LUT path leaves exactly one unpredictable
 * branch per item (run token vs record).
 */
struct HeaderInfo
{
    std::uint8_t op = 0;
    std::uint8_t size = 0;     //!< decoded size (fast forms only)
    std::uint8_t addrLen = 0;  //!< addr delta bytes: 0, 4 or 8
    std::uint8_t flags = 0;
};

constexpr std::uint8_t kFWide = 1;        //!< 8-byte addr delta
constexpr std::uint8_t kFHasAddr = 2;     //!< addr delta present
constexpr std::uint8_t kFAddrKnown = 4;   //!< record.addr = last_addr
/** No explicit size byte and pc advances by 4: the record decodes
 *  with no data-dependent control flow at all. */
constexpr std::uint8_t kFFast = 8;

constexpr std::array<HeaderInfo, 256> kHeaderLut = [] {
    std::array<HeaderInfo, 256> lut{};
    for (unsigned h = 0; h < 256; ++h) {
        HeaderInfo &info = lut[h];
        info.op = h & kOpMask;
        unsigned size_code = (h >> kSizeShift) & kSizeMask;
        constexpr std::uint8_t sizes[4] = {0, 4, 8, 0};
        info.size = sizes[size_code];
        bool has_addr = (h & kHasAddr) != 0;
        bool wide = (h & kAddrWide) != 0;
        info.addrLen = has_addr ? (wide ? 8 : 4) : 0;
        bool is_mem = info.op == static_cast<std::uint8_t>(Op::Load)
            || info.op == static_cast<std::uint8_t>(Op::Store);
        info.flags = static_cast<std::uint8_t>(
            (wide ? kFWide : 0) | (has_addr ? kFHasAddr : 0)
            | (has_addr || is_mem ? kFAddrKnown : 0)
            | (size_code != kSizeExplicit && (h & kPcPlus4) != 0
                   ? kFFast
                   : 0));
    }
    return lut;
}();

/**
 * Decode the field section of one record (everything after the
 * header and optional run-prefix byte) given explicit decoder
 * state. Shared by the scalar and batched paths; the batched path
 * passes locals so the compiler can keep the state in registers
 * across the whole batch (writes through the output pointer may
 * alias the cursor, so member state would be reloaded every record).
 * Forced inline: left to its own estimate GCC outlines this into a
 * real call, which spills the by-reference decoder state to the
 * stack and puts a store-forward plus call overhead on the serial
 * offset recurrence every record (~25% of batched replay).
 */
[[gnu::always_inline]] inline void
decodeFields(const std::uint8_t *__restrict bytes, std::size_t &offset,
             Addr &last_addr, Addr &last_pc,
             TraceRecord &__restrict record, std::uint8_t header)
{
    const HeaderInfo info = kHeaderLut[header];

    record.op = static_cast<Op>(info.op);
    if ((info.flags & kFFast) != 0) [[likely]] {
        record.size = info.size;
        // Unconditional 8-byte delta load (kBytePad keeps it in
        // bounds) plus conditional moves: delta width and presence
        // alternate unpredictably whenever the generator hops
        // between behaviour arenas, so branches here mispredict.
        // The field length comes from shift-and-mask arithmetic on
        // the header, NOT from the LUT: the next record's header
        // load depends on this offset, and putting a table load on
        // that chain serialises decode at L1-latency per record.
        std::uint64_t raw;
        std::memcpy(&raw, bytes + offset, sizeof(raw));
        bool wide = (header & kAddrWide) != 0;
        std::int64_t delta = wide
            ? static_cast<std::int64_t>(raw)
            : static_cast<std::int64_t>(
                  static_cast<std::int32_t>(
                      static_cast<std::uint32_t>(raw)));
        last_addr += (header & kHasAddr) != 0
            ? static_cast<Addr>(delta)
            : 0;
        record.addr = (info.flags & kFAddrKnown) != 0 ? last_addr : 0;
        offset += ((header >> 2) & 4)   // 4 bytes when kHasAddr
            + ((header >> 5) & 4);      // +4 more when kAddrWide
        last_pc += 4;
        record.pc = last_pc;
        return;
    }

    // Rare forms: explicit size byte and/or a PC jump (loop wrap or
    // taken branch), decoded with the straightforward field-by-field
    // reader.
    unsigned size_code = (header >> kSizeShift) & kSizeMask;
    record.size = size_code == kSizeExplicit ? bytes[offset++]
                                             : info.size;

    if (header & kHasAddr) {
        std::uint64_t raw;
        std::memcpy(&raw, bytes + offset, sizeof(raw));
        std::int64_t delta = (info.flags & kFWide) != 0
            ? static_cast<std::int64_t>(raw)
            : static_cast<std::int64_t>(
                  static_cast<std::int32_t>(
                      static_cast<std::uint32_t>(raw)));
        offset += info.addrLen;
        last_addr += static_cast<Addr>(delta);
        record.addr = last_addr;
    } else {
        record.addr = record.isMem() ? last_addr : 0;
    }

    if (header & kPcPlus4)
        last_pc += 4;
    else
        last_pc += static_cast<Addr>(
            unzigzag(getVarint(bytes, offset)));
    record.pc = last_pc;
}

} // namespace

MaterializedTrace
MaterializedTrace::build(TraceSource &source, Count limit)
{
    MaterializedTrace trace;
    trace.name_ = source.name();
    const Count budget = limit == 0 ? TraceSource::kNoBudget : limit;
    TraceRun items[kBuildItems];
    while (std::size_t got = source.nextRuns(items, kBuildItems,
                                             budget - trace.size_)) {
        for (std::size_t i = 0; i < got; ++i) {
            trace.appendRun(items[i].nonMemBefore);
            trace.append(items[i].rec);
        }
    }
    trace.flushRun();
    // Slack so the decoder's fixed 8-byte delta loads never run off
    // the end of the buffer (the logical stream ends before them).
    trace.bytes_.resize(trace.bytes_.size() + kBytePad);
    trace.bytes_.shrink_to_fit();
    return trace;
}

void
MaterializedTrace::flushRun()
{
    // No record follows to carry the prefix (sync boundary or end of
    // build): the last accumulated NonMem record itself becomes the
    // carrier, so a run of n costs 2 bytes per 256 records plus one
    // 1-2 byte tail.
    while (enc_run_ >= 256) {
        bytes_.push_back(kPcPlus4 | kRunBit);
        bytes_.push_back(255);
        enc_run_ -= 256;
    }
    if (enc_run_ == 1) {
        bytes_.push_back(kPcPlus4);
    } else if (enc_run_ > 1) {
        bytes_.push_back(kPcPlus4 | kRunBit);
        bytes_.push_back(static_cast<std::uint8_t>(enc_run_ - 1));
    }
    enc_run_ = 0;
}

void
MaterializedTrace::syncIfDue()
{
    if (size_ % kSyncInterval == 0) {
        // Runs never span a sync point: the sync must describe the
        // decoder state exactly at this record boundary.
        flushRun();
        syncs_.push_back(Sync{bytes_.size(), enc_last_addr_,
                              enc_last_pc_});
    }
}

void
MaterializedTrace::appendRun(Count count)
{
    // append() of each plain NonMem record would only grow the
    // pending run, so grow it by whole stretches between syncs.
    while (count > 0) {
        syncIfDue();
        Count take =
            std::min(count, kSyncInterval - size_ % kSyncInterval);
        size_ += take;
        enc_run_ += static_cast<unsigned>(take);
        enc_last_pc_ += 4 * take;
        count -= take;
    }
}

void
MaterializedTrace::append(const TraceRecord &record)
{
    syncIfDue();
    ++size_;

    if (record.op == Op::NonMem && record.size == 0 && record.addr == 0
        && record.pc == enc_last_pc_ + 4) {
        ++enc_run_;
        enc_last_pc_ += 4;
        return;
    }
    // Chain whole 256-record chunks; the remainder rides as this
    // record's prefix byte.
    while (enc_run_ >= 256) {
        bytes_.push_back(kPcPlus4 | kRunBit);
        bytes_.push_back(255);
        enc_run_ -= 256;
    }

    std::uint8_t header = static_cast<std::uint8_t>(record.op) & kOpMask;

    std::uint8_t size_code;
    switch (record.size) {
      case 0: size_code = kSizeZero; break;
      case 4: size_code = kSizeFour; break;
      case 8: size_code = kSizeEight; break;
      default: size_code = kSizeExplicit; break;
    }
    header |= static_cast<std::uint8_t>(size_code << kSizeShift);

    // Absent addr field decodes to the previous address for memory
    // ops (RAW reuse) and to zero otherwise, so only deviations from
    // those defaults cost bytes.
    bool has_addr = record.isMem() ? record.addr != enc_last_addr_
                                   : record.addr != 0;
    std::int64_t addr_delta = 0;
    bool addr_wide = false;
    if (has_addr) {
        addr_delta = static_cast<std::int64_t>(record.addr
                                               - enc_last_addr_);
        addr_wide = addr_delta != static_cast<std::int32_t>(addr_delta);
        header |= kHasAddr;
        if (addr_wide)
            header |= kAddrWide;
    }

    bool pc_plus4 = record.pc == enc_last_pc_ + 4;
    if (pc_plus4)
        header |= kPcPlus4;
    if (enc_run_ > 0)
        header |= kRunBit;

    bytes_.push_back(header);
    if (enc_run_ > 0) {
        bytes_.push_back(static_cast<std::uint8_t>(enc_run_));
        enc_run_ = 0;
    }
    if (size_code == kSizeExplicit)
        bytes_.push_back(record.size);
    if (has_addr) {
        if (addr_wide) {
            putRaw(bytes_, addr_delta);
        } else {
            putRaw(bytes_, static_cast<std::int32_t>(addr_delta));
        }
        enc_last_addr_ = record.addr;
    }
    if (!pc_plus4)
        putVarint(bytes_,
                  zigzag(static_cast<std::int64_t>(record.pc
                                                   - enc_last_pc_)));
    enc_last_pc_ = record.pc;
}

std::uint64_t
MaterializedTrace::fingerprint() const
{
    std::uint64_t hash = hashCombine(0, size_);
    std::size_t n = bytes_.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes_.data() + i, sizeof(word));
        hash = hashCombine(hash, word);
    }
    for (; i < n; ++i)
        hash = hashCombine(hash, bytes_[i]);
    return hash;
}

MaterializedCursor::MaterializedCursor(const MaterializedTrace &trace)
    : trace_(&trace)
{
}

void
MaterializedCursor::reset()
{
    offset_ = 0;
    index_ = 0;
    last_addr_ = 0;
    last_pc_ = 0;
    run_left_ = 0;
    pending_ = -1;
}

void
MaterializedCursor::decodeOne(TraceRecord &record)
{
    const std::uint8_t *bytes = trace_->bytes_.data();
    if (run_left_ == 0 && pending_ < 0) {
        std::uint8_t header = bytes[offset_++];
        if (header & kRunBit)
            run_left_ = bytes[offset_++];
        pending_ = header;
    }
    if (run_left_ > 0) {
        --run_left_;
        last_pc_ += 4;
        record = TraceRecord{Op::NonMem, 0, 0, last_pc_};
    } else {
        decodeFields(bytes, offset_, last_addr_, last_pc_, record,
                     static_cast<std::uint8_t>(pending_));
        pending_ = -1;
    }
    ++index_;
}

bool
MaterializedCursor::next(TraceRecord &record)
{
    if (index_ >= trace_->size_)
        return false;
    decodeOne(record);
    return true;
}

std::size_t
MaterializedCursor::nextBatch(TraceRecord *out, std::size_t max)
{
    Count left = trace_->size_ - index_;
    std::size_t n = left < max ? static_cast<std::size_t>(left) : max;
    if (n == 0)
        return 0;
    // The output batch never overlaps the encoded stream; without
    // restrict every TraceRecord store (char-typed writes alias
    // everything) forces the byte loads of the next record to wait,
    // serialising the whole decode chain.
    const std::uint8_t *__restrict bytes = trace_->bytes_.data();
    TraceRecord *__restrict dst = out;
    unsigned run_left = run_left_;
    int pending = pending_;
    std::size_t i = 0;

    {
        std::size_t offset = offset_;
        Addr last_addr = last_addr_;
        Addr last_pc = last_pc_;

        // Resume an item cut by the previous batch boundary (rare).
        if (run_left > 0 || pending >= 0) {
            while (run_left > 0 && i < n) {
                last_pc += 4;
                dst[i++] = TraceRecord{Op::NonMem, 0, 0, last_pc};
                --run_left;
            }
            if (run_left == 0 && pending >= 0 && i < n) {
                decodeFields(bytes, offset, last_addr, last_pc,
                             dst[i],
                             static_cast<std::uint8_t>(pending));
                ++i;
                pending = -1;
            }
        }

        // One item per iteration: an optional NonMem run prefix plus
        // one record. (An interleaved two-chain variant split at a
        // mid-batch sync point was tried here and measured ~35%
        // slower: the per-item branches see the merged history of
        // two independent streams and mispredict far more, costing
        // more than the serial offset recurrence saves.)
        while (i < n) {
            std::uint8_t header = bytes[offset];
            if ((header & kRunBit) == 0) {
                // Run-free item: exactly one record, no fill and no
                // batch-headroom check needed (i < n already holds).
                ++offset;
                decodeFields(bytes, offset, last_addr, last_pc,
                             dst[i], header);
                ++i;
                continue;
            }
            // kBytePad keeps the unconditional prefix-byte load in
            // bounds even when the header is the last encoded byte.
            unsigned prefix = bytes[offset + 1];
            offset += 2;
            if (prefix <= 4 && i + 5 <= n) [[likely]] {
                // Speculative fill: write four NonMem records
                // unconditionally; slots past the prefix length
                // (1..4 here) are overwritten by the records that
                // follow. This replaces the fill-loop exit branch —
                // prefix lengths are data-dependent and mispredict —
                // with plain stores.
                dst[i] = TraceRecord{Op::NonMem, 0, 0, last_pc + 4};
                dst[i + 1] =
                    TraceRecord{Op::NonMem, 0, 0, last_pc + 8};
                dst[i + 2] =
                    TraceRecord{Op::NonMem, 0, 0, last_pc + 12};
                dst[i + 3] =
                    TraceRecord{Op::NonMem, 0, 0, last_pc + 16};
                last_pc += 4 * prefix;
                i += prefix;
                decodeFields(bytes, offset, last_addr, last_pc,
                             dst[i], header);
                ++i;
            } else {
                // Long prefix or batch tail: careful bounded fill.
                std::size_t take =
                    std::min<std::size_t>(prefix, n - i);
                for (std::size_t k = 0; k < take; ++k) {
                    last_pc += 4;
                    dst[i + k] = TraceRecord{Op::NonMem, 0, 0,
                                             last_pc};
                }
                i += take;
                unsigned rem = static_cast<unsigned>(prefix - take);
                if (rem > 0 || i >= n) {
                    // The item straddles the batch boundary; its
                    // header is parked until the next call.
                    run_left = rem;
                    pending = header;
                    break;
                }
                decodeFields(bytes, offset, last_addr, last_pc,
                             dst[i], header);
                ++i;
            }
        }

        offset_ = offset;
        last_addr_ = last_addr;
        last_pc_ = last_pc;
    }

    run_left_ = run_left;
    pending_ = pending;
    index_ += n;
    return n;
}

std::size_t
MaterializedCursor::nextRuns(TraceRun *out, std::size_t max,
                             Count budget)
{
    Count left = std::min(trace_->size_ - index_, budget);
    if (left == 0 || max == 0)
        return 0;
    const std::uint8_t *__restrict bytes = trace_->bytes_.data();
    TraceRun *__restrict dst = out;
    std::size_t produced = 0;
    Count consumed = 0;
    std::size_t offset = offset_;
    Addr last_addr = last_addr_;
    Addr last_pc = last_pc_;
    unsigned run_left = run_left_;
    int pending = pending_;

    // The budget ends inside the run of the item whose header is
    // parked in `pending`: the run's next @p take records go out as
    // a carrier item and the rest stays parked.
    auto cut = [&](Count take) {
        TraceRun &item = dst[produced++];
        item.nonMemBefore = static_cast<std::uint32_t>(take - 1);
        last_pc += 4 * static_cast<Addr>(take);
        item.rec = TraceRecord{Op::NonMem, 0, 0, last_pc};
        run_left -= static_cast<unsigned>(take);
        consumed += take;
    };

    // Resume an item cut mid-run by an earlier call (or parked by
    // next()/nextBatch()/seek()): the remainder of its run plus its
    // parked record become a normal (if shortened) run item.
    if (pending >= 0) {
        if (run_left >= left) {
            cut(left);
        } else {
            TraceRun &item = dst[produced++];
            item.nonMemBefore = run_left;
            last_pc += 4 * static_cast<Addr>(run_left);
            decodeFields(bytes, offset, last_addr, last_pc, item.rec,
                         static_cast<std::uint8_t>(pending));
            consumed += run_left + 1;
            run_left = 0;
            pending = -1;
        }
    }

    // One item in, one TraceRun out; only an item that would cross
    // the budget is cut (parked like a batch-cut item).
    while (produced < max && consumed < left) {
        std::uint8_t header = bytes[offset];
        unsigned has_run = (header >> 6) & 1u;
        // kBytePad keeps the unconditional prefix-byte load in
        // bounds; the mask keeps it branch-free for run-less items.
        unsigned prefix = bytes[offset + 1] & (0u - has_run);
        offset += 1 + has_run;
        if (prefix >= left - consumed) [[unlikely]] {
            run_left = prefix;
            pending = header;
            cut(left - consumed);
            break;
        }
        TraceRun &item = dst[produced++];
        item.nonMemBefore = prefix;
        last_pc += 4 * static_cast<Addr>(prefix);
        decodeFields(bytes, offset, last_addr, last_pc, item.rec,
                     header);
        consumed += prefix + 1;
    }

    offset_ = offset;
    last_addr_ = last_addr;
    last_pc_ = last_pc;
    run_left_ = run_left;
    pending_ = pending;
    index_ += consumed;
    return produced;
}

void
MaterializedCursor::seek(Count index)
{
    if (index > trace_->size_)
        index = trace_->size_;
    Count sync = index / MaterializedTrace::kSyncInterval;
    if (sync >= trace_->syncs_.size())
        sync = trace_->syncs_.empty() ? 0 : trace_->syncs_.size() - 1;
    if (trace_->syncs_.empty()) {
        reset();
        return;
    }
    const MaterializedTrace::Sync &s =
        trace_->syncs_[static_cast<std::size_t>(sync)];
    offset_ = s.byteOffset;
    index_ = sync * MaterializedTrace::kSyncInterval;
    last_addr_ = s.lastAddr;
    last_pc_ = s.lastPc;
    run_left_ = 0; // items never span a sync point
    pending_ = -1;
    TraceRecord scratch;
    while (index_ < index)
        decodeOne(scratch);
}

} // namespace wbsim
