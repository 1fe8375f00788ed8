#include "core/config.hh"

#include <sstream>

#include "util/bits.hh"
#include "util/enum_names.hh"
#include "util/logging.hh"

namespace wbsim
{
namespace
{

constexpr EnumName<LoadHazardPolicy> kHazardNames[] = {
    {LoadHazardPolicy::FlushFull, "flush-full"},
    {LoadHazardPolicy::FlushPartial, "flush-partial"},
    {LoadHazardPolicy::FlushItemOnly, "flush-item-only"},
    {LoadHazardPolicy::ReadFromWB, "read-from-WB"},
};
static_assert(namesEvery(kHazardNames, LoadHazardPolicy::ReadFromWB));

constexpr EnumName<RetirementMode> kModeNames[] = {
    {RetirementMode::Occupancy, "occupancy"},
    {RetirementMode::FixedRate, "fixed-rate"},
    {RetirementMode::Paced, "paced"},
};
static_assert(namesEvery(kModeNames, RetirementMode::Paced));

constexpr EnumName<RetirementOrder> kOrderNames[] = {
    {RetirementOrder::Fifo, "fifo"},
    {RetirementOrder::FullestFirst, "fullest-first"},
};
static_assert(namesEvery(kOrderNames, RetirementOrder::FullestFirst));

constexpr EnumName<BufferKind> kKindNames[] = {
    {BufferKind::WriteBuffer, "write-buffer"},
    {BufferKind::WriteCache, "write-cache"},
};
static_assert(namesEvery(kKindNames, BufferKind::WriteCache));

} // namespace

const char *
loadHazardPolicyName(LoadHazardPolicy policy)
{
    return nameOf(kHazardNames, policy);
}

LoadHazardPolicy
parseLoadHazardPolicy(std::string_view name)
{
    return parseName(kHazardNames, name, "load-hazard policy");
}

const char *
retirementModeName(RetirementMode mode)
{
    return nameOf(kModeNames, mode);
}

RetirementMode
parseRetirementMode(std::string_view name)
{
    return parseName(kModeNames, name, "retirement mode");
}

const char *
retirementOrderName(RetirementOrder order)
{
    return nameOf(kOrderNames, order);
}

RetirementOrder
parseRetirementOrder(std::string_view name)
{
    return parseName(kOrderNames, name, "retirement order");
}

const char *
bufferKindName(BufferKind kind)
{
    return nameOf(kKindNames, kind);
}

BufferKind
parseBufferKind(std::string_view name)
{
    return parseName(kKindNames, name, "store-buffer kind");
}

bool
tryParseLoadHazardPolicy(std::string_view name, LoadHazardPolicy &out)
{
    return tryParseName(kHazardNames, name, out);
}

bool
tryParseRetirementMode(std::string_view name, RetirementMode &out)
{
    return tryParseName(kModeNames, name, out);
}

bool
tryParseRetirementOrder(std::string_view name, RetirementOrder &out)
{
    return tryParseName(kOrderNames, name, out);
}

bool
tryParseBufferKind(std::string_view name, BufferKind &out)
{
    return tryParseName(kKindNames, name, out);
}

unsigned
WriteBufferConfig::headroom() const
{
    return depth >= highWaterMark ? depth - highWaterMark : 0;
}

void
WriteBufferConfig::validate() const
{
    if (std::string error = validationError(); !error.empty())
        wbsim_fatal(error);
}

std::string
WriteBufferConfig::validationError() const
{
    // Plain returns: a valid config (every served cell, every
    // Simulator) builds no message.
    if (depth == 0)
        return "write buffer depth must be at least 1";
    if (!isPowerOfTwo(entryBytes) || !isPowerOfTwo(wordBytes))
        return "write buffer entry and word sizes must be powers of two";
    if (wordBytes > entryBytes)
        return "write buffer word larger than entry";
    if (wordsPerEntry() > 32)
        return "write buffer entries support at most 32 words";
    const bool thresholdOutOfRange =
        highWaterMark < 1 || highWaterMark > depth;
    // Built left to right (GCC 12 -Wrestrict on literal + string).
    auto thresholdError = [this](const char *what) {
        std::string error(what);
        error.append(std::to_string(highWaterMark))
            .append(" requires 1 <= N <= depth (depth=")
            .append(std::to_string(depth))
            .append(")");
        return error;
    };
    if (retirementMode == RetirementMode::Occupancy && thresholdOutOfRange)
        return thresholdError("retire-at-");
    if (retirementMode == RetirementMode::FixedRate && fixedRatePeriod == 0)
        return "fixed-rate retirement needs a non-zero period";
    if (retirementMode == RetirementMode::Paced) {
        if (thresholdOutOfRange)
            return thresholdError("paced retirement at ");
        if (pacedRefillPeriod == 0)
            return "paced retirement needs a non-zero refill period";
        if (pacedBurst == 0)
            return "paced retirement needs a token bucket of at least 1";
    }
    if (writePriorityThreshold > depth)
        return "write-priority threshold exceeds buffer depth";
    return "";
}

std::string
WriteBufferConfig::describe() const
{
    std::ostringstream os;
    if (kind == BufferKind::WriteCache)
        os << "write-cache/";
    os << depth << "-deep/";
    if (!coalescing)
        os << "non-coalescing/";
    if (retirementMode == RetirementMode::Occupancy)
        os << "retire-at-" << highWaterMark;
    else if (retirementMode == RetirementMode::FixedRate)
        os << "fixed-rate-" << fixedRatePeriod;
    else
        os << "paced-" << pacedRefillPeriod << "x" << pacedBurst
           << "-at-" << highWaterMark;
    if (retirementOrder != RetirementOrder::Fifo)
        os << "/" << retirementOrderName(retirementOrder);
    if (ageTimeout)
        os << "/timeout-" << ageTimeout;
    os << "/" << loadHazardPolicyName(hazardPolicy);
    if (writePriorityThreshold)
        os << "/write-priority-at-" << writePriorityThreshold;
    return os.str();
}

} // namespace wbsim
