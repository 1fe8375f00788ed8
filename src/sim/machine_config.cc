#include "sim/machine_config.hh"

#include <bit>
#include <sstream>
#include <type_traits>

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace wbsim
{

namespace
{

/** A visitor that mixes each listed field of @p record into @p h,
 *  a nested record's fields in its own list order. */
template <typename Record>
auto
fieldHasher(std::uint64_t &h, const Record &record)
{
    return [&h, &record](const char *, auto member, auto...) {
        const auto &value = record.*member;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_class_v<T>)
            T::forEachField(fieldHasher(h, value));
        else if constexpr (std::is_floating_point_v<T>)
            h = hashCombine(h, std::bit_cast<std::uint64_t>(value));
        else
            h = hashCombine(h, static_cast<std::uint64_t>(value));
    };
}

} // namespace

std::uint64_t
MachineConfig::stateFingerprint() const
{
    std::uint64_t h = 0x77b51aceull; // domain tag
    forEachField(fieldHasher(h, *this));
    // Topology mixes in only for multi-core machines: every
    // single-core fingerprint (embedded in golden artifacts,
    // provenance headers, and serve cache keys) is unchanged, while
    // multi-core cells can never alias a cached single-core cell.
    if (cores != 1) {
        h = hashCombine(h, 0x6d756c7469636f72ull); // topology tag
        forEachTopologyField(fieldHasher(h, *this));
    }
    return h;
}

Cycle
MachineConfig::l2TransferCycles() const
{
    // The base latency moves the first datapath beat; additional
    // beats add one cycle each.
    std::uint64_t beats = divCeil(l1d.lineBytes, l2DatapathBytes);
    return l2Latency + (beats - 1);
}

void
MachineConfig::validate() const
{
    if (std::string error = validationError(); !error.empty())
        wbsim_fatal(error);
}

std::string
MachineConfig::validationError() const
{
    if (std::string error = l1d.validationError("L1D");
        !error.empty())
        return error;
    if (!perfectICache) {
        if (std::string error = l1i.validationError("L1I");
            !error.empty())
            return error;
    }
    if (!perfectL2) {
        if (std::string error = l2.validationError("L2");
            !error.empty())
            return error;
        if (l2.lineBytes != l1d.lineBytes)
            return "L1 and L2 line sizes must match (strict inclusion "
                   "model)";
        if (l2.sizeBytes < l1d.sizeBytes)
            return "L2 smaller than L1 breaks inclusion";
    }
    if (l2Latency == 0)
        return "L2 latency must be positive";
    if (memLatency == 0)
        return "memory latency must be positive";
    if (l2DatapathBytes == 0 || !isPowerOfTwo(l2DatapathBytes))
        return "L2 datapath width must be a power of two";
    if (issueWidth == 0)
        return "issue width must be positive";
    if (bubbleProbability < 0.0 || bubbleProbability > 1.0)
        return "bubble probability out of range";
    if (std::string error = writeBuffer.validationError();
        !error.empty())
        return error;
    if (cores == 0)
        return "core count must be positive";
    if (cores > 64)
        return "core count above 64 is not supported";
    return "";
}

std::string
MachineConfig::describe() const
{
    std::ostringstream os;
    os << "L1D=" << l1d.sizeBytes / 1024 << "K";
    if (l1WriteAllocate)
        os << "+wa";
    if (!perfectICache)
        os << "/L1I=" << l1i.sizeBytes / 1024 << "K";
    if (perfectL2)
        os << "/L2=perfect";
    else
        os << "/L2=" << l2.sizeBytes / 1024 << "K,mem=" << memLatency;
    os << ",lat=" << l2Latency;
    if (issueWidth != 1)
        os << "/issue=" << issueWidth;
    os << "/" << writeBuffer.describe();
    if (cores != 1)
        os << "/cores=" << cores << ",bus="
           << busDisciplineName(busDiscipline);
    return os.str();
}

} // namespace wbsim
