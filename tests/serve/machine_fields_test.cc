/**
 * @file
 * Field coverage for the machine records: every MachineConfig,
 * WriteBufferConfig and CacheGeometry field must reach the state
 * fingerprint (a field left out would silently alias checkpoints and
 * stored served cells) and survive the wire codec. The fields and
 * their non-default values are written out by hand, independent of
 * the records' field lists.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "harness/figures.hh"
#include "serve/wire.hh"

namespace wbsim::serve
{
namespace
{

struct Knob
{
    const char *name;
    std::function<void(MachineConfig &)> set;
};

/** One non-default value per field. */
const std::vector<Knob> &
knobs()
{
    static const std::vector<Knob> all = {
        {"l1d.sizeBytes", [](auto &m) { m.l1d.sizeBytes = 16384; }},
        {"l1d.lineBytes", [](auto &m) { m.l1d.lineBytes = 64; }},
        {"l1d.associativity",
         [](auto &m) { m.l1d.associativity = 2; }},
        {"perfectICache", [](auto &m) { m.perfectICache = false; }},
        {"l1i.sizeBytes", [](auto &m) { m.l1i.sizeBytes = 16384; }},
        {"l1i.lineBytes", [](auto &m) { m.l1i.lineBytes = 64; }},
        {"l1i.associativity",
         [](auto &m) { m.l1i.associativity = 2; }},
        {"perfectL2", [](auto &m) { m.perfectL2 = false; }},
        {"l2.sizeBytes", [](auto &m) { m.l2.sizeBytes = 65536; }},
        {"l2.lineBytes", [](auto &m) { m.l2.lineBytes = 64; }},
        {"l2.associativity", [](auto &m) { m.l2.associativity = 8; }},
        {"l2Latency", [](auto &m) { m.l2Latency = 9; }},
        {"memLatency", [](auto &m) { m.memLatency = 50; }},
        {"l2DatapathBytes", [](auto &m) { m.l2DatapathBytes = 16; }},
        {"issueWidth", [](auto &m) { m.issueWidth = 2; }},
        {"bubbleProbability",
         [](auto &m) { m.bubbleProbability = 0.25; }},
        {"l1WriteAllocate", [](auto &m) { m.l1WriteAllocate = true; }},
        {"wb.kind",
         [](auto &m) { m.writeBuffer.kind = BufferKind::WriteCache; }},
        {"wb.depth", [](auto &m) { m.writeBuffer.depth = 8; }},
        {"wb.entryBytes", [](auto &m) { m.writeBuffer.entryBytes = 16; }},
        {"wb.wordBytes", [](auto &m) { m.writeBuffer.wordBytes = 8; }},
        {"wb.coalescing",
         [](auto &m) { m.writeBuffer.coalescing = false; }},
        {"wb.retirementMode",
         [](auto &m) {
             m.writeBuffer.retirementMode = RetirementMode::FixedRate;
         }},
        {"wb.retirementOrder",
         [](auto &m) {
             m.writeBuffer.retirementOrder = RetirementOrder::FullestFirst;
         }},
        {"wb.highWaterMark",
         [](auto &m) { m.writeBuffer.highWaterMark = 3; }},
        {"wb.fixedRatePeriod",
         [](auto &m) { m.writeBuffer.fixedRatePeriod = 16; }},
        {"wb.pacedRefillPeriod",
         [](auto &m) { m.writeBuffer.pacedRefillPeriod = 4; }},
        {"wb.pacedBurst", [](auto &m) { m.writeBuffer.pacedBurst = 3; }},
        {"wb.ageTimeout", [](auto &m) { m.writeBuffer.ageTimeout = 64; }},
        {"wb.hazardPolicy",
         [](auto &m) {
             m.writeBuffer.hazardPolicy = LoadHazardPolicy::ReadFromWB;
         }},
        {"wb.writePriorityThreshold",
         [](auto &m) { m.writeBuffer.writePriorityThreshold = 3; }},
        {"wb.wbHitExtraCycles",
         [](auto &m) { m.writeBuffer.wbHitExtraCycles = 1; }},
        {"wb.naiveScan", [](auto &m) { m.writeBuffer.naiveScan = true; }},
        {"wb.crossCheck",
         [](auto &m) { m.writeBuffer.crossCheck = true; }},
        {"cores", [](auto &m) { m.cores = 2; }},
        {"busDiscipline (2 cores)",
         [](auto &m) {
             m.cores = 2;
             m.busDiscipline = BusDiscipline::Priority;
         }},
    };
    return all;
}

MachineConfig
roundTrip(const MachineConfig &machine)
{
    std::string text;
    obs::JsonWriter json(text, 0);
    machineConfigToJson(json, machine);
    obs::JsonReader reader(text);
    std::string error;
    MachineConfig back;
    EXPECT_TRUE(reader.read(error, [&] {
        return machineConfigFromJson(reader, back, error);
    })) << error;
    return back;
}

TEST(MachineFields, EveryFieldReachesTheFingerprint)
{
    const MachineConfig base = figures::baselineMachine();
    std::set<std::uint64_t> seen = {base.stateFingerprint()};
    for (const Knob &knob : knobs()) {
        MachineConfig machine = base;
        knob.set(machine);
        // Distinct from the baseline and from every other knob.
        EXPECT_TRUE(seen.insert(machine.stateFingerprint()).second)
            << knob.name;
    }
    // busDiscipline is inert at one core (documented on the field;
    // MultiCoreFingerprint.TopologyIsPartOfTheIdentity checks it), so
    // its knob runs at two, where it must differ from "cores".
}

TEST(MachineFields, EveryFieldSurvivesTheWire)
{
    for (const Knob &knob : knobs()) {
        MachineConfig machine = figures::baselineMachine();
        knob.set(machine);
        MachineConfig back = roundTrip(machine);
        EXPECT_EQ(machine.stateFingerprint(), back.stateFingerprint())
            << knob.name;
        EXPECT_EQ(machine.describe(), back.describe()) << knob.name;
    }
}

TEST(MachineFields, FingerprintsArePinned)
{
    // The values these machines had before the field lists existed:
    // golden provenance headers and stored served cells key on them.
    MachineConfig machine = figures::baselineMachine();
    EXPECT_EQ(18002263267387902682ull, machine.stateFingerprint());
    machine.cores = 2;
    EXPECT_EQ(4428905933927527336ull, machine.stateFingerprint());
}

} // namespace
} // namespace wbsim::serve
