/**
 * @file
 * Every validation message of MachineConfig, WriteBufferConfig and
 * CacheGeometry, pinned by string equality: wbsim-serve sends them to
 * clients as a rejected cell's error, and the messages are built only
 * when a config fails, so each one is checked here as written.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/machine_config.hh"

namespace wbsim
{
namespace
{

struct Case
{
    const char *message;
    std::function<void(MachineConfig &)> breakIt;
};

/** One broken machine per message, each from the valid baseline. */
const std::vector<Case> &
machineCases()
{
    static const std::vector<Case> cases = {
        {"L1D: cache size, line size and associativity must be powers of two",
         [](auto &m) { m.l1d.sizeBytes = 3000; }},
        {"L1D: cache smaller than one set",
         [](auto &m) { m.l1d.sizeBytes = 16; }},
        {"L1D: cache lines must be at least 4 bytes",
         [](auto &m) { m.l1d.lineBytes = 2; }},
        {"L1I: cache size, line size and associativity must be powers of two",
         [](auto &m) {
             m.perfectICache = false;
             m.l1i.associativity = 3;
         }},
        {"L2: cache smaller than one set",
         [](auto &m) {
             m.perfectL2 = false;
             m.l2.sizeBytes = 32;
             m.l2.associativity = 2;
         }},
        {"L1 and L2 line sizes must match (strict inclusion model)",
         [](auto &m) {
             m.perfectL2 = false;
             m.l2.lineBytes = 64;
         }},
        {"L2 smaller than L1 breaks inclusion",
         [](auto &m) {
             m.perfectL2 = false;
             m.l2.sizeBytes = 4096;
         }},
        {"L2 latency must be positive", [](auto &m) { m.l2Latency = 0; }},
        {"memory latency must be positive",
         [](auto &m) { m.memLatency = 0; }},
        {"L2 datapath width must be a power of two",
         [](auto &m) { m.l2DatapathBytes = 12; }},
        {"L2 datapath width must be a power of two",
         [](auto &m) { m.l2DatapathBytes = 0; }},
        {"issue width must be positive", [](auto &m) { m.issueWidth = 0; }},
        {"bubble probability out of range",
         [](auto &m) { m.bubbleProbability = 1.5; }},
        {"bubble probability out of range",
         [](auto &m) { m.bubbleProbability = -0.25; }},
        {"write buffer depth must be at least 1",
         [](auto &m) { m.writeBuffer.depth = 0; }},
        {"write buffer entry and word sizes must be powers of two",
         [](auto &m) { m.writeBuffer.entryBytes = 24; }},
        {"write buffer entry and word sizes must be powers of two",
         [](auto &m) { m.writeBuffer.wordBytes = 6; }},
        {"write buffer word larger than entry",
         [](auto &m) { m.writeBuffer.wordBytes = 64; }},
        {"write buffer entries support at most 32 words",
         [](auto &m) {
             m.writeBuffer.entryBytes = 512;
             m.writeBuffer.wordBytes = 4;
         }},
        {"retire-at-0 requires 1 <= N <= depth (depth=4)",
         [](auto &m) { m.writeBuffer.highWaterMark = 0; }},
        {"retire-at-9 requires 1 <= N <= depth (depth=4)",
         [](auto &m) { m.writeBuffer.highWaterMark = 9; }},
        {"fixed-rate retirement needs a non-zero period",
         [](auto &m) {
             m.writeBuffer.retirementMode = RetirementMode::FixedRate;
             m.writeBuffer.fixedRatePeriod = 0;
         }},
        {"paced retirement at 12 requires 1 <= N <= depth (depth=8)",
         [](auto &m) {
             m.writeBuffer.retirementMode = RetirementMode::Paced;
             m.writeBuffer.depth = 8;
             m.writeBuffer.highWaterMark = 12;
         }},
        {"paced retirement needs a non-zero refill period",
         [](auto &m) {
             m.writeBuffer.retirementMode = RetirementMode::Paced;
             m.writeBuffer.pacedRefillPeriod = 0;
         }},
        {"paced retirement needs a token bucket of at least 1",
         [](auto &m) {
             m.writeBuffer.retirementMode = RetirementMode::Paced;
             m.writeBuffer.pacedBurst = 0;
         }},
        {"write-priority threshold exceeds buffer depth",
         [](auto &m) { m.writeBuffer.writePriorityThreshold = 5; }},
        // "write buffer entries wider than a line must be a multiple
        // of the line size" cannot be reached: both sizes must already
        // be powers of two, and a wider one is then a multiple.
        {"core count must be positive", [](auto &m) { m.cores = 0; }},
        {"core count above 64 is not supported",
         [](auto &m) { m.cores = 65; }},
    };
    return cases;
}

TEST(ValidationMessages, EveryMachineMessageAsWritten)
{
    ASSERT_EQ("", MachineConfig().validationError());
    for (const Case &c : machineCases()) {
        MachineConfig machine;
        c.breakIt(machine);
        EXPECT_EQ(c.message, machine.validationError()) << c.message;
    }
}

TEST(ValidationMessages, WriteBufferAndCacheMessagesAlone)
{
    // Straight from the records, without the machine's checks around
    // them.
    WriteBufferConfig buffer;
    EXPECT_EQ("", buffer.validationError());
    buffer.retirementMode = RetirementMode::Paced;
    buffer.highWaterMark = 0;
    EXPECT_EQ("paced retirement at 0 requires 1 <= N <= depth (depth=4)",
              buffer.validationError());
    buffer.highWaterMark = 4;
    EXPECT_EQ("", buffer.validationError());

    CacheGeometry cache;
    EXPECT_EQ("", cache.validationError("L2"));
    cache.associativity = 0;
    EXPECT_EQ("L2: cache size, line size and associativity must be powers "
              "of two",
              cache.validationError("L2"));
}

TEST(ValidationMessages, AValidMachineStaysValidUnderEveryMode)
{
    for (RetirementMode mode : {RetirementMode::Occupancy,
                                RetirementMode::FixedRate,
                                RetirementMode::Paced}) {
        MachineConfig machine;
        machine.writeBuffer.retirementMode = mode;
        EXPECT_EQ("", machine.validationError());
    }
}

} // namespace
} // namespace wbsim
