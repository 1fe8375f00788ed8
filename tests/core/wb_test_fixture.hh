/**
 * @file
 * Shared fixture for write-buffer unit tests: an L2 port, a
 * recording L2-write hook with fixed 6-cycle transfers, and helpers.
 */

#ifndef WBSIM_TESTS_CORE_WB_TEST_FIXTURE_HH
#define WBSIM_TESTS_CORE_WB_TEST_FIXTURE_HH

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/write_buffer.hh"
#include "mem/l2_port.hh"

namespace wbsim::test
{

/** One recorded L2 write from the buffer under test. */
struct RecordedWrite
{
    Addr base;
    unsigned validWords;
    unsigned totalWords;
    Cycle start;
};

/** Fixture owning the port, hook, and buffer under test. */
class WriteBufferFixture : public ::testing::Test
{
  protected:
    static constexpr Cycle kTransfer = 6;

    /** (Re)build the buffer under test with the given config. */
    void
    build(const WriteBufferConfig &config)
    {
        port = std::make_unique<L2Port>();
        writes.clear();
        auto hook = [this](Addr base, unsigned valid, unsigned total,
                           Cycle start) {
            writes.push_back({base, valid, total, start});
            return kTransfer;
        };
        buffer = std::make_unique<WriteBuffer>(config, *port, hook);
    }

    /** Baseline-ish config helper. */
    static WriteBufferConfig
    config(unsigned depth, unsigned mark,
           LoadHazardPolicy policy = LoadHazardPolicy::FlushFull)
    {
        WriteBufferConfig c;
        c.depth = depth;
        c.highWaterMark = mark;
        c.hazardPolicy = policy;
        return c;
    }

    /** Store returning the completion cycle. */
    Cycle
    store(Addr addr, Cycle now, unsigned size = 8)
    {
        return buffer->store(addr, size, now, stalls);
    }

    std::unique_ptr<L2Port> port;
    std::unique_ptr<WriteBuffer> buffer;
    std::vector<RecordedWrite> writes;
    StallStats stalls;
};

} // namespace wbsim::test

#endif // WBSIM_TESTS_CORE_WB_TEST_FIXTURE_HH
