/**
 * @file
 * Unit tests for the BusArbiter: discipline name round-trips, solo
 * degeneracy, FCFS vs fixed-priority ordering under a scripted
 * BusScheduler, multi-record scheduling steps, exhausted-core
 * handling, and the per-core accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/bus.hh"
#include "obs/timeline.hh"

namespace wbsim
{
namespace
{

TEST(BusDiscipline, NamesRoundTrip)
{
    EXPECT_STREQ(busDisciplineName(BusDiscipline::Fcfs), "fcfs");
    EXPECT_STREQ(busDisciplineName(BusDiscipline::Priority),
                 "priority");
    EXPECT_EQ(parseBusDiscipline("fcfs"), BusDiscipline::Fcfs);
    EXPECT_EQ(parseBusDiscipline("priority"),
              BusDiscipline::Priority);
    for (BusDiscipline discipline :
         {BusDiscipline::Fcfs, BusDiscipline::Priority})
        EXPECT_EQ(parseBusDiscipline(busDisciplineName(discipline)),
                  discipline);
}

TEST(BusDiscipline, TryParseRejectsUnknownNamesWithoutWriting)
{
    BusDiscipline out = BusDiscipline::Priority;
    EXPECT_FALSE(tryParseBusDiscipline("round-robin", out));
    EXPECT_EQ(out, BusDiscipline::Priority);
    EXPECT_TRUE(tryParseBusDiscipline("fcfs", out));
    EXPECT_EQ(out, BusDiscipline::Fcfs);
}

TEST(BusDisciplineDeathTest, ParseDiesOnUnknownName)
{
    EXPECT_DEATH(parseBusDiscipline("lottery"),
                 "unknown bus discipline");
}

TEST(BusArbiter, SoloGrantDegeneratesToMaxOfEarliestAndFreeAt)
{
    // One core, no scheduler: every grant is max(earliest, freeAt),
    // exactly the unattached L2Port busy-interval rule.
    BusArbiter bus(1, BusDiscipline::Fcfs);
    EXPECT_EQ(bus.acquire(0, L2Txn::Read, 10, 5), 10u);
    EXPECT_EQ(bus.freeAt(), 15u);
    // A request under the busy interval queues behind it...
    EXPECT_EQ(bus.acquire(0, L2Txn::WriteRetire, 12, 4), 15u);
    EXPECT_EQ(bus.freeAt(), 19u);
    // ...and one after it starts on time.
    EXPECT_EQ(bus.acquire(0, L2Txn::Read, 30, 2), 30u);

    const BusCoreStats &stats = bus.coreStats(0);
    EXPECT_EQ(stats.grants, 3u);
    EXPECT_EQ(stats.busyCycles, 11u);
    EXPECT_EQ(stats.waitCycles, 3u); // 15 - 12
    EXPECT_EQ(stats.contendedGrants, 1u);
    EXPECT_EQ(bus.totalGrants(), 3u);
    EXPECT_EQ(bus.totalBusyCycles(), 11u);
}

TEST(BusArbiter, BusyIntervalViewTracksTheCurrentTransaction)
{
    BusArbiter bus(2, BusDiscipline::Fcfs);
    bus.acquire(1, L2Txn::WriteRetire, 5, 10);
    EXPECT_TRUE(bus.busyAt(5));
    EXPECT_TRUE(bus.busyAt(14));
    EXPECT_FALSE(bus.busyAt(15));
    EXPECT_TRUE(bus.writeUnderwayAt(7));
    EXPECT_EQ(bus.kindAt(7), L2Txn::WriteRetire);
    EXPECT_EQ(bus.kindAt(20), L2Txn::None);
    EXPECT_EQ(bus.owner(), 1u);

    bus.acquire(0, L2Txn::Read, 20, 3);
    EXPECT_FALSE(bus.writeUnderwayAt(21));
    EXPECT_EQ(bus.kindAt(21), L2Txn::Read);
    EXPECT_EQ(bus.owner(), 0u);
}

/**
 * Scripted two-core rig: core 0 sits at a scripted clock and, when
 * the arbiter steps it, presents one scripted request of its own
 * before leaping past the causality horizon. This reproduces the
 * co-simulation re-entrancy (acquire inside a scheduling step)
 * without a full MultiCoreSystem.
 */
struct ScriptedRival final : BusScheduler
{
    BusArbiter bus;
    Cycle clock[2] = {0, 0};
    L2Txn rivalKind = L2Txn::Read;
    Cycle rivalEarliest = 0;
    Cycle rivalDuration = 0;
    Cycle rivalStart = 0; //!< grant instant core 0 received
    bool rivalRequested = false;

    explicit ScriptedRival(BusDiscipline discipline)
        : bus(2, discipline)
    {
        bus.setScheduler(this);
    }
    ScriptedRival(const ScriptedRival &) = delete;
    ScriptedRival &operator=(const ScriptedRival &) = delete;

    const Cycle *clocks() const override { return clock; }

    void
    advance(unsigned core) override
    {
        EXPECT_EQ(core, 0u); // only core 0 is ever stepped here
        if (rivalRequested) {
            clock[0] = kExhausted;
            return;
        }
        rivalRequested = true;
        clock[0] = rivalEarliest;
        rivalStart = bus.acquire(0, rivalKind, rivalEarliest,
                                 rivalDuration);
        clock[0] = 1'000'000; // past any horizon
    }
};

TEST(BusArbiter, FcfsGrantsTheEarlierRequestFirst)
{
    // Core 1 requests [20, 30); stepping core 0 surfaces a rival
    // request at cycle 5. FCFS serves the earlier request time:
    // core 0 gets [5, 15), core 1 queues to 20 (its own earliest).
    ScriptedRival rig(BusDiscipline::Fcfs);
    rig.rivalEarliest = 5;
    rig.rivalDuration = 10;
    Cycle start = rig.bus.acquire(1, L2Txn::Read, 20, 10);
    EXPECT_EQ(rig.rivalStart, 5u);
    EXPECT_EQ(start, 20u);
    EXPECT_EQ(rig.bus.coreStats(0).grants, 1u);
    EXPECT_EQ(rig.bus.coreStats(1).grants, 1u);
    EXPECT_EQ(rig.bus.coreStats(1).waitCycles, 0u);
}

TEST(BusArbiter, FcfsQueuesTheLaterRequestBehindTheEarlier)
{
    // Rival at cycle 5 for 30 cycles: core 1's request at 20 must
    // wait for the bus to free at 35.
    ScriptedRival rig(BusDiscipline::Fcfs);
    rig.rivalEarliest = 5;
    rig.rivalDuration = 30;
    Cycle start = rig.bus.acquire(1, L2Txn::Read, 20, 10);
    EXPECT_EQ(rig.rivalStart, 5u);
    EXPECT_EQ(start, 35u);
    EXPECT_EQ(rig.bus.coreStats(1).waitCycles, 15u);
    EXPECT_EQ(rig.bus.coreStats(1).contendedGrants, 1u);
}

TEST(BusArbiter, PriorityGrantsCoreZeroOverAnEarlierRequest)
{
    // Core 1 asks first (cycle 5); stepping core 0 surfaces a rival
    // at cycle 8. Fixed priority serves core 0 first even though
    // its request is later: core 0 gets [8, 12), core 1 queues to
    // 12. FCFS would have granted core 1 at 5.
    ScriptedRival rig(BusDiscipline::Priority);
    rig.rivalEarliest = 8;
    rig.rivalDuration = 4;
    Cycle start = rig.bus.acquire(1, L2Txn::Read, 5, 10);
    EXPECT_EQ(rig.rivalStart, 8u);
    EXPECT_EQ(start, 12u);
    EXPECT_EQ(rig.bus.coreStats(1).waitCycles, 7u);
    EXPECT_EQ(rig.bus.coreStats(1).contendedGrants, 1u);
}

TEST(BusArbiter, FcfsBreaksEqualRequestTimesByArrivalOrder)
{
    // Rival surfaces a request with the same earliest cycle as the
    // outer one. Core 1 registered first (lower seq), so FCFS
    // grants it first and the rival queues.
    ScriptedRival rig(BusDiscipline::Fcfs);
    rig.rivalEarliest = 20;
    rig.rivalDuration = 10;
    Cycle start = rig.bus.acquire(1, L2Txn::Read, 20, 10);
    EXPECT_EQ(start, 20u);
    EXPECT_EQ(rig.rivalStart, 30u);
}

TEST(BusArbiter, ExhaustedCoresStopBeingStepped)
{
    // A step that finds its source dry publishes kExhausted; the
    // arbiter must grant without the core and never ask again.
    struct DrySources final : BusScheduler
    {
        Cycle clock[2] = {0, 0};
        unsigned steps = 0;
        const Cycle *clocks() const override { return clock; }
        void
        advance(unsigned core) override
        {
            ++steps;
            clock[core] = kExhausted;
        }
    } dry;
    BusArbiter bus(2, BusDiscipline::Fcfs);
    bus.setScheduler(&dry);
    EXPECT_EQ(bus.acquire(1, L2Txn::Read, 10, 5), 10u);
    EXPECT_EQ(dry.steps, 1u);
    EXPECT_EQ(bus.acquire(1, L2Txn::Read, 20, 5), 20u);
    EXPECT_EQ(dry.steps, 1u); // not asked again
}

/**
 * Scripted N-core rig with multi-record steps. Each core replays a
 * script of records: a private record only moves the core's clock,
 * a bus record requests the bus at the core's pre-record clock and
 * holds the core until its transaction ends. Batched, a step that
 * starts at a bus record runs it first, and every step runs the
 * private records that follow, stopping before the next bus record;
 * per-record, a step runs one record — MultiCoreSystem's two
 * schedules in miniature.
 */
struct ScriptedCores final : BusScheduler
{
    struct Record
    {
        Cycle until = 0;       //!< private: clock after the record
        bool bus = false;
        L2Txn kind = L2Txn::Read;
        Cycle duration = 0;    //!< bus: transaction length
    };

    BusArbiter bus;
    std::vector<std::vector<Record>> scripts;
    std::vector<std::size_t> next;
    std::vector<Cycle> clock;
    std::vector<std::vector<Cycle>> starts; //!< grants per core
    bool batched;
    unsigned steps = 0;

    ScriptedCores(unsigned cores, BusDiscipline discipline,
                  bool batchedSteps)
        : bus(cores, discipline), scripts(cores), next(cores, 0),
          clock(cores, 0), starts(cores), batched(batchedSteps)
    {
        bus.setScheduler(this);
    }
    ScriptedCores(const ScriptedCores &) = delete;
    ScriptedCores &operator=(const ScriptedCores &) = delete;

    static Record privateTo(Cycle until) { return {until}; }
    static Record
    request(L2Txn kind, Cycle duration)
    {
        return {0, true, kind, duration};
    }

    const Cycle *clocks() const override { return clock.data(); }

    void
    advance(unsigned core) override
    {
        ++steps;
        const std::vector<Record> &script = scripts[core];
        std::size_t &k = next[core];
        if (k == script.size()) {
            clock[core] = kExhausted;
            return;
        }
        if (script[k].bus) {
            const Record &r = script[k++];
            Cycle start = bus.acquire(core, r.kind, clock[core],
                                      r.duration);
            starts[core].push_back(start);
            clock[core] = start + r.duration;
            if (!batched)
                return;
        }
        while (k < script.size() && !script[k].bus) {
            clock[core] = script[k++].until;
            if (!batched)
                return;
        }
    }
};

/** Core 2 holds the bus to 25, then asks at 30; cores 0 and 1 each
 *  run private records up to cycle 20 and then request the bus at
 *  20 — the same instant, so FCFS falls back to arrival order. */
void
runTieScript(ScriptedCores &rig)
{
    using R = ScriptedCores;
    rig.scripts[0] = {R::privateTo(6), R::privateTo(14),
                      R::privateTo(20), R::request(L2Txn::Read, 4),
                      R::privateTo(100)};
    rig.scripts[1] = {R::privateTo(9), R::privateTo(20),
                      R::request(L2Txn::WriteRetire, 3),
                      R::privateTo(200)};
    rig.clock[2] = R::kExhausted; // core 2 is driven from the test
    rig.starts[2].push_back(rig.bus.acquire(2, L2Txn::Read, 0, 25));
    rig.starts[2].push_back(rig.bus.acquire(2, L2Txn::Read, 30, 5));
}

TEST(BusArbiter, MultiRecordStepsKeepThePerRecordGrantOrder)
{
    ScriptedCores batched(3, BusDiscipline::Fcfs, true);
    ScriptedCores single(3, BusDiscipline::Fcfs, false);
    runTieScript(batched);
    runTieScript(single);

    // Core 2's request at 30 opens a window to 30: both rivals reach
    // their bus records at 20, core 0 first (lowest id on the clock
    // tie). Its nested window (to the bus-free instant 25) steps
    // core 1 into a second request at 20; equal request times go by
    // arrival seq, so core 0 gets [25, 29), core 1 [29, 32), and
    // core 2 queues to 32 once core 0's tail has run past it.
    for (const ScriptedCores *rig : {&batched, &single}) {
        EXPECT_EQ(rig->starts[0], std::vector<Cycle>({25}));
        EXPECT_EQ(rig->starts[1], std::vector<Cycle>({29}));
        EXPECT_EQ(rig->starts[2], std::vector<Cycle>({0, 32}));
        EXPECT_EQ(rig->clock[0], 100u);
    }
    // Per record, core 1's private tail never had to run; batched, it
    // rode along with the request's step. Neither moves a grant.
    EXPECT_EQ(single.clock[1], 32u);
    EXPECT_EQ(batched.clock[1], 200u);
    for (unsigned core = 0; core < 3; ++core)
        EXPECT_EQ(batched.bus.coreStats(core),
                  single.bus.coreStats(core));
    EXPECT_EQ(batched.bus.coreStats(1).waitCycles, 9u);
    // The batched rig covered the private records in fewer steps.
    EXPECT_LT(batched.steps, single.steps);
}

TEST(BusArbiter, TimelineReceivesBusOccupancy)
{
    BusArbiter bus(1, BusDiscipline::Fcfs);
    obs::Timeline timeline(100, 8);
    bus.attachTimeline(&timeline);
    bus.acquire(0, L2Txn::Read, 0, 7);
    bus.acquire(0, L2Txn::WriteRetire, 10, 3);
    EXPECT_EQ(timeline.total(obs::Channel::BusBusy), 10u);
}

TEST(BusArbiter, ResetStatsKeepsTheBusyInterval)
{
    BusArbiter bus(1, BusDiscipline::Fcfs);
    bus.acquire(0, L2Txn::Read, 0, 10);
    bus.resetStats();
    EXPECT_EQ(bus.coreStats(0).grants, 0u);
    EXPECT_EQ(bus.totalBusyCycles(), 0u);
    // Machine state survives the measurement boundary: the next
    // request still queues behind the in-flight transaction.
    EXPECT_EQ(bus.freeAt(), 10u);
    EXPECT_EQ(bus.acquire(0, L2Txn::Read, 4, 2), 10u);
}

} // namespace
} // namespace wbsim
