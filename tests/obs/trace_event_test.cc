/**
 * @file
 * Tests for the Chrome trace_event exporter: document shape, event
 * mapping from the EventLog, counter series from the Timeline, and
 * the empty-inputs case.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hh"
#include "obs/timeline.hh"
#include "obs/trace_event.hh"
#include "sim/event_log.hh"

namespace wbsim::obs
{
namespace
{

Provenance
testProvenance()
{
    return Provenance{.machineFingerprint = 7,
                      .machine = "m",
                      .seed = 1,
                      .instructions = 100,
                      .warmup = 0};
}

/** Events named @p name in the traceEvents array. */
std::vector<JsonValue>
eventsNamed(const JsonValue &doc, const std::string &name)
{
    std::vector<JsonValue> out;
    for (const JsonValue &e : doc.at("traceEvents").array())
        if (e.at("name").string() == name)
            out.push_back(e);
    return out;
}

TEST(TraceEvent, EmptyInputsStillProduceAValidDocument)
{
    std::ostringstream os;
    writeTraceEventJson(os, nullptr, nullptr, testProvenance());
    JsonValue doc = JsonValue::parse(os.str());
    EXPECT_EQ(doc.at("otherData").at("schema").string(),
              "wbsim-trace-event-v1");
    EXPECT_EQ(doc.at("provenance").at("machine_fingerprint").uint(),
              7u);
    // Only the process/track naming metadata remains.
    for (const JsonValue &e : doc.at("traceEvents").array())
        EXPECT_EQ(e.at("ph").string(), "M");
    EXPECT_FALSE(eventsNamed(doc, "process_name").empty());
}

TEST(TraceEvent, StallEventsBecomeSlices)
{
    EventLog log(16);
    log.record(100, SimEventKind::BufferFullStall, 0x40, 6, 0);
    log.record(200, SimEventKind::ReadAccessStall, 0x80, 9, 0);
    log.record(300, SimEventKind::Hazard, 0xC0, 12, 1);
    std::ostringstream os;
    writeTraceEventJson(os, &log, nullptr, testProvenance());
    JsonValue doc = JsonValue::parse(os.str());

    auto full = eventsNamed(doc, "buffer-full");
    ASSERT_EQ(full.size(), 1u);
    EXPECT_EQ(full[0].at("ph").string(), "X");
    EXPECT_EQ(full[0].at("ts").uint(), 100u);
    EXPECT_EQ(full[0].at("dur").uint(), 6u);
    EXPECT_EQ(full[0].at("args").at("addr").string(), "0x40");

    auto hazard = eventsNamed(doc, "hazard");
    ASSERT_EQ(hazard.size(), 1u);
    EXPECT_EQ(hazard[0].at("dur").uint(), 12u);
    EXPECT_TRUE(hazard[0].at("args").at("served_from_wb").boolean());
}

TEST(TraceEvent, AccessesAndWritesBecomeInstants)
{
    EventLog log(16);
    log.record(10, SimEventKind::Store, 0x100);
    log.record(20, SimEventKind::LoadMiss, 0x200);
    log.record(30, SimEventKind::WbWrite, 0x300, 4, 0);
    std::ostringstream os;
    writeTraceEventJson(os, &log, nullptr, testProvenance());
    JsonValue doc = JsonValue::parse(os.str());

    auto stores = eventsNamed(doc, "store");
    ASSERT_EQ(stores.size(), 1u);
    EXPECT_EQ(stores[0].at("ph").string(), "i");
    auto writes = eventsNamed(doc, "wb-write");
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].at("args").at("words").uint(), 4u);
    // Distinct tracks: cpu accesses vs wb writes.
    EXPECT_NE(stores[0].at("tid").uint(), writes[0].at("tid").uint());
}

TEST(TraceEvent, TimelineBecomesCounterSeries)
{
    Timeline timeline(100, 16);
    timeline.add(Channel::BufferFullStall, 1'050, 5);
    timeline.add(Channel::Stores, 1'050, 2);
    timeline.add(Channel::OccupancySum, 1'050, 6);
    timeline.add(Channel::WbWords, 1'150, 8);
    std::ostringstream os;
    writeTraceEventJson(os, nullptr, &timeline, testProvenance());
    JsonValue doc = JsonValue::parse(os.str());

    auto stalls = eventsNamed(doc, "stall cycles / epoch");
    ASSERT_EQ(stalls.size(), 2u);
    EXPECT_EQ(stalls[0].at("ph").string(), "C");
    EXPECT_EQ(stalls[0].at("ts").uint(), 1'050u); // the origin
    EXPECT_EQ(stalls[0].at("args").at("buffer_full").uint(), 5u);

    auto traffic = eventsNamed(doc, "wb traffic / epoch");
    ASSERT_EQ(traffic.size(), 2u);
    EXPECT_EQ(traffic[1].at("args").at("words").uint(), 8u);

    auto occupancy = eventsNamed(doc, "mean wb occupancy");
    ASSERT_EQ(occupancy.size(), 2u);
    EXPECT_DOUBLE_EQ(occupancy[0].at("args").at("occupancy").number(),
                     3.0);
    EXPECT_DOUBLE_EQ(occupancy[1].at("args").at("occupancy").number(),
                     0.0);

    EXPECT_EQ(doc.at("otherData").at("timeline_origin").uint(),
              1'050u);
}

TEST(TraceEvent, RecordsRingDropCounts)
{
    EventLog log(4);
    for (Cycle c = 1; c <= 10; ++c)
        log.record(c, SimEventKind::Store, c * 8);
    std::ostringstream os;
    writeTraceEventJson(os, &log, nullptr, testProvenance());
    JsonValue doc = JsonValue::parse(os.str());
    EXPECT_EQ(doc.at("otherData").at("events_recorded").uint(), 10u);
    EXPECT_EQ(doc.at("otherData").at("events_dropped").uint(), 6u);
    EXPECT_EQ(eventsNamed(doc, "store").size(), 4u);
}

} // namespace
} // namespace wbsim::obs
