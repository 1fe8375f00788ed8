#include "harness/figures.hh"

#include <string>

namespace wbsim::figures
{

namespace
{

/** Variant helper. */
ConfigVariant
variant(std::string label, const MachineConfig &machine)
{
    return ConfigVariant{std::move(label), machine};
}

MachineConfig
withHazard(MachineConfig machine, LoadHazardPolicy policy)
{
    machine.writeBuffer.hazardPolicy = policy;
    return machine;
}

} // namespace

MachineConfig
baselineMachine()
{
    MachineConfig machine; // defaults are the paper's baseline
    return machine;
}

MachineConfig
baselinePlusMachine()
{
    MachineConfig machine = baselineMachine();
    machine.writeBuffer.depth = 12;
    return machine;
}

Experiment
figure03()
{
    Experiment exp;
    exp.id = "fig03";
    exp.title = "Write-Buffer-Induced Stall Cycles, Base Model";
    exp.subtitle = "4-deep, retire-at-2, flush-full";
    exp.variants = {variant("baseline", baselineMachine())};
    return exp;
}

Experiment
figure04()
{
    Experiment exp;
    exp.id = "fig04";
    exp.title = "Stall Cycles as a Function of Depth";
    exp.subtitle = "retire-at-2, flush-full, depth = 2-12";
    for (unsigned depth : {2u, 4u, 6u, 8u, 10u, 12u}) {
        MachineConfig machine = baselineMachine();
        machine.writeBuffer.depth = depth;
        exp.variants.push_back(
            variant(std::to_string(depth) + "-deep", machine));
    }
    return exp;
}

Experiment
figure05()
{
    Experiment exp;
    exp.id = "fig05";
    exp.title = "Stall Cycles as a Function of Retirement Policy";
    exp.subtitle = "12-deep, flush-full, retire-at-2 thru 10";
    for (unsigned mark : {2u, 4u, 6u, 8u, 10u}) {
        MachineConfig machine = baselinePlusMachine();
        machine.writeBuffer.highWaterMark = mark;
        exp.variants.push_back(
            variant("retire-at-" + std::to_string(mark), machine));
    }
    return exp;
}

namespace
{

Experiment
hazardPolicyExperiment(const std::string &id, unsigned mark)
{
    Experiment exp;
    exp.id = id;
    exp.title = "Stalls as a Function of Load-Hazard Policy";
    exp.subtitle = "12-deep, retire-at-" + std::to_string(mark);
    exp.variants.push_back(variant("baseline+", baselinePlusMachine()));
    MachineConfig lazy = baselinePlusMachine();
    lazy.writeBuffer.highWaterMark = mark;
    exp.variants.push_back(
        variant("flush-full",
                withHazard(lazy, LoadHazardPolicy::FlushFull)));
    exp.variants.push_back(
        variant("flush-partial",
                withHazard(lazy, LoadHazardPolicy::FlushPartial)));
    exp.variants.push_back(
        variant("flush-item-only",
                withHazard(lazy, LoadHazardPolicy::FlushItemOnly)));
    exp.variants.push_back(
        variant("read-from-WB",
                withHazard(lazy, LoadHazardPolicy::ReadFromWB)));
    return exp;
}

Experiment
headroomSweepExperiment(const std::string &id, LoadHazardPolicy policy)
{
    Experiment exp;
    exp.id = id;
    exp.title = std::string("Stall Cycles as a Function of Retirement "
                            "Policy with ")
        + loadHazardPolicyName(policy);
    exp.subtitle = "retire-at-2 thru 6, headroom fixed at 6 entries";
    exp.variants.push_back(variant("baseline+", baselinePlusMachine()));
    for (unsigned mark : {2u, 4u, 6u}) {
        MachineConfig machine = baselineMachine();
        machine.writeBuffer.depth = mark + 6; // headroom fixed at 6
        machine.writeBuffer.highWaterMark = mark;
        machine.writeBuffer.hazardPolicy = policy;
        exp.variants.push_back(
            variant("retire-at-" + std::to_string(mark), machine));
    }
    return exp;
}

} // namespace

Experiment
figure06()
{
    return hazardPolicyExperiment("fig06", 10);
}

Experiment
figure07()
{
    return hazardPolicyExperiment("fig07", 8);
}

Experiment
figure08()
{
    return headroomSweepExperiment("fig08", LoadHazardPolicy::FlushPartial);
}

Experiment
figure09()
{
    return headroomSweepExperiment("fig09",
                                   LoadHazardPolicy::FlushItemOnly);
}

Experiment
figure10()
{
    Experiment exp;
    exp.id = "fig10";
    exp.title = "Stall Cycles as a Function of Cache Size";
    exp.subtitle = "4-deep, retire-at-2, flush-full";
    for (unsigned kb : {8u, 16u, 32u}) {
        MachineConfig machine = baselineMachine();
        machine.l1d.sizeBytes = kb * 1024;
        exp.variants.push_back(
            variant(std::to_string(kb) + "k", machine));
    }
    return exp;
}

Experiment
figure11()
{
    Experiment exp;
    exp.id = "fig11";
    exp.title = "Stall Cycles as a Function of L2 Access Time";
    exp.subtitle = "4-deep, retire-at-2, flush-full";
    for (unsigned lat : {3u, 6u, 10u}) {
        MachineConfig machine = baselineMachine();
        machine.l2Latency = lat;
        exp.variants.push_back(
            variant(std::to_string(lat) + "-cycles", machine));
    }
    return exp;
}

Experiment
figure12()
{
    Experiment exp;
    exp.id = "fig12";
    exp.title = "Stall Cycles, Perfect and Real Caches";
    exp.subtitle = "4-deep, retire-at-2, flush-full; mem = 25";
    exp.variants.push_back(variant("perfect-L2", baselineMachine()));
    for (unsigned kb : {1024u, 512u, 128u}) {
        MachineConfig machine = baselineMachine();
        machine.perfectL2 = false;
        machine.l2.sizeBytes = std::uint64_t{kb} * 1024;
        machine.memLatency = 25;
        std::string label = kb >= 1024
            ? std::to_string(kb / 1024) + "M-L2"
            : std::to_string(kb) + "k-L2";
        exp.variants.push_back(variant(label, machine));
    }
    return exp;
}

Experiment
figure13()
{
    Experiment exp;
    exp.id = "fig13";
    exp.title = "Stall Cycles, Perfect and Real Caches (memory latency)";
    exp.subtitle = "4-deep, retire-at-2, flush-full; 1M L2";
    exp.variants.push_back(variant("perfect-L2", baselineMachine()));
    for (unsigned mem : {25u, 50u}) {
        MachineConfig machine = baselineMachine();
        machine.perfectL2 = false;
        machine.l2.sizeBytes = 1024 * 1024;
        machine.memLatency = mem;
        exp.variants.push_back(
            variant("1M-L2,mm=" + std::to_string(mem), machine));
    }
    return exp;
}

Experiment
ablationFixedRate()
{
    Experiment exp;
    exp.id = "abl01";
    exp.title = "Occupancy-based vs fixed-rate retirement";
    exp.subtitle = "8-deep, flush-full";
    MachineConfig occupancy = baselineMachine();
    occupancy.writeBuffer.depth = 8;
    exp.variants.push_back(variant("retire-at-2", occupancy));
    for (Cycle period : {4u, 8u, 16u, 32u}) {
        MachineConfig machine = occupancy;
        machine.writeBuffer.retirementMode = RetirementMode::FixedRate;
        machine.writeBuffer.fixedRatePeriod = period;
        exp.variants.push_back(
            variant("fixed-rate-" + std::to_string(period), machine));
    }
    return exp;
}

Experiment
ablationAgeTimeout()
{
    Experiment exp;
    exp.id = "abl02";
    exp.title = "Age-timeout retirement of lingering entries";
    exp.subtitle = "12-deep, retire-at-8, read-from-WB";
    MachineConfig base = baselinePlusMachine();
    base.writeBuffer.highWaterMark = 8;
    base.writeBuffer.hazardPolicy = LoadHazardPolicy::ReadFromWB;
    exp.variants.push_back(variant("no-timeout", base));
    for (Cycle timeout : {64u, 256u}) {
        MachineConfig machine = base;
        machine.writeBuffer.ageTimeout = timeout;
        exp.variants.push_back(
            variant("timeout-" + std::to_string(timeout), machine));
    }
    return exp;
}

Experiment
ablationWritePriority()
{
    Experiment exp;
    exp.id = "abl03";
    exp.title = "Pure read-bypassing vs UltraSPARC write priority";
    exp.subtitle = "8-deep, retire-at-2, flush-full";
    MachineConfig base = baselineMachine();
    base.writeBuffer.depth = 8;
    exp.variants.push_back(variant("read-bypass", base));
    for (unsigned threshold : {6u, 7u}) {
        MachineConfig machine = base;
        machine.writeBuffer.writePriorityThreshold = threshold;
        exp.variants.push_back(
            variant("priority-at-" + std::to_string(threshold),
                    machine));
    }
    return exp;
}

Experiment
ablationNonCoalescing()
{
    Experiment exp;
    exp.id = "abl04";
    exp.title = "Coalescing vs non-coalescing write buffer";
    exp.subtitle = "retire-at-2, flush-full";
    for (unsigned depth : {4u, 8u}) {
        MachineConfig machine = baselineMachine();
        machine.writeBuffer.depth = depth;
        exp.variants.push_back(
            variant("coalescing-" + std::to_string(depth), machine));
    }
    for (unsigned depth : {4u, 8u}) {
        MachineConfig machine = baselineMachine();
        machine.writeBuffer.depth = depth;
        machine.writeBuffer.coalescing = false;
        machine.writeBuffer.entryBytes = 8; // one word per entry
        machine.writeBuffer.wordBytes = 4;
        exp.variants.push_back(
            variant("one-word-" + std::to_string(depth), machine));
    }
    return exp;
}

Experiment
ablationWriteCache()
{
    Experiment exp;
    exp.id = "abl05";
    exp.title = "FIFO write buffer vs Jouppi write cache";
    exp.subtitle = "8 entries";
    MachineConfig buffer = baselineMachine();
    buffer.writeBuffer.depth = 8;
    exp.variants.push_back(variant("write-buffer", buffer));
    MachineConfig cache = buffer;
    cache.writeBuffer.kind = BufferKind::WriteCache;
    exp.variants.push_back(variant("write-cache", cache));
    MachineConfig cache_rd = cache;
    cache_rd.writeBuffer.hazardPolicy = LoadHazardPolicy::ReadFromWB;
    exp.variants.push_back(variant("write-cache+rdWB", cache_rd));
    return exp;
}

Experiment
ablationDatapath()
{
    Experiment exp;
    exp.id = "abl06";
    exp.title = "L2 datapath width";
    exp.subtitle = "4-deep, retire-at-2, flush-full";
    for (unsigned width : {32u, 16u, 8u}) {
        MachineConfig machine = baselineMachine();
        machine.l2DatapathBytes = width;
        exp.variants.push_back(
            variant(std::to_string(width) + "B-datapath", machine));
    }
    return exp;
}

Experiment
ablationIssueWidth()
{
    Experiment exp;
    exp.id = "abl07";
    exp.title = "Issue width and store density";
    exp.subtitle = "4-deep, retire-at-2, flush-full";
    for (unsigned width : {1u, 2u, 4u}) {
        MachineConfig machine = baselineMachine();
        machine.issueWidth = width;
        exp.variants.push_back(
            variant(std::to_string(width) + "-wide", machine));
    }
    return exp;
}

Experiment
ablationBubbles()
{
    Experiment exp;
    exp.id = "abl08";
    exp.title = "Pipeline bubbles spread out stores";
    exp.subtitle = "4-deep, retire-at-2, flush-full";
    for (double prob : {0.0, 0.2, 0.4}) {
        MachineConfig machine = baselineMachine();
        machine.bubbleProbability = prob;
        exp.variants.push_back(
            variant("bubbles-" + std::to_string(int(prob * 100)) + "%",
                    machine));
    }
    return exp;
}

Experiment
ablationICache()
{
    Experiment exp;
    exp.id = "abl09";
    exp.title = "Perfect vs real instruction cache";
    exp.subtitle = "4-deep, retire-at-2, flush-full; 8K I-cache";
    exp.variants.push_back(variant("perfect-I", baselineMachine()));
    MachineConfig machine = baselineMachine();
    machine.perfectICache = false;
    exp.variants.push_back(variant("8k-I", machine));
    return exp;
}

Experiment
ablationWbHitCost()
{
    Experiment exp;
    exp.id = "abl10";
    exp.title = "Cost of loads served from the write buffer";
    exp.subtitle = "12-deep, retire-at-8, read-from-WB";
    for (Cycle extra : {0u, 1u, 2u}) {
        MachineConfig machine = baselinePlusMachine();
        machine.writeBuffer.highWaterMark = 8;
        machine.writeBuffer.hazardPolicy = LoadHazardPolicy::ReadFromWB;
        machine.writeBuffer.wbHitExtraCycles = extra;
        std::string label = "+";
        label += std::to_string(extra) + "-cycles";
        exp.variants.push_back(variant(label, machine));
    }
    return exp;
}

Experiment
ablationEntryWidth()
{
    Experiment exp;
    exp.id = "abl11";
    exp.title = "Write buffer entry width (Table 2's Width parameter)";
    exp.subtitle = "8 entries, retire-at-2, flush-full, perfect L2";
    for (unsigned bytes : {8u, 16u, 32u, 64u}) {
        MachineConfig machine = baselineMachine();
        machine.writeBuffer.depth = 8;
        machine.writeBuffer.entryBytes = bytes;
        exp.variants.push_back(
            variant(std::to_string(bytes) + "B-entries", machine));
    }
    return exp;
}

Experiment
ablationRetireOrder()
{
    Experiment exp;
    exp.id = "abl13";
    exp.title = "Retirement order (Table 2's Retirement Order row)";
    exp.subtitle = "12-deep, retire-at-8, read-from-WB";
    for (RetirementOrder order :
         {RetirementOrder::Fifo, RetirementOrder::FullestFirst}) {
        MachineConfig machine = baselinePlusMachine();
        machine.writeBuffer.highWaterMark = 8;
        machine.writeBuffer.hazardPolicy = LoadHazardPolicy::ReadFromWB;
        machine.writeBuffer.retirementOrder = order;
        exp.variants.push_back(
            variant(retirementOrderName(order), machine));
    }
    return exp;
}

Experiment
ablationWriteAllocate()
{
    Experiment exp;
    exp.id = "abl14";
    exp.title = "L1 write-miss policy: write-around vs write-allocate";
    exp.subtitle = "4-deep, retire-at-2, flush-full";
    exp.variants.push_back(variant("write-around", baselineMachine()));
    MachineConfig machine = baselineMachine();
    machine.l1WriteAllocate = true;
    exp.variants.push_back(variant("write-allocate", machine));
    return exp;
}

Experiment
ablationPacing()
{
    Experiment exp;
    exp.id = "abl15";
    exp.title = "Bursty (evict-driven) vs paced (token-bucket) drain";
    exp.subtitle = "4-entry write cache, flush-full";
    // The write cache under occupancy mode is the burstiest drain in
    // the design space: it retires only on eviction, i.e. exactly
    // when a store is already stalled waiting for the entry. Paced
    // variants add a metered background drain (arming at the same
    // high-water mark a write buffer would use) that spreads the
    // same write traffic into the gaps between store bursts.
    MachineConfig bursty = baselineMachine();
    bursty.writeBuffer.kind = BufferKind::WriteCache;
    exp.variants.push_back(variant("evict-only", bursty));
    struct Knob { Cycle period; unsigned burst; };
    for (Knob knob : {Knob{8, 2}, Knob{16, 2}, Knob{32, 2}}) {
        MachineConfig machine = bursty;
        machine.writeBuffer.retirementMode = RetirementMode::Paced;
        machine.writeBuffer.pacedRefillPeriod = knob.period;
        machine.writeBuffer.pacedBurst = knob.burst;
        exp.variants.push_back(
            variant("paced-" + std::to_string(knob.period) + "x"
                        + std::to_string(knob.burst),
                    machine));
    }
    // The paper's FIFO buffer at the same geometry, for scale: its
    // retire-at-2 drain is already background-paced by occupancy.
    exp.variants.push_back(
        variant("wb-retire-at-2", baselineMachine()));
    return exp;
}

} // namespace wbsim::figures
