/**
 * @file
 * Full machine configuration: the paper's Table 1 parameters, the
 * write buffer (Table 2), and the §4 sensitivity/extension knobs.
 */

#ifndef WBSIM_SIM_MACHINE_CONFIG_HH
#define WBSIM_SIM_MACHINE_CONFIG_HH

#include <string>

#include "core/config.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "util/types.hh"

namespace wbsim
{

/** Configuration of the simulated machine. */
struct MachineConfig
{
    /** L1 data cache: 8K direct-mapped, 32B lines, write-through,
     *  write-around (Table 1). Size varies in Figure 10. */
    CacheGeometry l1d{8 * 1024, 32, 1};

    /** Perfect I-cache by default (Table 1); real mode is the §4.3
     *  L2-I-fetch extension. */
    bool perfectICache = true;
    CacheGeometry l1i{8 * 1024, 32, 1};

    /** Perfect L2 by default (Table 1); real sizes in Figure 12.
     *  The paper does not state an L2 associativity; we default to
     *  4-way (documented substitution, DESIGN.md §3). */
    bool perfectL2 = true;
    CacheGeometry l2{1024 * 1024, 32, 4};

    /** L2 access latency; 6 in the baseline, varied in Figure 11. */
    Cycle l2Latency = 6;

    /** Main memory latency; 25 or 50 in Figure 13. */
    Cycle memLatency = 25;

    /** Bytes transferred to/from L2 per cycle beat. A full line in
     *  the baseline; half-line datapaths (§4.3) make every transfer
     *  longer. */
    unsigned l2DatapathBytes = 32;

    /** Instructions issued per cycle (§4.3 superscalar knob). */
    unsigned issueWidth = 1;

    /** Probability of a one-cycle pipeline bubble after an
     *  instruction (§4.3 data-dependency knob). */
    double bubbleProbability = 0.0;

    /**
     * L1 write-miss policy: false = write-around (the paper's
     * machine, Table 1), true = write-allocate (fetch the line
     * through L2 on a store miss, then write it). The
     * cache-write-policy axis of Jouppi's study the paper builds
     * on; ablation A14.
     */
    bool l1WriteAllocate = false;

    /** The write buffer (Table 2). */
    WriteBufferConfig writeBuffer;

    /**
     * Cores sharing the L2 through the arbitrated bus. 1 (the
     * paper's machine) keeps the legacy private-port path, bit for
     * bit; above 1 every core gets its own L1s + store buffer and
     * all L2 traffic serialises through a BusArbiter (DESIGN.md
     * §14).
     */
    unsigned cores = 1;

    /** Bus service discipline; only meaningful when cores > 1 (a
     *  single core never contends, so the field is inert — and
     *  excluded from the fingerprint — at cores == 1). */
    BusDiscipline busDiscipline = BusDiscipline::Fcfs;

    /** Every field but the topology, once, in wire and fingerprint
     *  order, as visit(wire key, member). */
    template <typename Visit>
    static void
    forEachField(Visit &&visit)
    {
        using M = MachineConfig;
        visit("l1d", &M::l1d);
        visit("perfect_icache", &M::perfectICache);
        visit("l1i", &M::l1i);
        visit("perfect_l2", &M::perfectL2);
        visit("l2", &M::l2);
        visit("l2_latency", &M::l2Latency);
        visit("mem_latency", &M::memLatency);
        visit("l2_datapath_bytes", &M::l2DatapathBytes);
        visit("issue_width", &M::issueWidth);
        visit("bubble_probability", &M::bubbleProbability);
        visit("l1_write_allocate", &M::l1WriteAllocate);
        visit("write_buffer", &M::writeBuffer);
    }

    /** The topology fields. They are hashed behind a tag and written
     *  only when cores != 1, so every single-core fingerprint and
     *  payload predates them; a decoder always accepts them. */
    template <typename Visit>
    static void
    forEachTopologyField(Visit &&visit)
    {
        visit("cores", &MachineConfig::cores);
        visit("bus_discipline", &MachineConfig::busDiscipline,
              busDisciplineName, tryParseBusDiscipline);
    }

    /** Cycles one L2 transfer occupies the port. */
    Cycle l2TransferCycles() const;

    /**
     * Hash of every field. In this simulator timing feeds back into
     * functional state (retirement timing decides coalescing, which
     * decides the L2 write stream), so *every* field can affect the
     * machine state reached after a warmup prefix; the grid runner
     * therefore keys warm-state checkpoint reuse on this full
     * fingerprint, and Simulator::restore() uses it as a
     * compatibility check.
     */
    std::uint64_t stateFingerprint() const;

    /** fatal() on inconsistent parameters. */
    void validate() const;

    /** Non-fatal validate(): the first inconsistency, or "" when the
     *  configuration is sound. wbsim-serve validates every
     *  network-supplied machine through this before simulating. */
    std::string validationError() const;

    /** Short identity for reports. */
    std::string describe() const;
};

} // namespace wbsim

#endif // WBSIM_SIM_MACHINE_CONFIG_HH
