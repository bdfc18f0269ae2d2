/**
 * @file
 * The Xylem virtual-memory model.
 *
 * Xylem — the Cedar OS built over the four Alliant operating systems —
 * exports virtual memory with 4 KB pages. The paper's TRFD study
 * ([MaEG92], Section 4.2) found the multicluster version taking almost
 * four times the page faults of the one-cluster version and spending
 * close to half its time in virtual-memory activity: each additional
 * cluster first touching a page must fault even when a valid PTE
 * already exists in global memory, because translations are cached per
 * cluster. This module models exactly that mechanism:
 *
 *  - a global page table (one PTE per virtual page, in global memory);
 *  - a per-cluster translation cache (TLB) of bounded size;
 *  - three miss grades: TLB refill from a valid global PTE (the cheap
 *    "TLB miss fault" TRFD suffered), first-touch faults that must
 *    allocate the page, and capacity refills.
 *
 * The distributed-memory rewrite that fixed TRFD corresponds to
 * touching pages from only one cluster — measurable here directly.
 */

#ifndef CEDARSIM_XYLEM_VM_HH
#define CEDARSIM_XYLEM_VM_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "mem/address.hh"
#include "sim/named.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::xylem {

/** Cost parameters of the virtual-memory system. */
struct VmParams
{
    /** Translation-cache entries per cluster. */
    unsigned tlb_entries = 64;
    /** Cycles for a TLB hit (pipelined; effectively free). */
    Cycles hit_cycles = 0;
    /** Cycles to refill a TLB entry from a valid PTE in global memory
     *  (the kernel trap TRFD's extra clusters kept taking). */
    Cycles refill_cycles = 250;
    /** Cycles to service a first-touch fault (allocate + zero). */
    Cycles first_touch_cycles = 2500;
};

/** What a translation cost and why. */
struct Translation
{
    enum class Kind
    {
        hit,
        refill,      ///< valid global PTE, per-cluster TLB miss
        first_touch, ///< page had no PTE anywhere yet
    };
    Kind kind;
    Cycles cycles;
};

/**
 * The machine-wide virtual memory state: one global page table and a
 * TLB per cluster.
 */
class VirtualMemory : public Named
{
  public:
    VirtualMemory(const std::string &name, unsigned num_clusters,
                  const VmParams &params = VmParams{});

    /**
     * Translate a word address for a CE of @p cluster.
     * Updates the cluster's TLB (LRU) and the global page table.
     */
    Translation translate(unsigned cluster, Addr addr);

    /** Pre-create PTEs for a region (e.g. data loaded before timing). */
    void prefault(Addr start, std::uint64_t words);

    /** Drop one cluster's TLB (context switch / explicit flush). */
    void flushTlb(unsigned cluster);

    /** Total page faults (refills + first touches) taken by a cluster. */
    std::uint64_t faults(unsigned cluster) const;

    /** First-touch faults taken machine-wide. */
    std::uint64_t firstTouches() const { return _first_touches.value(); }

    /** TLB refill faults taken machine-wide. */
    std::uint64_t refills() const { return _refills.value(); }

    /** TLB hits machine-wide. */
    std::uint64_t hits() const { return _hits.value(); }

    /** Total cycles spent in VM activity by one cluster. */
    Tick vmCycles(unsigned cluster) const;

    const VmParams &params() const { return _params; }

  private:
    struct Tlb
    {
        /** page -> position in lru (front = most recent). */
        std::unordered_map<Addr, std::list<Addr>::iterator> map;
        std::list<Addr> lru;
        std::uint64_t faults = 0;
        Tick vm_cycles = 0;
    };

    bool tlbLookup(Tlb &tlb, Addr page);
    void tlbInsert(Tlb &tlb, Addr page);

    VmParams _params;
    std::vector<Tlb> _tlbs;
    std::unordered_map<Addr, bool> _page_table; ///< page -> PTE valid
    Counter _hits;
    Counter _refills;
    Counter _first_touches;
};

} // namespace cedar::xylem

#endif // CEDARSIM_XYLEM_VM_HH
