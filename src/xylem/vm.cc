/**
 * @file
 * Virtual-memory model implementation.
 */

#include "vm.hh"

namespace cedar::xylem {

VirtualMemory::VirtualMemory(const std::string &name,
                             unsigned num_clusters, const VmParams &params)
    : Named(name), _params(params), _tlbs(num_clusters)
{
    sim_assert(num_clusters > 0, "need at least one cluster");
    sim_assert(_params.tlb_entries > 0, "TLB needs entries");
}

bool
VirtualMemory::tlbLookup(Tlb &tlb, Addr page)
{
    auto it = tlb.map.find(page);
    if (it == tlb.map.end())
        return false;
    tlb.lru.splice(tlb.lru.begin(), tlb.lru, it->second);
    return true;
}

void
VirtualMemory::tlbInsert(Tlb &tlb, Addr page)
{
    if (tlb.map.size() >= _params.tlb_entries) {
        Addr victim = tlb.lru.back();
        tlb.lru.pop_back();
        tlb.map.erase(victim);
    }
    tlb.lru.push_front(page);
    tlb.map[page] = tlb.lru.begin();
}

Translation
VirtualMemory::translate(unsigned cluster, Addr addr)
{
    sim_assert(cluster < _tlbs.size(), "bad cluster ", cluster);
    Addr page = mem::pageOf(addr);
    Tlb &tlb = _tlbs[cluster];

    if (tlbLookup(tlb, page)) {
        _hits.inc();
        tlb.vm_cycles += _params.hit_cycles;
        return Translation{Translation::Kind::hit, _params.hit_cycles};
    }

    auto pte = _page_table.find(page);
    if (pte != _page_table.end() && pte->second) {
        // A valid PTE exists in global memory (some cluster already
        // touched the page); this cluster still takes a fault to load
        // its own translation — the TRFD amplification.
        _refills.inc();
        ++tlb.faults;
        tlb.vm_cycles += _params.refill_cycles;
        tlbInsert(tlb, page);
        return Translation{Translation::Kind::refill,
                           _params.refill_cycles};
    }

    _first_touches.inc();
    ++tlb.faults;
    tlb.vm_cycles += _params.first_touch_cycles;
    _page_table[page] = true;
    tlbInsert(tlb, page);
    return Translation{Translation::Kind::first_touch,
                       _params.first_touch_cycles};
}

void
VirtualMemory::prefault(Addr start, std::uint64_t words)
{
    if (words == 0)
        return;
    for (Addr p = mem::pageOf(start);
         p <= mem::pageOf(start + words - 1); ++p) {
        _page_table[p] = true;
    }
}

void
VirtualMemory::flushTlb(unsigned cluster)
{
    sim_assert(cluster < _tlbs.size(), "bad cluster ", cluster);
    _tlbs[cluster].map.clear();
    _tlbs[cluster].lru.clear();
}

std::uint64_t
VirtualMemory::faults(unsigned cluster) const
{
    sim_assert(cluster < _tlbs.size(), "bad cluster ", cluster);
    return _tlbs[cluster].faults;
}

Tick
VirtualMemory::vmCycles(unsigned cluster) const
{
    sim_assert(cluster < _tlbs.size(), "bad cluster ", cluster);
    return _tlbs[cluster].vm_cycles;
}

} // namespace cedar::xylem
