/**
 * @file
 * Rank-64 update kernel: three memory-system versions.
 */

#include "rank64.hh"

#include <deque>
#include <memory>

#include "runtime/launch.hh"
#include "runtime/streams.hh"

namespace cedar::kernels {

using cluster::Op;
using cluster::VecSource;
using runtime::GeneratorStream;

namespace {

/** Global-memory layout of the kernel's operands. */
struct Layout
{
    Addr a;       ///< A, n x 64, column-major (lda = n)
    Addr b;       ///< B, 64 x n, column-major (ldb = 64)
    Addr c;       ///< C, n x n, column-major (ldc = n)
    unsigned n;
    unsigned rank;
};

/** Static work split: columns of C owned by one CE. */
struct ColumnChunk
{
    unsigned lo;
    unsigned hi;
};

ColumnChunk
chunkFor(unsigned n, unsigned clusters, unsigned ces_per_cluster,
         unsigned cluster, unsigned ce)
{
    // Balanced split over all participating CEs, remainder spread one
    // column at a time from the front.
    unsigned total_ces = clusters * ces_per_cluster;
    unsigned idx = cluster * ces_per_cluster + ce;
    auto lo = static_cast<unsigned>((std::uint64_t(n) * idx) / total_ces);
    auto hi =
        static_cast<unsigned>((std::uint64_t(n) * (idx + 1)) / total_ces);
    return ColumnChunk{lo, hi};
}

/** Emit a posted vector store of @p words consecutive global words. */
void
emitGlobalStore(std::deque<Op> &out, Addr base, unsigned words)
{
    for (unsigned i = 0; i < words; ++i)
        out.push_back(Op::makeGlobalWrite(base + i));
}

/** Per-CE generator state for the two GM versions. */
struct GmState
{
    Layout lay;
    ColumnChunk cols;
    unsigned strip;
    unsigned block; ///< rows per prefetch block (gm_prefetch only)
    bool use_prefetch;
    unsigned col;
    unsigned row;
    bool b_loaded = false;
};

/**
 * Emit one unit of the GM/no-pref or GM/pref kernel: all 64 rank-1
 * updates of one row block of one column.
 */
bool
gmRefill(GmState &st, std::deque<Op> &out)
{
    if (st.col >= st.cols.hi)
        return false;

    const Layout &lay = st.lay;
    unsigned j = st.col;

    if (!st.b_loaded) {
        // Load B(:, j): 64 scalars broadcast into registers over the
        // course of the updates.
        Addr bcol = lay.b + static_cast<Addr>(j) * lay.rank;
        if (st.use_prefetch) {
            out.push_back(Op::makePrefetch(bcol, lay.rank));
            for (unsigned o = 0; o < lay.rank; o += st.strip) {
                out.push_back(
                    Op::makeVectorFromPrefetch(st.strip, o, 0.0));
            }
        } else {
            out.push_back(Op::makeVector(lay.rank,
                                         VecSource::global_direct, 0.0,
                                         bcol, 1));
        }
        st.b_loaded = true;
        return true;
    }

    unsigned rows = st.use_prefetch ? st.block : st.strip;
    rows = std::min(rows, lay.n - st.row);
    unsigned r0 = st.row;
    Addr ccol = lay.c + static_cast<Addr>(j) * lay.n + r0;

    // Load the C block into vector registers.
    if (st.use_prefetch) {
        out.push_back(Op::makePrefetch(ccol, rows));
        for (unsigned o = 0; o < rows; o += st.strip) {
            out.push_back(Op::makeVectorFromPrefetch(
                std::min(st.strip, rows - o), o, 0.0));
        }
    } else {
        out.push_back(Op::makeVector(rows, VecSource::global_direct, 0.0,
                                     ccol, 1));
    }

    // 64 chained multiply-adds: C(r0:r0+rows, j) += A(r0:r0+rows, k)
    // * B(k, j). Two flops per A word fetched.
    for (unsigned k = 0; k < lay.rank; ++k) {
        Addr astrip = lay.a + static_cast<Addr>(k) * lay.n + r0;
        if (st.use_prefetch) {
            out.push_back(Op::makePrefetch(astrip, rows));
            for (unsigned o = 0; o < rows; o += st.strip) {
                out.push_back(Op::makeVectorFromPrefetch(
                    std::min(st.strip, rows - o), o, 2.0));
            }
        } else {
            for (unsigned o = 0; o < rows; o += st.strip) {
                out.push_back(Op::makeVector(std::min(st.strip, rows - o),
                                             VecSource::global_direct,
                                             2.0, astrip + o, 1));
            }
        }
    }

    // Write the finished block back (posted stores).
    emitGlobalStore(out, ccol, rows);

    st.row += rows;
    if (st.row >= lay.n) {
        st.row = 0;
        st.b_loaded = false;
        ++st.col;
    }
    return true;
}

/** Per-CE generator state for the GM/cache version. */
struct CacheState
{
    Layout lay;
    ColumnChunk cols;
    unsigned strip;
    unsigned block_rows;
    unsigned ce_in_cluster;
    unsigned ces_per_cluster;
    Addr work_array; ///< cluster-space A panel, block_rows x 64
    std::vector<unsigned> barrier_ids; ///< 2 per block
    unsigned block = 0;
    unsigned phase = 0; ///< 0=transfer 1=post-transfer-barrier 2=compute
    unsigned col;
    unsigned strip_in_block = 0;
    bool b_loaded = false;
};

bool
cacheRefill(CacheState &st, std::deque<Op> &out)
{
    const Layout &lay = st.lay;
    unsigned blocks = lay.n / st.block_rows;
    if (st.block >= blocks)
        return false;

    unsigned r_base = st.block * st.block_rows;

    if (st.phase == 0) {
        // Transfer phase: this CE moves its share of the A panel block
        // (block_rows x 64) into the cluster work array, streaming
        // through the PFU and storing through the cache.
        unsigned k_per_ce = lay.rank / st.ces_per_cluster;
        unsigned k0 = st.ce_in_cluster * k_per_ce;
        for (unsigned k = k0; k < k0 + k_per_ce; ++k) {
            Addr src = lay.a + static_cast<Addr>(k) * lay.n + r_base;
            Addr dst = st.work_array +
                       static_cast<Addr>(k) * st.block_rows;
            for (unsigned o = 0; o < st.block_rows; o += 256) {
                unsigned chunk = std::min(256u, st.block_rows - o);
                out.push_back(Op::makePrefetch(src + o, chunk));
                for (unsigned q = 0; q < chunk; q += st.strip) {
                    out.push_back(
                        Op::makeVectorFromPrefetch(st.strip, q, 0.0));
                    out.push_back(Op::makeVector(
                        st.strip, VecSource::cluster_mem, 0.0,
                        dst + o + q, 1, 1, true));
                }
            }
        }
        out.push_back(Op::makeBarrier(st.barrier_ids[2 * st.block]));
        st.phase = 2;
        st.col = st.cols.lo;
        st.strip_in_block = 0;
        st.b_loaded = false;
        return true;
    }

    // Compute phase.
    if (st.col >= st.cols.hi) {
        // Block finished: wait for everyone before the next transfer
        // overwrites the work array.
        out.push_back(Op::makeBarrier(st.barrier_ids[2 * st.block + 1]));
        ++st.block;
        st.phase = 0;
        return true;
    }

    unsigned j = st.col;
    if (!st.b_loaded) {
        Addr bcol = lay.b + static_cast<Addr>(j) * lay.rank;
        out.push_back(Op::makePrefetch(bcol, lay.rank));
        for (unsigned o = 0; o < lay.rank; o += st.strip)
            out.push_back(Op::makeVectorFromPrefetch(st.strip, o, 0.0));
        st.b_loaded = true;
        return true;
    }

    unsigned s = st.strip_in_block;
    Addr cstrip = lay.c + static_cast<Addr>(j) * lay.n + r_base +
                  s * st.strip;
    // C strip in from global memory (prefetched), held in a register.
    out.push_back(Op::makePrefetch(cstrip, st.strip));
    out.push_back(Op::makeVectorFromPrefetch(st.strip, 0, 0.0));
    // 64 multiply-adds with A strips from the cached work array.
    for (unsigned k = 0; k < lay.rank; ++k) {
        Addr astrip = st.work_array +
                      static_cast<Addr>(k) * st.block_rows +
                      s * st.strip;
        out.push_back(Op::makeVector(st.strip, VecSource::cache, 2.0,
                                     astrip, 1));
    }
    emitGlobalStore(out, cstrip, st.strip);

    if (++st.strip_in_block >= st.block_rows / st.strip) {
        st.strip_in_block = 0;
        st.b_loaded = false;
        ++st.col;
    }
    return true;
}

} // namespace

const char *
rank64VersionName(Rank64Version v)
{
    switch (v) {
      case Rank64Version::gm_no_prefetch: return "GM/no-pref";
      case Rank64Version::gm_prefetch: return "GM/pref";
      case Rank64Version::gm_cache: return "GM/cache";
    }
    return "?";
}

KernelResult
runRank64(machine::CedarMachine &machine, const Rank64Params &params)
{
    const auto &cfg = machine.config();
    sim_assert(params.clusters >= 1 &&
                   params.clusters <= cfg.num_clusters,
               "bad cluster count");
    unsigned per_ce = cfg.cluster.num_ces;
    sim_assert(params.n % params.strip == 0,
               "n must be a whole number of strips");

    Layout lay;
    lay.n = params.n;
    lay.rank = params.rank;
    lay.a = machine.allocGlobal(std::uint64_t(params.n) * params.rank);
    lay.b = machine.allocGlobal(std::uint64_t(params.rank) * params.n);
    lay.c = machine.allocGlobal(std::uint64_t(params.n) * params.n);

    std::vector<std::unique_ptr<cluster::OpStream>> streams;
    unsigned total = params.clusters * per_ce;

    // Per-cluster setup for the cache version.
    Addr work_array = 0;
    std::vector<std::vector<unsigned>> barrier_ids(params.clusters);
    unsigned cache_block_rows = params.cache_block_rows;
    if (params.version == Rank64Version::gm_cache) {
        // Shrink the work-array block until it divides n evenly.
        while (cache_block_rows > params.strip &&
               params.n % cache_block_rows != 0) {
            cache_block_rows /= 2;
        }
        sim_assert(params.n % cache_block_rows == 0,
                   "cannot find a block size dividing n");
        work_array = machine.allocCluster(
            std::uint64_t(cache_block_rows) * params.rank);
        unsigned blocks = params.n / cache_block_rows;
        for (unsigned c = 0; c < params.clusters; ++c) {
            for (unsigned b = 0; b < 2 * blocks; ++b) {
                barrier_ids[c].push_back(
                    machine.clusterAt(c).newBarrier(per_ce));
            }
        }
    }

    for (unsigned c = 0; c < params.clusters; ++c) {
        for (unsigned e = 0; e < per_ce; ++e) {
            ColumnChunk cols =
                chunkFor(params.n, params.clusters, per_ce, c, e);
            std::unique_ptr<cluster::OpStream> stream;
            if (params.version == Rank64Version::gm_cache) {
                auto st = std::make_shared<CacheState>();
                st->lay = lay;
                st->cols = cols;
                st->strip = params.strip;
                st->block_rows = cache_block_rows;
                st->ce_in_cluster = e;
                st->ces_per_cluster = per_ce;
                st->work_array = work_array;
                st->barrier_ids = barrier_ids[c];
                st->col = cols.lo;
                stream = std::make_unique<GeneratorStream>(
                    [st](std::deque<Op> &out) {
                        return cacheRefill(*st, out);
                    });
            } else {
                auto st = std::make_shared<GmState>();
                st->lay = lay;
                st->cols = cols;
                st->strip = params.strip;
                st->block = params.prefetch_block;
                st->use_prefetch =
                    params.version == Rank64Version::gm_prefetch;
                st->col = cols.lo;
                st->row = 0;
                stream = std::make_unique<GeneratorStream>(
                    [st](std::deque<Op> &out) {
                        return gmRefill(*st, out);
                    });
            }
            streams.push_back(std::move(stream));
        }
    }

    // Gang-start every participating cluster.
    std::vector<runtime::CeLaunch> launches;
    for (unsigned c = 0; c < params.clusters; ++c) {
        // curTick, not 0: a phased workload re-runs the kernel on an
        // already-advanced machine (src/sample live-point windows).
        Tick at =
            machine.clusterAt(c).ccb().concurrentStart(machine.sim().curTick());
        for (unsigned e = 0; e < per_ce; ++e) {
            launches.push_back({&machine.clusterAt(c).ce(e),
                                streams[c * per_ce + e].get(), at});
        }
    }
    unsigned done = runtime::runCes(machine, launches);
    sim_assert(done == total, "rank-64 finished only ", done, " of ",
               total, " CEs");

    KernelResult result;
    result.flops = machine.totalFlops();
    result.start = 0;
    Tick end = 0;
    for (unsigned i = 0; i < total; ++i) {
        unsigned ce = (i / per_ce) * per_ce + (i % per_ce);
        end = std::max(end, machine.ceAt(ce).lastDone());
    }
    result.end = end;
    result.ces = total;
    std::vector<unsigned> ces;
    for (unsigned i = 0; i < total; ++i)
        ces.push_back(i);
    collectPfuStats(machine, ces, result);
    return result;
}

} // namespace cedar::kernels
