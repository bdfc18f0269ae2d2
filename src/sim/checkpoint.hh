/**
 * @file
 * Checkpoints: a versioned, self-describing binary snapshot of
 * machine state. Each checkpointed component has plain
 * `saveState(CheckpointWriter &) const` and
 * `restoreState(const CheckpointReader &)` members that own one or
 * more named sections; the two must be exact inverses at a quiescent
 * point (drained event queue).
 *
 * Snapshot layout (all integers little-endian, fixed width):
 *
 *   magic            8 bytes  "CEDARCKP"
 *   schema_version   u32      checkpoint_schema
 *   tick             u64      simulated time of the snapshot
 *   section_count    u32
 *   sections, each:
 *     name_len       u16
 *     name           bytes    component name ("cedar.gm.mod3", ...)
 *     body_crc32     u32      CRC-32 of the body bytes
 *     body_len       u64
 *     body           bytes    tagged fields (below)
 *   file_crc32       u32      CRC-32 of everything above
 *
 * A section body is a sequence of tagged fields:
 *
 *   tag              u8       1=u64 2=i64 3=f64 4=str 5=bytes
 *   key_len          u16
 *   key              bytes
 *   payload                   8 bytes for tags 1-3 (f64 is the IEEE-754
 *                             bit pattern); u32 length + data for 4-5
 *
 * Because every field carries its own tag and key, a snapshot can be
 * decoded without the producing build: `machine_inspector
 * --checkpoint-info` and tools/checkpoint_diff.py both walk this
 * format generically. Any structural damage — bad magic, version skew,
 * truncation, CRC mismatch, malformed field — raises a SimError of
 * kind `checkpoint`.
 *
 * The determinism contract (DESIGN.md §11): snapshots are taken at
 * quiescent points, where the event queue has drained and every
 * component's state is plain data (reservation clocks, counters, RNG
 * lanes, functional cells). Restoring a snapshot into a machine of the
 * identical configuration reproduces the run bit-for-bit: the engine's
 * sequence counter and all reservation clocks resume exactly where
 * they stopped.
 */

#ifndef CEDARSIM_SIM_CHECKPOINT_HH
#define CEDARSIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar {

/** Current snapshot schema. Bump on any incompatible layout change. */
constexpr std::uint32_t checkpoint_schema = 1;

/** The 8-byte magic that opens every snapshot. */
extern const char checkpoint_magic[8];

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected) of @p len bytes, eight
 * bytes per step (slicing-by-8). Chains: crc32(b, n, crc32(a, m)) is
 * the CRC of a followed by b.
 */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

/** Raise a SimError of kind `checkpoint` for @p component. */
[[noreturn]] void checkpointError(const std::string &component,
                                  const std::string &message);

/** One decoded field of a section (also used while writing). */
struct CheckpointField
{
    enum class Tag : std::uint8_t
    {
        u64 = 1,
        i64 = 2,
        f64 = 3,
        str = 4,
        bytes = 5,
    };

    Tag tag;
    std::string key;
    std::uint64_t word = 0;  ///< payload for u64/i64/f64 (bit pattern)
    std::string blob;        ///< payload for str/bytes
};

/**
 * Collects one component's fields. Obtained from
 * CheckpointWriter::section(); keys must be unique within a section.
 */
class CheckpointSectionWriter
{
  public:
    void u64(const std::string &key, std::uint64_t v);
    void i64(const std::string &key, std::int64_t v);
    void f64(const std::string &key, double v);
    /** Blob fields take their payload by value: move large ones in. */
    void str(const std::string &key, std::string v);
    void bytes(const std::string &key, std::string v);

    /** Convenience: a Counter's value as a u64 field. */
    void counter(const std::string &key, const Counter &c);

    /** A SampleStat's raw accumulators as key.count/.sum/.mean/... */
    void sample(const std::string &key, const SampleStat &s);

    /** An Rng's four state lanes as key.s0 .. key.s3. */
    void rng(const std::string &key, const Rng &r);

    const std::string &name() const { return _name; }

  private:
    friend class CheckpointWriter;
    explicit CheckpointSectionWriter(std::string name)
        : _name(std::move(name))
    {
    }

    void add(CheckpointField f);

    std::string _name;
    std::vector<CheckpointField> _fields;
    std::map<std::string, std::size_t> _index;
};

/** Builds a snapshot: one section per component, then finish(). */
class CheckpointWriter
{
  public:
    explicit CheckpointWriter(Tick tick) : _tick(tick) {}

    /** Create the section for @p name (names must be unique). */
    CheckpointSectionWriter &section(const std::string &name);

    Tick tick() const { return _tick; }

    /**
     * Serialize the snapshot (header, sections, CRCs). The output is
     * sized up front and each section body is encoded straight into
     * it, so every byte is copied once.
     */
    std::string finish() const;

  private:
    Tick _tick;
    std::vector<CheckpointSectionWriter> _sections;
};

/** Read-only view of one decoded section. */
class CheckpointSectionReader
{
  public:
    const std::string &name() const { return _name; }

    bool has(const std::string &key) const;

    std::uint64_t u64(const std::string &key) const;
    /** A u64 field that must fit `unsigned`; a wider value raises
     *  `checkpoint` instead of being narrowed. */
    unsigned u32(const std::string &key) const;
    std::int64_t i64(const std::string &key) const;
    double f64(const std::string &key) const;
    const std::string &str(const std::string &key) const;
    const std::string &bytes(const std::string &key) const;

    /** Counterparts of the writer conveniences. */
    void counter(const std::string &key, Counter &c) const;
    void sample(const std::string &key, SampleStat &s) const;
    void rng(const std::string &key, Rng &r) const;

    /** All fields, in file order (for manifests and diffs). */
    const std::vector<CheckpointField> &fields() const { return _fields; }

    /** Encoded body size in bytes. */
    std::size_t bodySize() const { return _body_size; }

    /** CRC-32 recorded for (and verified against) the body. */
    std::uint32_t bodyCrc() const { return _body_crc; }

  private:
    friend class CheckpointReader;

    const CheckpointField &get(const std::string &key,
                               CheckpointField::Tag tag) const;

    std::string _name;
    std::vector<CheckpointField> _fields;
    std::map<std::string, std::size_t> _index;
    std::size_t _body_size = 0;
    std::uint32_t _body_crc = 0;
};

/**
 * Parses and validates a snapshot. Construction throws a SimError of
 * kind `checkpoint` on bad magic, schema skew, truncation, CRC
 * mismatch, or malformed structure — a reader that constructs is a
 * snapshot whose every byte checked out. Section CRCs are verified and
 * fields decoded where the bytes lie; only keys and blobs are copied.
 */
class CheckpointReader
{
  public:
    explicit CheckpointReader(const std::string &snapshot);

    std::uint32_t schemaVersion() const { return _schema; }
    Tick tick() const { return _tick; }

    /** Section by name; raises `checkpoint` when absent. */
    const CheckpointSectionReader &section(const std::string &name) const;

    /** Section names in file order. */
    std::vector<std::string> sectionNames() const;

    /** Total snapshot size in bytes. */
    std::size_t fileSize() const { return _file_size; }

    /** The verified whole-file CRC-32. */
    std::uint32_t fileCrc() const { return _file_crc; }

  private:
    std::uint32_t _schema = 0;
    Tick _tick = 0;
    std::vector<CheckpointSectionReader> _sections;
    std::map<std::string, std::size_t> _index;
    std::size_t _file_size = 0;
    std::uint32_t _file_crc = 0;
};

/**
 * Human-readable manifest of a snapshot: schema version, tick, and a
 * per-section table of sizes, CRCs, and field counts (the
 * `--checkpoint-info` view). Validates the snapshot first.
 */
std::string describeCheckpoint(const std::string &snapshot);

/** Write @p snapshot to @p path; `checkpoint` SimError on failure. */
void writeCheckpointFile(const std::string &path,
                         const std::string &snapshot);

/** Read a snapshot file; `checkpoint` SimError on failure. */
std::string readCheckpointFile(const std::string &path);

} // namespace cedar

#endif // CEDARSIM_SIM_CHECKPOINT_HH
