/**
 * @file
 * Snapshot encoding, validated decoding, manifest rendering, and file
 * I/O.
 */

#include "checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "sim/error.hh"

namespace cedar {

const char checkpoint_magic[8] = {'C', 'E', 'D', 'A',
                                  'R', 'C', 'K', 'P'};

namespace {

/** Upper bounds that make structural damage fail fast and typed. */
constexpr std::size_t max_name_len = 4096;
constexpr std::size_t max_key_len = 4096;

/**
 * Slicing-by-8 tables: t[0] is the byte-at-a-time table, and t[k][i]
 * is the CRC register contribution of byte i followed by k zero bytes,
 * so one step folds eight input bytes with eight lookups. Plain arrays
 * keep unoptimized builds fast too.
 */
struct CrcTables
{
    std::uint32_t t[8][256];
};

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables c{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t v = i;
            for (int k = 0; k < 8; ++k)
                v = (v & 1) ? 0xEDB88320u ^ (v >> 1) : v >> 1;
            c.t[0][i] = v;
        }
        for (int k = 1; k < 8; ++k)
            for (int i = 0; i < 256; ++i)
                c.t[k][i] = (c.t[k - 1][i] >> 8) ^
                            c.t[0][c.t[k - 1][i] & 0xFF];
        return c;
    }();
    return tables;
}

std::uint32_t
loadU32(const unsigned char *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

/** Store the low @p n bytes of @p v little-endian at @p dst. */
void
storeLE(char *dst, std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        dst[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/** Append the low @p n bytes of @p v little-endian. */
void
putLE(std::string &out, std::uint64_t v, int n)
{
    out.append(std::size_t(n), '\0');
    storeLE(&out[out.size() - std::size_t(n)], v, n);
}

/** Bounds-checked little-endian cursor over the snapshot bytes. */
struct Cursor
{
    const unsigned char *p;
    std::size_t len;
    std::size_t pos = 0;
    const char *what; ///< context for error messages

    /** pos <= len always holds, so len - pos cannot wrap. */
    void
    need(std::uint64_t n, const char *field)
    {
        if (n > len - pos) {
            checkpointError(what,
                            std::string("truncated snapshot: ") + field +
                                " needs " + std::to_string(n) +
                                " bytes at offset " + std::to_string(pos) +
                                " of " + std::to_string(len));
        }
    }

    /** The next @p n bytes, in place. */
    const unsigned char *
    take(std::uint64_t n, const char *field)
    {
        need(n, field);
        const unsigned char *at = p + pos;
        pos += n;
        return at;
    }

    /** The next sizeof(T) bytes as a little-endian integer. */
    template <typename T>
    T
    le(const char *field)
    {
        const unsigned char *at = take(sizeof(T), field);
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= std::uint64_t(at[i]) << (8 * i);
        return static_cast<T>(v);
    }

    std::string
    str(std::uint64_t n, const char *field)
    {
        return std::string(reinterpret_cast<const char *>(take(n, field)),
                           n);
    }
};

/** Encoded size of one field: tag, key length, key, payload. */
std::size_t
encodedSize(const CheckpointField &f)
{
    bool blob = f.tag == CheckpointField::Tag::str ||
                f.tag == CheckpointField::Tag::bytes;
    return 1 + 2 + f.key.size() + (blob ? 4 + f.blob.size() : 8);
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto &t = crcTables().t;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint32_t lo = c ^ loadU32(p);
        std::uint32_t hi = loadU32(p + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^
            t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
checkpointError(const std::string &component, const std::string &message)
{
    throw SimError(SimError::Kind::checkpoint, component,
                   currentErrorTick(), message);
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

void
CheckpointSectionWriter::add(CheckpointField f)
{
    sim_assert(f.key.size() <= max_key_len, "checkpoint key too long");
    auto [it, inserted] = _index.emplace(f.key, _fields.size());
    sim_assert(inserted, "duplicate checkpoint key '", f.key,
               "' in section '", _name, "'");
    (void)it;
    _fields.push_back(std::move(f));
}

void
CheckpointSectionWriter::u64(const std::string &key, std::uint64_t v)
{
    add({CheckpointField::Tag::u64, key, v, {}});
}

void
CheckpointSectionWriter::i64(const std::string &key, std::int64_t v)
{
    add({CheckpointField::Tag::i64, key,
         static_cast<std::uint64_t>(v), {}});
}

void
CheckpointSectionWriter::f64(const std::string &key, double v)
{
    add({CheckpointField::Tag::f64, key, doubleBits(v), {}});
}

void
CheckpointSectionWriter::str(const std::string &key, std::string v)
{
    add({CheckpointField::Tag::str, key, 0, std::move(v)});
}

void
CheckpointSectionWriter::bytes(const std::string &key, std::string v)
{
    add({CheckpointField::Tag::bytes, key, 0, std::move(v)});
}

void
CheckpointSectionWriter::counter(const std::string &key, const Counter &c)
{
    u64(key, c.value());
}

void
CheckpointSectionWriter::sample(const std::string &key,
                                const SampleStat &s)
{
    SampleStat::Raw r = s.raw();
    u64(key + ".count", r.count);
    f64(key + ".sum", r.sum);
    f64(key + ".mean", r.mean);
    f64(key + ".m2", r.m2);
    f64(key + ".min", r.min);
    f64(key + ".max", r.max);
}

void
CheckpointSectionWriter::rng(const std::string &key, const Rng &r)
{
    Rng::State s = r.state();
    u64(key + ".s0", s[0]);
    u64(key + ".s1", s[1]);
    u64(key + ".s2", s[2]);
    u64(key + ".s3", s[3]);
}

CheckpointSectionWriter &
CheckpointWriter::section(const std::string &name)
{
    sim_assert(!name.empty() && name.size() <= max_name_len,
               "checkpoint section name must be 1..4096 bytes");
    for (const auto &s : _sections) {
        sim_assert(s.name() != name, "duplicate checkpoint section '",
                   name, "'");
    }
    _sections.push_back(CheckpointSectionWriter(name));
    return _sections.back();
}

std::string
CheckpointWriter::finish() const
{
    std::size_t total = sizeof(checkpoint_magic) + 4 + 8 + 4 + 4;
    for (const auto &s : _sections) {
        total += 2 + s._name.size() + 4 + 8;
        for (const auto &f : s._fields)
            total += encodedSize(f);
    }
    std::string out;
    out.reserve(total);
    out.append(checkpoint_magic, sizeof(checkpoint_magic));
    putLE(out, checkpoint_schema, 4);
    putLE(out, static_cast<std::uint64_t>(_tick), 8);
    putLE(out, _sections.size(), 4);
    for (const auto &s : _sections) {
        putLE(out, s._name.size(), 2);
        out += s._name;
        // Body CRC and length, patched once the body is in place.
        std::size_t crc_at = out.size();
        out.append(4 + 8, '\0');
        std::size_t body_at = out.size();
        for (const auto &f : s._fields) {
            putLE(out, static_cast<std::uint8_t>(f.tag), 1);
            putLE(out, f.key.size(), 2);
            out += f.key;
            switch (f.tag) {
              case CheckpointField::Tag::u64:
              case CheckpointField::Tag::i64:
              case CheckpointField::Tag::f64:
                putLE(out, f.word, 8);
                break;
              case CheckpointField::Tag::str:
              case CheckpointField::Tag::bytes:
                putLE(out, f.blob.size(), 4);
                out += f.blob;
                break;
            }
        }
        std::size_t body_len = out.size() - body_at;
        storeLE(&out[crc_at], crc32(out.data() + body_at, body_len), 4);
        storeLE(&out[crc_at + 4], body_len, 8);
    }
    putLE(out, crc32(out.data(), out.size()), 4);
    sim_assert(out.size() == total, "snapshot encoded to ", out.size(),
               " bytes, sized for ", total);
    return out;
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

const CheckpointField &
CheckpointSectionReader::get(const std::string &key,
                             CheckpointField::Tag tag) const
{
    auto it = _index.find(key);
    if (it == _index.end()) {
        checkpointError(_name, "snapshot section '" + _name +
                                   "' has no field '" + key + "'");
    }
    const CheckpointField &f = _fields[it->second];
    if (f.tag != tag) {
        checkpointError(_name,
                        "field '" + key + "' in section '" + _name +
                            "' has tag " +
                            std::to_string(static_cast<int>(f.tag)) +
                            ", wanted " +
                            std::to_string(static_cast<int>(tag)));
    }
    return f;
}

bool
CheckpointSectionReader::has(const std::string &key) const
{
    return _index.count(key) != 0;
}

std::uint64_t
CheckpointSectionReader::u64(const std::string &key) const
{
    return get(key, CheckpointField::Tag::u64).word;
}

unsigned
CheckpointSectionReader::u32(const std::string &key) const
{
    std::uint64_t v = u64(key);
    if (v > std::numeric_limits<unsigned>::max()) {
        checkpointError(_name, "field '" + key + "' is " +
                                   std::to_string(v) +
                                   ", past the unsigned range");
    }
    return static_cast<unsigned>(v);
}

std::int64_t
CheckpointSectionReader::i64(const std::string &key) const
{
    return static_cast<std::int64_t>(
        get(key, CheckpointField::Tag::i64).word);
}

double
CheckpointSectionReader::f64(const std::string &key) const
{
    return bitsDouble(get(key, CheckpointField::Tag::f64).word);
}

const std::string &
CheckpointSectionReader::str(const std::string &key) const
{
    return get(key, CheckpointField::Tag::str).blob;
}

const std::string &
CheckpointSectionReader::bytes(const std::string &key) const
{
    return get(key, CheckpointField::Tag::bytes).blob;
}

void
CheckpointSectionReader::counter(const std::string &key, Counter &c) const
{
    c.restore(u64(key));
}

void
CheckpointSectionReader::sample(const std::string &key,
                                SampleStat &s) const
{
    SampleStat::Raw r;
    r.count = u64(key + ".count");
    r.sum = f64(key + ".sum");
    r.mean = f64(key + ".mean");
    r.m2 = f64(key + ".m2");
    r.min = f64(key + ".min");
    r.max = f64(key + ".max");
    s.restore(r);
}

void
CheckpointSectionReader::rng(const std::string &key, Rng &r) const
{
    r.setState({u64(key + ".s0"), u64(key + ".s1"), u64(key + ".s2"),
                u64(key + ".s3")});
}

CheckpointReader::CheckpointReader(const std::string &snapshot)
{
    const char *who = "checkpoint";
    _file_size = snapshot.size();
    if (snapshot.size() < sizeof(checkpoint_magic) + 4 + 8 + 4 + 4) {
        checkpointError(who, "snapshot too small to be valid (" +
                                 std::to_string(snapshot.size()) +
                                 " bytes)");
    }
    if (std::memcmp(snapshot.data(), checkpoint_magic,
                    sizeof(checkpoint_magic)) != 0) {
        checkpointError(who, "bad magic: not a Cedar snapshot");
    }
    // The trailing file CRC covers everything before it.
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(snapshot.data());
    std::size_t body_end = snapshot.size() - 4;
    std::uint32_t want_crc = loadU32(bytes + body_end);
    std::uint32_t have_crc = crc32(bytes, body_end);
    if (want_crc != have_crc) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "file CRC mismatch: stored 0x%08X, computed 0x%08X",
                      want_crc, have_crc);
        checkpointError(who, buf);
    }
    _file_crc = have_crc;

    Cursor cur{bytes, body_end, sizeof(checkpoint_magic), who};
    _schema = cur.le<std::uint32_t>("schema version");
    if (_schema != checkpoint_schema) {
        checkpointError(who, "schema version skew: snapshot is v" +
                                 std::to_string(_schema) +
                                 ", this build reads v" +
                                 std::to_string(checkpoint_schema));
    }
    _tick = static_cast<Tick>(cur.le<std::uint64_t>("tick"));
    auto count = cur.le<std::uint32_t>("section count");
    // A damaged count must not size the vector: each section takes at
    // least its 14 header bytes.
    _sections.reserve(
        std::min<std::size_t>(count, (cur.len - cur.pos) / 14));
    for (std::uint32_t i = 0; i < count; ++i) {
        CheckpointSectionReader sec;
        auto name_len = cur.le<std::uint16_t>("section name length");
        sec._name = cur.str(name_len, "section name");
        cur.what = sec._name.c_str();
        sec._body_crc = cur.le<std::uint32_t>("section CRC");
        auto body_len = cur.le<std::uint64_t>("section body length");
        const unsigned char *body = cur.take(body_len, "section body");
        std::uint32_t computed = crc32(body, body_len);
        if (computed != sec._body_crc) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "section '%s' CRC mismatch: stored 0x%08X, "
                          "computed 0x%08X",
                          sec._name.c_str(), sec._body_crc, computed);
            checkpointError(who, buf);
        }
        sec._body_size = body_len;

        Cursor fc{body, body_len, 0, sec._name.c_str()};
        while (fc.pos < fc.len) {
            CheckpointField f;
            auto tag = fc.le<std::uint8_t>("field tag");
            if (tag < 1 || tag > 5) {
                checkpointError(sec._name,
                                "malformed field tag " +
                                    std::to_string(tag) +
                                    " in section '" + sec._name + "'");
            }
            f.tag = static_cast<CheckpointField::Tag>(tag);
            auto key_len = fc.le<std::uint16_t>("field key length");
            f.key = fc.str(key_len, "field key");
            switch (f.tag) {
              case CheckpointField::Tag::u64:
              case CheckpointField::Tag::i64:
              case CheckpointField::Tag::f64:
                f.word = fc.le<std::uint64_t>("field value");
                break;
              case CheckpointField::Tag::str:
              case CheckpointField::Tag::bytes: {
                auto blob_len = fc.le<std::uint32_t>("field blob length");
                f.blob = fc.str(blob_len, "field blob");
                break;
              }
            }
            auto [it, inserted] =
                sec._index.emplace(f.key, sec._fields.size());
            (void)it;
            if (!inserted) {
                checkpointError(sec._name, "duplicate field '" + f.key +
                                               "' in section '" +
                                               sec._name + "'");
            }
            sec._fields.push_back(std::move(f));
        }

        auto [it, inserted] = _index.emplace(sec._name, _sections.size());
        (void)it;
        if (!inserted) {
            checkpointError(who, "duplicate section '" + sec._name + "'");
        }
        _sections.push_back(std::move(sec));
        cur.what = who;
    }
    if (cur.pos != cur.len) {
        checkpointError(who,
                        "trailing garbage: " +
                            std::to_string(cur.len - cur.pos) +
                            " bytes after the last section");
    }
}

const CheckpointSectionReader &
CheckpointReader::section(const std::string &name) const
{
    auto it = _index.find(name);
    if (it == _index.end()) {
        checkpointError(name, "snapshot has no section '" + name +
                                  "' (component mismatch between "
                                  "snapshot and machine?)");
    }
    return _sections[it->second];
}

std::vector<std::string>
CheckpointReader::sectionNames() const
{
    std::vector<std::string> names;
    names.reserve(_sections.size());
    for (const auto &s : _sections)
        names.push_back(s.name());
    return names;
}

// ---------------------------------------------------------------------
// Manifest and file I/O
// ---------------------------------------------------------------------

std::string
describeCheckpoint(const std::string &snapshot)
{
    CheckpointReader reader(snapshot);
    std::ostringstream os;
    char buf[160];
    os << "cedar checkpoint manifest\n";
    os << "  schema:   v" << reader.schemaVersion() << "\n";
    os << "  tick:     " << reader.tick() << "\n";
    std::snprintf(buf, sizeof(buf), "  size:     %zu bytes, CRC 0x%08X\n",
                  reader.fileSize(), reader.fileCrc());
    os << buf;
    os << "  sections: " << reader.sectionNames().size() << "\n";
    std::snprintf(buf, sizeof(buf), "  %-40s %10s %10s %8s\n",
                  "section", "bytes", "crc32", "fields");
    os << buf;
    for (const auto &name : reader.sectionNames()) {
        const auto &sec = reader.section(name);
        std::snprintf(buf, sizeof(buf), "  %-40s %10zu 0x%08X %8zu\n",
                      name.c_str(), sec.bodySize(), sec.bodyCrc(),
                      sec.fields().size());
        os << buf;
    }
    return os.str();
}

void
writeCheckpointFile(const std::string &path, const std::string &snapshot)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        checkpointError(path, "cannot open '" + path + "' for writing");
    std::size_t wrote = std::fwrite(snapshot.data(), 1, snapshot.size(), f);
    bool closed = std::fclose(f) == 0;
    if (wrote != snapshot.size() || !closed)
        checkpointError(path, "short write to '" + path + "'");
}

std::string
readCheckpointFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        checkpointError(path, "cannot open '" + path + "' for reading");
    std::string data;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err)
        checkpointError(path, "read error on '" + path + "'");
    return data;
}

} // namespace cedar
