/**
 * @file
 * Snapshot encoding, validated decoding, manifest rendering, and file
 * I/O for the Checkpointable contract.
 */

#include "checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "sim/error.hh"

namespace cedar {

const char checkpoint_magic[8] = {'C', 'E', 'D', 'A',
                                  'R', 'C', 'K', 'P'};

namespace {

/** Upper bounds that make structural damage fail fast and typed. */
constexpr std::size_t max_name_len = 4096;
constexpr std::size_t max_key_len = 4096;

const std::uint32_t *
crcTable()
{
    static const auto table = [] {
        static std::uint32_t t[256];
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xFF));
    out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/** Bounds-checked little-endian cursor over the snapshot bytes. */
struct Cursor
{
    const unsigned char *p;
    std::size_t len;
    std::size_t pos = 0;
    const char *what; ///< context for error messages

    void
    need(std::size_t n, const char *field)
    {
        if (pos + n > len) {
            checkpointError(what,
                            std::string("truncated snapshot: ") + field +
                                " needs " + std::to_string(n) +
                                " bytes at offset " + std::to_string(pos) +
                                " of " + std::to_string(len));
        }
    }

    std::uint8_t
    u8(const char *field)
    {
        need(1, field);
        return p[pos++];
    }

    std::uint16_t
    u16(const char *field)
    {
        need(2, field);
        std::uint16_t v = std::uint16_t(p[pos]) |
                          (std::uint16_t(p[pos + 1]) << 8);
        pos += 2;
        return v;
    }

    std::uint32_t
    u32(const char *field)
    {
        need(4, field);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(p[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64(const char *field)
    {
        need(8, field);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(p[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }

    std::string
    raw(std::size_t n, const char *field)
    {
        need(n, field);
        std::string v(reinterpret_cast<const char *>(p + pos), n);
        pos += n;
        return v;
    }
};

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
    const auto *table = crcTable();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
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
CheckpointSectionWriter::str(const std::string &key, const std::string &v)
{
    add({CheckpointField::Tag::str, key, 0, v});
}

void
CheckpointSectionWriter::bytes(const std::string &key,
                               const std::string &v)
{
    add({CheckpointField::Tag::bytes, key, 0, v});
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

std::string
CheckpointSectionWriter::encode() const
{
    std::string body;
    for (const auto &f : _fields) {
        putU8(body, static_cast<std::uint8_t>(f.tag));
        putU16(body, static_cast<std::uint16_t>(f.key.size()));
        body += f.key;
        switch (f.tag) {
          case CheckpointField::Tag::u64:
          case CheckpointField::Tag::i64:
          case CheckpointField::Tag::f64:
            putU64(body, f.word);
            break;
          case CheckpointField::Tag::str:
          case CheckpointField::Tag::bytes:
            putU32(body, static_cast<std::uint32_t>(f.blob.size()));
            body += f.blob;
            break;
        }
    }
    return body;
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
    std::string out;
    out.append(checkpoint_magic, sizeof(checkpoint_magic));
    putU32(out, checkpoint_schema);
    putU64(out, static_cast<std::uint64_t>(_tick));
    putU32(out, static_cast<std::uint32_t>(_sections.size()));
    for (const auto &s : _sections) {
        std::string body = s.encode();
        putU16(out, static_cast<std::uint16_t>(s.name().size()));
        out += s.name();
        putU32(out, crc32(body.data(), body.size()));
        putU64(out, body.size());
        out += body;
    }
    putU32(out, crc32(out.data(), out.size()));
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
    std::size_t body_end = snapshot.size() - 4;
    std::uint32_t want_crc = 0;
    for (int i = 0; i < 4; ++i) {
        want_crc |= std::uint32_t(static_cast<unsigned char>(
                        snapshot[body_end + i]))
                    << (8 * i);
    }
    std::uint32_t have_crc = crc32(snapshot.data(), body_end);
    if (want_crc != have_crc) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "file CRC mismatch: stored 0x%08X, computed 0x%08X",
                      want_crc, have_crc);
        checkpointError(who, buf);
    }
    _file_crc = have_crc;

    Cursor cur{reinterpret_cast<const unsigned char *>(snapshot.data()),
               body_end, sizeof(checkpoint_magic), who};
    _schema = cur.u32("schema version");
    if (_schema != checkpoint_schema) {
        checkpointError(who, "schema version skew: snapshot is v" +
                                 std::to_string(_schema) +
                                 ", this build reads v" +
                                 std::to_string(checkpoint_schema));
    }
    _tick = static_cast<Tick>(cur.u64("tick"));
    std::uint32_t count = cur.u32("section count");
    _sections.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        CheckpointSectionReader sec;
        std::uint16_t name_len = cur.u16("section name length");
        sec._name = cur.raw(name_len, "section name");
        cur.what = sec._name.c_str();
        sec._body_crc = cur.u32("section CRC");
        std::uint64_t body_len = cur.u64("section body length");
        std::string body = cur.raw(body_len, "section body");
        std::uint32_t computed = crc32(body.data(), body.size());
        if (computed != sec._body_crc) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "section '%s' CRC mismatch: stored 0x%08X, "
                          "computed 0x%08X",
                          sec._name.c_str(), sec._body_crc, computed);
            checkpointError(who, buf);
        }
        sec._body_size = body.size();

        Cursor fc{reinterpret_cast<const unsigned char *>(body.data()),
                  body.size(), 0, sec._name.c_str()};
        while (fc.pos < fc.len) {
            CheckpointField f;
            std::uint8_t tag = fc.u8("field tag");
            if (tag < 1 || tag > 5) {
                checkpointError(sec._name,
                                "malformed field tag " +
                                    std::to_string(tag) +
                                    " in section '" + sec._name + "'");
            }
            f.tag = static_cast<CheckpointField::Tag>(tag);
            std::uint16_t key_len = fc.u16("field key length");
            f.key = fc.raw(key_len, "field key");
            switch (f.tag) {
              case CheckpointField::Tag::u64:
              case CheckpointField::Tag::i64:
              case CheckpointField::Tag::f64:
                f.word = fc.u64("field value");
                break;
              case CheckpointField::Tag::str:
              case CheckpointField::Tag::bytes: {
                std::uint32_t blob_len = fc.u32("field blob length");
                f.blob = fc.raw(blob_len, "field blob");
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
