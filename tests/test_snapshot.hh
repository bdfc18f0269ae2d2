/**
 * @file
 * Test-only snapshot surgery. withField() re-encodes a snapshot with
 * one field replaced; both CRCs are recomputed, so the damage reaches
 * the component's restore checks instead of stopping at the container.
 */

#ifndef CEDARSIM_TESTS_TEST_SNAPSHOT_HH
#define CEDARSIM_TESTS_TEST_SNAPSHOT_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "sim/checkpoint.hh"
#include "sim/error.hh"

namespace cedar::test {

/** @p snap with field @p f.key of @p section replaced by @p f. */
inline std::string
withField(const std::string &snap, const std::string &section,
          const CheckpointField &f)
{
    CheckpointReader r(snap);
    CheckpointWriter w(r.tick());
    bool found = false;
    for (const std::string &name : r.sectionNames()) {
        auto &out = w.section(name);
        for (const CheckpointField &old : r.section(name).fields()) {
            bool hit = name == section && old.key == f.key;
            found = found || hit;
            const CheckpointField &g = hit ? f : old;
            switch (g.tag) {
              case CheckpointField::Tag::u64:
                out.u64(g.key, g.word);
                break;
              case CheckpointField::Tag::i64:
                out.i64(g.key, static_cast<std::int64_t>(g.word));
                break;
              case CheckpointField::Tag::f64:
                out.f64(g.key, std::bit_cast<double>(g.word));
                break;
              case CheckpointField::Tag::str:
                out.str(g.key, g.blob);
                break;
              case CheckpointField::Tag::bytes:
                out.bytes(g.key, g.blob);
                break;
            }
        }
    }
    EXPECT_TRUE(found) << "no field '" << f.key << "' in '" << section
                       << "'";
    return w.finish();
}

inline std::string
withU64(const std::string &snap, const std::string &section,
        const std::string &key, std::uint64_t v)
{
    return withField(snap, section,
                     {CheckpointField::Tag::u64, key, v, {}});
}

inline std::string
withBytes(const std::string &snap, const std::string &section,
          const std::string &key, std::string blob)
{
    return withField(snap, section,
                     {CheckpointField::Tag::bytes, key, 0,
                      std::move(blob)});
}

/** Run @p fn; it must throw a SimError of kind `checkpoint`. */
template <typename Fn>
void
expectCheckpointError(Fn &&fn, const std::string &what)
{
    try {
        fn();
        ADD_FAILURE() << what << ": expected a checkpoint SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::checkpoint)
            << what << ": " << e.what();
    }
}

} // namespace cedar::test

#endif // CEDARSIM_TESTS_TEST_SNAPSHOT_HH
