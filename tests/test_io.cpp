/// I/O substrate tests: binary serialization round trips, CRC-64 behaviour,
/// CSV output and the series writer.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "io/ascii_io.hpp"
#include "io/serialize.hpp"
#include "math/rng.hpp"

using namespace sphexa;

namespace {

ParticleSetD randomParticles(std::size_t n, std::uint64_t seed)
{
    ParticleSetD ps(n);
    Xoshiro256pp rng(seed);
    for (auto* f : ps.realFields())
    {
        for (auto& v : *f)
            v = rng.uniform(-10, 10);
    }
    for (std::size_t i = 0; i < n; ++i)
    {
        ps.id[i]  = i * 7 + 1;
        ps.nc[i]  = int(i % 100);
        ps.bin[i] = int(i % 5);
    }
    return ps;
}

} // namespace

TEST(Serialize, RoundTripBitwise)
{
    auto ps = randomParticles(137, 5);
    auto buf = serialize(ps, 3.25, 42u);
    auto res = deserialize<double>(buf);

    EXPECT_DOUBLE_EQ(res.time, 3.25);
    EXPECT_EQ(res.step, 42u);
    ASSERT_EQ(res.particles.size(), ps.size());

    auto a = ps.realFields();
    auto b = res.particles.realFields();
    for (std::size_t f = 0; f < a.size(); ++f)
    {
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            ASSERT_EQ((*a[f])[i], (*b[f])[i]) << "field " << f << " particle " << i;
        }
    }
    EXPECT_EQ(res.particles.id, ps.id);
    EXPECT_EQ(res.particles.nc, ps.nc);
    EXPECT_EQ(res.particles.bin, ps.bin);
}

TEST(Serialize, EmptySetRoundTrip)
{
    ParticleSetD ps;
    auto buf = serialize(ps, 0.0, 0u);
    auto res = deserialize<double>(buf);
    EXPECT_EQ(res.particles.size(), 0u);
}

TEST(Serialize, RejectsBadMagic)
{
    auto ps = randomParticles(5, 7);
    auto buf = serialize(ps);
    buf[0] ^= std::byte{0xff};
    EXPECT_THROW(deserialize<double>(buf), std::runtime_error);
}

TEST(Serialize, RejectsTruncated)
{
    auto ps = randomParticles(50, 9);
    auto buf = serialize(ps);
    buf.resize(buf.size() / 2);
    EXPECT_THROW(deserialize<double>(buf), std::runtime_error);
}

TEST(Serialize, RejectsPrecisionMismatch)
{
    ParticleSet<float> ps(4);
    auto buf = serialize(ps);
    EXPECT_THROW(deserialize<double>(buf), std::runtime_error);
}

TEST(Serialize, RejectsHeaderCountsThatDisagreeWithThePayload)
{
    // the counts are checked against the payload before anything is sized:
    // a huge count throws instead of escaping as std::length_error or
    // zero-filling gigabytes before the truncation is found
    auto ps  = randomParticles(6, 11);
    auto buf = serialize(ps);
    auto withHeaderWord = [&](std::size_t word, std::uint64_t value) {
        auto bad = buf;
        std::memcpy(bad.data() + word * sizeof(value), &value, sizeof(value));
        return bad;
    };
    const std::uint64_t count = ps.size(), fields = ps.realFields().size();
    for (std::uint64_t bad : {std::uint64_t(1) << 62, count + 1})
        EXPECT_THROW(deserialize<double>(withHeaderWord(2, bad)), std::runtime_error) << bad;
    for (std::uint64_t bad : {fields - 1, fields + 1})
        EXPECT_THROW(deserialize<double>(withHeaderWord(3, bad)), std::runtime_error) << bad;
    EXPECT_NO_THROW(deserialize<double>(withHeaderWord(2, count)));
}

TEST(Crc64, KnownProperties)
{
    std::vector<std::byte> a(100, std::byte{0x41});
    std::vector<std::byte> b = a;
    EXPECT_EQ(Crc64::compute(a), Crc64::compute(b));
    b[50] ^= std::byte{0x01};
    EXPECT_NE(Crc64::compute(a), Crc64::compute(b));
    // single-bit flips anywhere change the CRC
    for (std::size_t pos : {0u, 13u, 99u})
    {
        auto c = a;
        c[pos] ^= std::byte{0x80};
        EXPECT_NE(Crc64::compute(a), Crc64::compute(c)) << pos;
    }
}

TEST(Crc64, EmptyInput)
{
    std::vector<std::byte> empty;
    EXPECT_EQ(Crc64::compute(empty), Crc64::compute(empty));
}

TEST(CsvWriter, HeaderAndRows)
{
    ParticleSetD ps(3);
    ps.x = {1, 2, 3};
    ps.rho = {0.5, 0.6, 0.7};
    ps.id = {10, 11, 12};
    std::ostringstream os;
    writeCsv(os, ps, {"x", "rho"});
    std::string out = os.str();
    EXPECT_NE(out.find("id,x,rho"), std::string::npos);
    EXPECT_NE(out.find("10,1,0.5"), std::string::npos);
    EXPECT_NE(out.find("12,3,0.7"), std::string::npos);
}

TEST(SeriesWriter, RowsAndFormatting)
{
    SeriesWriter w({"step", "energy"});
    w.addRow({1, 0.5});
    w.addRow({2, 0.25});
    EXPECT_EQ(w.rowCount(), 2u);
    auto s = w.str();
    EXPECT_NE(s.find("step,energy"), std::string::npos);
    EXPECT_NE(s.find("2,0.25"), std::string::npos);
}

TEST(SeriesWriter, RejectsWrongColumnCount)
{
    SeriesWriter w({"a", "b", "c"});
    EXPECT_THROW(w.addRow({1.0}), std::invalid_argument);
}
