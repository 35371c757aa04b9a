#pragma once

/// \file serialize.hpp
/// Binary (de)serialization of the particle state — shared by the
/// checkpoint/restart substrate and the file I/O layer.
///
/// Layout: header {magic, version, count, fieldCount} followed by the
/// canonical real fields in ParticleSet::realFieldNames() order, then ids,
/// neighbor counts, and time-step bins. A CRC-64 of the payload supports
/// integrity checks on restore.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "sph/particles.hpp"

namespace sphexa {

/// CRC-64 (ECMA-182 polynomial), table-driven.
class Crc64
{
public:
    static std::uint64_t compute(const std::byte* data, std::size_t n,
                                 std::uint64_t seed = 0)
    {
        static const auto table = makeTable();
        std::uint64_t crc = ~seed;
        for (std::size_t i = 0; i < n; ++i)
        {
            crc = table[(crc ^ std::uint64_t(data[i])) & 0xff] ^ (crc >> 8);
        }
        return ~crc;
    }

    static std::uint64_t compute(const std::vector<std::byte>& buf)
    {
        return compute(buf.data(), buf.size());
    }

private:
    static std::array<std::uint64_t, 256> makeTable()
    {
        std::array<std::uint64_t, 256> t{};
        const std::uint64_t poly = 0xC96C5795D7870F42ULL; // reflected ECMA-182
        for (std::uint64_t i = 0; i < 256; ++i)
        {
            std::uint64_t crc = i;
            for (int b = 0; b < 8; ++b)
            {
                crc = (crc & 1) ? (crc >> 1) ^ poly : crc >> 1;
            }
            t[std::size_t(i)] = crc;
        }
        return t;
    }
};

namespace detail {

// Both skip memcpy for n == 0: the data() of an empty vector may be null,
// and memcpy must not be passed a null pointer even for zero bytes.

template<class T>
void appendRaw(std::vector<std::byte>& buf, const T* data, std::size_t n)
{
    if (n == 0) return;
    std::size_t off = buf.size();
    buf.resize(off + n * sizeof(T));
    std::memcpy(buf.data() + off, data, n * sizeof(T));
}

template<class T>
void readRaw(const std::vector<std::byte>& buf, std::size_t& cursor, T* data,
             std::size_t n)
{
    if (cursor + n * sizeof(T) > buf.size())
    {
        throw std::runtime_error("deserialize: truncated buffer");
    }
    if (n == 0) return;
    std::memcpy(data, buf.data() + cursor, n * sizeof(T));
    cursor += n * sizeof(T);
}

} // namespace detail

// "SPHEXA" + format version; v2 added the per-particle signal velocity
// field (ParticleSet::vsig) to the canonical real-field list, so v1
// checkpoints fail loudly on the magic instead of misaligning field data.
inline constexpr std::uint64_t serializeMagic = 0x5350484558410002ULL;

/// Serialize the particle set (plus simulation time and step) to bytes.
template<class T>
std::vector<std::byte> serialize(const ParticleSet<T>& ps, T time = T(0),
                                 std::uint64_t step = 0)
{
    std::vector<std::byte> buf;
    auto fields = ps.realFields();
    std::uint64_t header[5] = {serializeMagic, sizeof(T), ps.size(), fields.size(), step};
    detail::appendRaw(buf, header, 5);
    detail::appendRaw(buf, &time, 1);
    for (auto* f : fields)
    {
        detail::appendRaw(buf, f->data(), f->size());
    }
    detail::appendRaw(buf, ps.id.data(), ps.id.size());
    detail::appendRaw(buf, ps.nc.data(), ps.nc.size());
    detail::appendRaw(buf, ps.bin.data(), ps.bin.size());
    return buf;
}

/// Particle state plus the simulation clock recovered by deserialize().
template<class T>
struct DeserializeResult
{
    ParticleSet<T> particles;
    T time = T(0);
    std::uint64_t step = 0;
};

/// Inverse of serialize(); throws on malformed input.
template<class T>
DeserializeResult<T> deserialize(const std::vector<std::byte>& buf)
{
    std::size_t cursor = 0;
    std::uint64_t header[5];
    detail::readRaw(buf, cursor, header, 5);
    if (header[0] != serializeMagic) throw std::runtime_error("deserialize: bad magic");
    if (header[1] != sizeof(T)) throw std::runtime_error("deserialize: precision mismatch");

    DeserializeResult<T> out;
    out.step = header[4];
    detail::readRaw(buf, cursor, &out.time, 1);

    // check both counts against the payload before anything is allocated:
    // a corrupt count must throw here, not size the particle vectors
    const std::size_t fieldCount = ParticleSet<T>::realFieldNames().size();
    if (header[3] != fieldCount) throw std::runtime_error("deserialize: field count mismatch");
    const std::size_t perParticle = fieldCount * sizeof(T) + sizeof(out.particles.id[0]) +
                                    sizeof(out.particles.nc[0]) + sizeof(out.particles.bin[0]);
    const std::size_t payload = buf.size() - cursor;
    if (header[2] > payload / perParticle || header[2] * perParticle != payload)
    {
        throw std::runtime_error("deserialize: particle count does not match the payload");
    }

    std::size_t n = header[2];
    out.particles.resize(n);
    for (auto* f : out.particles.realFields())
    {
        detail::readRaw(buf, cursor, f->data(), n);
    }
    detail::readRaw(buf, cursor, out.particles.id.data(), n);
    detail::readRaw(buf, cursor, out.particles.nc.data(), n);
    detail::readRaw(buf, cursor, out.particles.bin.data(), n);
    return out;
}

} // namespace sphexa
