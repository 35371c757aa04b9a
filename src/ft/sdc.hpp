#pragma once

/// \file sdc.hpp
/// Silent-data-corruption (SDC) detectors — Table 4's "Error Detection:
/// Silent data corruption detectors" (refs [6, 44] of the paper).
///
/// Four complementary detectors, each cheap enough to run every step:
///  - RangeDetector: physical-plausibility bounds per field (rho > 0,
///    h > 0, everything finite). Catches large corruptions instantly.
///  - TemporalDetector: per-particle relative jump versus the previous
///    step beyond a threshold — fields evolve smoothly at CFL-limited
///    steps, so a silent bit flip in a mantissa shows up as a jump.
///  - ChecksumDetector: CRC-64 over read-only data between uses (catches
///    memory corruption of supposedly constant arrays, e.g. masses).
///  - ConservationDetector: drift of global invariants (total mass,
///    momentum, energy) beyond tolerance — an algorithm-based (ABFT-style)
///    end-to-end check.
///
/// The temporal and checksum detectors follow particles by id, not by
/// slot: the phase-L SFC reorder (tree/sfc_sort.hpp) permutes the set on
/// every Global walk, and a permutation is not a corruption.
///
/// SdcInjector flips a chosen bit of a chosen field element so detector
/// recall/overhead can be measured (bench_sdc).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "math/rng.hpp"
#include "sph/conservation.hpp"
#include "sph/particles.hpp"

namespace sphexa {

struct SdcDetection
{
    std::string detector;
    std::string field;
    std::size_t particle = 0;
    std::string reason;
};

using SdcReport = std::vector<SdcDetection>;

/// Physical-plausibility bounds.
template<class T>
class RangeDetector
{
public:
    /// Scan strictly-positive fields and finiteness of all fields.
    SdcReport scan(ParticleSet<T>& ps) const
    {
        SdcReport report;
        const auto& names = ParticleSet<T>::realFieldNames();
        auto fields = ps.realFields();
        for (std::size_t f = 0; f < fields.size(); ++f)
        {
            const auto& v = *fields[f];
            bool positive = names[f] == "rho" || names[f] == "h" || names[f] == "m";
            for (std::size_t i = 0; i < v.size(); ++i)
            {
                if (!std::isfinite(v[i]))
                {
                    report.push_back({"range", names[f], i, "non-finite"});
                }
                else if (positive && v[i] <= T(0))
                {
                    report.push_back({"range", names[f], i, "non-positive"});
                }
            }
        }
        return report;
    }
};

/// Relative-jump detector against a stored snapshot of selected fields.
template<class T>
class TemporalDetector
{
public:
    explicit TemporalDetector(std::vector<std::string> fields, T maxRelativeJump = T(0.5))
        : fields_(std::move(fields)), threshold_(maxRelativeJump)
    {
    }

    /// Record the current state as the reference (stored in id order).
    void snapshot(ParticleSet<T>& ps)
    {
        auto slots = ps.idOrder();
        ids_.resize(slots.size());
        for (std::size_t k = 0; k < slots.size(); ++k)
            ids_[k] = ps.id[slots[k]];
        prev_.clear();
        for (const auto& f : fields_)
        {
            const auto& v = ps.field(f);
            auto& old     = prev_.emplace_back(slots.size());
            for (std::size_t k = 0; k < slots.size(); ++k)
                old[k] = v[slots[k]];
        }
        armed_ = true;
    }

    /// Compare every particle with its snapshot entry of the same id;
    /// detections name the particle's current slot. Particles absent from
    /// the snapshot are not compared.
    SdcReport scan(ParticleSet<T>& ps) const
    {
        SdcReport report;
        if (!armed_) return report;
        constexpr std::size_t none = std::size_t(-1);
        std::vector<std::size_t> ref(ps.size(), none);
        for (std::size_t i = 0; i < ps.size() && !ids_.empty(); ++i)
        {
            // ids are usually one contiguous range: try its direct entry first
            std::uint64_t k = ps.id[i] - ids_.front();
            if (k < ids_.size() && ids_[k] == ps.id[i])
            {
                ref[i] = std::size_t(k);
                continue;
            }
            auto it = std::lower_bound(ids_.begin(), ids_.end(), ps.id[i]);
            if (it != ids_.end() && *it == ps.id[i]) ref[i] = std::size_t(it - ids_.begin());
        }
        for (std::size_t f = 0; f < fields_.size(); ++f)
        {
            const auto& cur = ps.field(fields_[f]);
            const auto& old = prev_[f];
            for (std::size_t i = 0; i < cur.size(); ++i)
            {
                if (ref[i] == none) continue;
                T scale = std::max(std::abs(old[ref[i]]), T(1e-12));
                if (std::abs(cur[i] - old[ref[i]]) > threshold_ * scale)
                {
                    report.push_back({"temporal", fields_[f], i, "jump"});
                }
            }
        }
        return report;
    }

private:
    std::vector<std::string> fields_;
    T threshold_;
    std::vector<std::uint64_t> ids_;   ///< snapshot ids, ascending
    std::vector<std::vector<T>> prev_; ///< snapshot values, in ids_ order
    bool armed_ = false;
};

/// CRC over fields that must not change between checks (e.g. masses with
/// equal-mass particles, ids).
template<class T>
class ChecksumDetector
{
public:
    explicit ChecksumDetector(std::vector<std::string> fields)
        : fields_(std::move(fields))
    {
    }

    /// Sum (mod 2^64) of the CRC of every particle's (id, value) pair: it
    /// does not depend on storage order, and a change to any one value
    /// changes its pair's CRC (a burst of at most 64 bits) and so the sum.
    static std::uint64_t crcOf(const std::vector<std::uint64_t>& ids, const std::vector<T>& v)
    {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < v.size(); ++i)
        {
            std::byte pair[sizeof(std::uint64_t) + sizeof(T)];
            std::memcpy(pair, &ids[i], sizeof(std::uint64_t));
            std::memcpy(pair + sizeof(std::uint64_t), &v[i], sizeof(T));
            sum += Crc64::compute(pair, sizeof pair);
        }
        return sum;
    }

    void snapshot(ParticleSet<T>& ps)
    {
        crcs_.clear();
        for (const auto& f : fields_)
        {
            crcs_.push_back(crcOf(ps.id, ps.field(f)));
        }
        armed_ = true;
    }

    SdcReport scan(ParticleSet<T>& ps) const
    {
        SdcReport report;
        if (!armed_) return report;
        for (std::size_t f = 0; f < fields_.size(); ++f)
        {
            if (crcOf(ps.id, ps.field(fields_[f])) != crcs_[f])
            {
                report.push_back({"checksum", fields_[f], 0, "crc mismatch"});
            }
        }
        return report;
    }

private:
    std::vector<std::string> fields_;
    std::vector<std::uint64_t> crcs_;
    bool armed_ = false;
};

/// Conservation-law (ABFT-style) detector over global invariants.
template<class T>
class ConservationDetector
{
public:
    explicit ConservationDetector(T relTolerance = T(1e-3)) : tol_(relTolerance) {}

    void snapshot(const Conservation<T>& c) { ref_ = c; armed_ = true; }

    SdcReport scan(const Conservation<T>& c) const
    {
        SdcReport report;
        if (!armed_) return report;
        if (relativeDrift(c.mass, ref_.mass, ref_.mass) > tol_)
        {
            report.push_back({"conservation", "mass", 0, "drift"});
        }
        T eScale = std::abs(ref_.totalEnergy()) + std::abs(ref_.kineticEnergy) + T(1e-12);
        if (std::abs(c.totalEnergy() - ref_.totalEnergy()) > tol_ * eScale)
        {
            report.push_back({"conservation", "energy", 0, "drift"});
        }
        return report;
    }

private:
    T tol_;
    Conservation<T> ref_{};
    bool armed_ = false;
};

/// Ground-truth fault injector: flips bit \p bit of element \p index of the
/// named field.
template<class T>
struct SdcInjector
{
    std::string field;
    std::size_t index = 0;
    int bit = 62; // high exponent bit: a "large" corruption by default

    void inject(ParticleSet<T>& ps) const
    {
        auto& v = ps.field(field);
        if (v.empty()) return;
        T& x = v[index % v.size()];
        std::uint64_t raw;
        static_assert(sizeof(T) == sizeof(raw) || sizeof(T) == 4);
        if constexpr (sizeof(T) == 8)
        {
            std::memcpy(&raw, &x, 8);
            raw ^= (std::uint64_t(1) << (bit % 64));
            std::memcpy(&x, &raw, 8);
        }
        else
        {
            std::uint32_t r32;
            std::memcpy(&r32, &x, 4);
            r32 ^= (std::uint32_t(1) << (bit % 32));
            std::memcpy(&x, &r32, 4);
        }
    }

    /// A random injection drawn deterministically from \p rng.
    static SdcInjector random(Xoshiro256pp& rng, std::size_t nParticles)
    {
        const auto& names = ParticleSet<T>::realFieldNames();
        SdcInjector inj;
        inj.field = names[rng.uniformInt(names.size())];
        inj.index = rng.uniformInt(nParticles ? nParticles : 1);
        inj.bit   = int(rng.uniformInt(sizeof(T) * 8));
        return inj;
    }
};

} // namespace sphexa
