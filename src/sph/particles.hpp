#pragma once

/// \file particles.hpp
/// Structure-of-arrays particle container: the central data structure of the
/// mini-app.
///
/// All per-particle state lives in separate contiguous arrays (the layout the
/// three parent codes converge to for vectorization), 64-bit per the paper's
/// precision requirement (templated, instantiated with double by default).
/// Fields are enumerable by name so the checkpoint/restart, SDC-detection and
/// I/O substrates can treat the container generically.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sphexa {

/// Per-particle state for the SPH solver, structure-of-arrays.
template<class T>
class ParticleSet
{
public:
    using Real = T;

    // --- kinematics ---
    std::vector<T> x, y, z;    ///< positions
    std::vector<T> vx, vy, vz; ///< velocities
    std::vector<T> ax, ay, az; ///< accelerations (SPH + gravity)

    // --- thermodynamics / SPH state ---
    std::vector<T> m;      ///< particle mass (equal or variable, Table 2)
    std::vector<T> h;      ///< smoothing length
    std::vector<T> rho;    ///< density
    std::vector<T> p;      ///< pressure
    std::vector<T> c;      ///< sound speed
    std::vector<T> u;      ///< specific internal energy
    std::vector<T> du;     ///< du/dt
    std::vector<T> du_m1;  ///< du/dt at previous step (Adams-Bashforth pair)
    std::vector<T> gradh;  ///< grad-h correction term (Omega_a)
    std::vector<T> xmass;  ///< generalized volume-element weight X_a
    std::vector<T> vol;    ///< volume element V_a = X_a / kx_a
    std::vector<T> divv;   ///< velocity divergence
    std::vector<T> curlv;  ///< |velocity curl| (Balsara switch input)
    std::vector<T> balsara;///< Balsara limiter value in [0, 1]
    std::vector<T> dt;     ///< per-particle time-step (individual stepping)
    std::vector<T> vsig;   ///< max signal velocity seen by this particle in
                           ///< its last force pass (per-particle CFL input;
                           ///< zero until the first momentum/energy pass)

    // --- IAD gradient coefficients (symmetric 3x3 inverse, 6 components) ---
    std::vector<T> c11, c12, c13, c22, c23, c33;

    // --- identity / bookkeeping ---
    std::vector<std::uint64_t> id;  ///< globally unique particle id
    std::vector<int>           nc;  ///< neighbor count of the last search
    std::vector<int>           bin; ///< 2^k time-step bin (individual stepping)

    ParticleSet() = default;

    explicit ParticleSet(std::size_t n) { resize(n); }

    std::size_t size() const { return x.size(); }
    bool empty() const { return x.empty(); }

    void resize(std::size_t n)
    {
        for (auto* f : realFields())
            f->resize(n, T(0));
        id.resize(n, 0);
        nc.resize(n, 0);
        bin.resize(n, 0);
    }

    void reserve(std::size_t n)
    {
        for (auto* f : realFields())
            f->reserve(n);
        id.reserve(n);
        nc.reserve(n);
        bin.reserve(n);
    }

    void clear() { resize(0); }

    /// All floating-point fields, in a fixed canonical order.
    std::vector<std::vector<T>*> realFields()
    {
        return {&x,   &y,   &z,    &vx,    &vy,     &vz,  &ax,  &ay,  &az,  &m,
                &h,   &rho, &p,    &c,     &u,      &du,  &du_m1, &gradh, &xmass, &vol,
                &divv, &curlv, &balsara, &dt, &c11, &c12, &c13, &c22, &c23, &c33,
                &vsig};
    }

    std::vector<const std::vector<T>*> realFields() const
    {
        auto fields = const_cast<ParticleSet*>(this)->realFields();
        return {fields.begin(), fields.end()};
    }

    /// Canonical field names, index-aligned with realFields().
    static const std::vector<std::string>& realFieldNames()
    {
        static const std::vector<std::string> names = {
            "x",   "y",   "z",    "vx",    "vy",     "vz",  "ax",  "ay",  "az",  "m",
            "h",   "rho", "p",    "c",     "u",      "du",  "du_m1", "gradh", "xmass", "vol",
            "divv", "curlv", "balsara", "dt", "c11", "c12", "c13", "c22", "c23", "c33",
            "vsig"};
        return names;
    }

    /// Access a floating-point field by name; throws on unknown name.
    std::vector<T>& field(std::string_view name)
    {
        const auto& names = realFieldNames();
        auto fields = realFields();
        for (std::size_t i = 0; i < names.size(); ++i)
        {
            if (names[i] == name) return *fields[i];
        }
        throw std::out_of_range("ParticleSet: unknown field " + std::string(name));
    }

    /// Append particle \p j of \p src to this set (used by halo exchange and
    /// particle migration).
    void appendFrom(const ParticleSet& src, std::size_t j)
    {
        auto dstFields = realFields();
        auto srcFields = src.realFields();
        for (std::size_t f = 0; f < dstFields.size(); ++f)
        {
            dstFields[f]->push_back((*srcFields[f])[j]);
        }
        id.push_back(src.id[j]);
        nc.push_back(src.nc[j]);
        bin.push_back(src.bin[j]);
    }

    /// Extract the particles at \p indices into a new set.
    ParticleSet gather(std::span<const std::size_t> indices) const
    {
        ParticleSet out;
        out.reserve(indices.size());
        for (std::size_t j : indices)
            out.appendFrom(*this, j);
        return out;
    }

    /// Remove the particles at \p indices (must be sorted ascending).
    void eraseSorted(std::span<const std::size_t> indices)
    {
        if (indices.empty()) return;
        std::size_t n = size();
        std::vector<char> dead(n, 0);
        for (std::size_t j : indices)
            dead[j] = 1;
        std::size_t w = 0;
        auto fields = realFields();
        for (std::size_t r = 0; r < n; ++r)
        {
            if (dead[r]) continue;
            if (w != r)
            {
                for (auto* f : fields)
                    (*f)[w] = (*f)[r];
                id[w]  = id[r];
                nc[w]  = nc[r];
                bin[w] = bin[r];
            }
            ++w;
        }
        resize(w);
    }

    /// Concatenate all of \p other onto this set.
    void append(const ParticleSet& other)
    {
        auto dstFields = realFields();
        auto srcFields = other.realFields();
        for (std::size_t f = 0; f < dstFields.size(); ++f)
        {
            dstFields[f]->insert(dstFields[f]->end(), srcFields[f]->begin(), srcFields[f]->end());
        }
        id.insert(id.end(), other.id.begin(), other.id.end());
        nc.insert(nc.end(), other.nc.begin(), other.nc.end());
        bin.insert(bin.end(), other.bin.begin(), other.bin.end());
    }

    /// Slots in ascending id order: the permutation reorder() takes to store
    /// the set in id order, and the join of two sets on particle id.
    std::vector<std::size_t> idOrder() const
    {
        std::vector<std::size_t> order(size());
        std::iota(order.begin(), order.end(), std::size_t(0));
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) { return id[a] < id[b]; });
        return order;
    }

    /// Reorder all fields by the permutation \p order (order[k] = old index
    /// of the particle that moves to slot k). Used after SFC sorting.
    void reorder(std::span<const std::size_t> order)
    {
        std::size_t n = size();
        if (order.size() != n) throw std::invalid_argument("reorder: bad permutation size");
        std::vector<T> tmp(n);
        for (auto* f : realFields())
        {
            for (std::size_t k = 0; k < n; ++k)
                tmp[k] = (*f)[order[k]];
            f->swap(tmp);
        }
        std::vector<std::uint64_t> tmpId(n);
        for (std::size_t k = 0; k < n; ++k)
            tmpId[k] = id[order[k]];
        id.swap(tmpId);
        std::vector<int> tmpI(n);
        for (std::size_t k = 0; k < n; ++k)
            tmpI[k] = nc[order[k]];
        nc.swap(tmpI);
        for (std::size_t k = 0; k < n; ++k)
            tmpI[k] = bin[order[k]];
        bin.swap(tmpI);
    }
};

using ParticleSetD = ParticleSet<double>;
using ParticleSetF = ParticleSet<float>;

} // namespace sphexa
