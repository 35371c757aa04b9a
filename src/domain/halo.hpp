#pragma once

/// \file halo.hpp
/// Halo (ghost) particle discovery and field refresh between simulated
/// ranks. The SPH interaction stencil is 2 h, so each rank needs copies of
/// all remote particles within 2 h_max (times a safety factor for the h
/// iteration) of its own particles.
///
/// Discovery is box-based and decomposition-agnostic: every rank publishes
/// the AABB of its local particles expanded by the interaction margin
/// (allgather), then each pair of ranks exchanges exactly the particles
/// falling inside the other's expanded box (minimum-image aware for
/// periodic axes). This is a superset of the exact halo — correct, with
/// modest over-communication, matching what production SPH codes do with
/// coarse halo descriptors.
///
/// sendParticles/receiveParticles are the one way whole particles move
/// between ranks: the ghosts of exchangeHalos and the distributed driver's
/// migration (domain/distributed.hpp).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "domain/box.hpp"
#include "parallel/comm.hpp"
#include "sph/particles.hpp"

namespace sphexa {

/// Ghost bookkeeping on one rank: ghosts are appended to the local set;
/// entry g came from sourceRank[g] at local index sourceIndex[g] there.
struct HaloMap
{
    std::vector<int>         sourceRank;
    std::vector<std::uint32_t> sourceIndex;
    /// Per remote rank: which of *my* local particles I sent as their ghosts.
    std::vector<std::vector<std::uint32_t>> sentTo; // [rank][k] = local index

    std::size_t ghostCount() const { return sourceRank.size(); }

    void clear(int nRanks)
    {
        sourceRank.clear();
        sourceIndex.clear();
        sentTo.assign(nRanks, {});
    }
};

/// Send the particles \p picks of \p ps from rank \p src to rank \p dst as
/// two messages: every real field of the picks, field by field, under
/// \p tag, then their ids under tag + "-id". Halo exchange and particle
/// migration both move particles this way.
template<class T, class Index>
void sendParticles(simmpi::Communicator& comm, int src, int dst, const std::string& tag,
                   const ParticleSet<T>& ps, const std::vector<Index>& picks)
{
    auto fields = ps.realFields();
    std::vector<T> packed;
    packed.reserve(picks.size() * fields.size());
    for (const auto* f : fields)
    {
        for (auto i : picks)
            packed.push_back((*f)[i]);
    }
    std::vector<std::uint64_t> ids;
    ids.reserve(picks.size());
    for (auto i : picks)
        ids.push_back(ps.id[i]);
    comm.sendVector<T>(src, dst, tag, packed);
    comm.sendVector<std::uint64_t>(src, dst, tag + "-id", ids);
}

/// Append to \p ps the particles rank \p src sent rank \p dst with
/// sendParticles under \p tag (delivered by a comm.exchange() since);
/// returns how many. Throws std::runtime_error when the payload does not
/// hold one value per real field for each id.
template<class T>
std::size_t receiveParticles(simmpi::Communicator& comm, int dst, int src,
                             const std::string& tag, ParticleSet<T>& ps)
{
    auto ids    = comm.receiveVector<std::uint64_t>(dst, src, tag + "-id");
    auto packed = comm.receiveVector<T>(dst, src, tag);
    std::size_t k = ids.size();
    if (packed.size() != k * ParticleSet<T>::realFieldNames().size())
        throw std::runtime_error(tag + ": size mismatch");
    std::size_t base = ps.size();
    ps.resize(base + k);
    auto fields = ps.realFields();
    for (std::size_t f = 0; f < fields.size(); ++f)
    {
        for (std::size_t g = 0; g < k; ++g)
            (*fields[f])[base + g] = packed[f * k + g];
    }
    for (std::size_t g = 0; g < k; ++g)
        ps.id[base + g] = ids[g];
    return k;
}

/// Does point p fall within \p box expanded by \p margin (minimum-image on
/// the periodic axes of \p global)?
template<class T>
bool inExpandedBox(const Vec3<T>& p, const Box<T>& box, T margin, const Box<T>& global)
{
    return distanceSqToBox(p, box.lo, box.hi, global) <= margin * margin;
}

/// Exchange halos between all ranks.
///
/// \param comm     the simulated communicator
/// \param locals   per-rank particle sets (locals only; ghosts are appended)
/// \param maps     per-rank halo maps (filled)
/// \param global   the global box (periodicity)
/// \param margin   interaction margin (>= 2 max h, with safety factor)
template<class T>
void exchangeHalos(simmpi::Communicator& comm, std::vector<ParticleSet<T>>& locals,
                   std::vector<HaloMap>& maps, const Box<T>& global, T margin)
{
    int P = comm.size();

    // publish per-rank AABBs of local particles (allgather of 6 T's)
    std::vector<Box<T>> rankBoxes(P);
    {
        std::vector<std::vector<T>> contributions(P);
        for (int r = 0; r < P; ++r)
        {
            Box<T> b = computeBoundingBox<T>(locals[r].x, locals[r].y, locals[r].z, T(0));
            contributions[r] = {b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z};
        }
        auto flat = comm.allgatherv(contributions);
        for (int r = 0; r < P; ++r)
        {
            rankBoxes[r] = Box<T>{{flat[6 * r + 0], flat[6 * r + 1], flat[6 * r + 2]},
                                  {flat[6 * r + 3], flat[6 * r + 4], flat[6 * r + 5]}};
        }
    }

    // select and send halo candidates per (src, dst) pair
    for (int src = 0; src < P; ++src)
    {
        maps[src].clear(P);
    }
    for (int src = 0; src < P; ++src)
    {
        for (int dst = 0; dst < P; ++dst)
        {
            if (dst == src) continue;
            std::vector<std::uint32_t> picks;
            const auto& ps = locals[src];
            for (std::size_t i = 0; i < ps.size(); ++i)
            {
                Vec3<T> p{ps.x[i], ps.y[i], ps.z[i]};
                if (inExpandedBox(p, rankBoxes[dst], margin, global))
                {
                    picks.push_back(std::uint32_t(i));
                }
            }
            maps[src].sentTo[dst] = picks;
            sendParticles(comm, src, dst, "halo", ps, picks);
            comm.sendVector<std::uint32_t>(src, dst, "halo-idx", picks);
        }
    }

    comm.exchange();

    // receive and append ghosts
    for (int dst = 0; dst < P; ++dst)
    {
        for (int src = 0; src < P; ++src)
        {
            if (src == dst) continue;
            auto idx = comm.receiveVector<std::uint32_t>(dst, src, "halo-idx");
            if (receiveParticles(comm, dst, src, "halo", locals[dst]) != idx.size())
            {
                throw std::runtime_error("halo: packed size mismatch");
            }
            for (auto i : idx)
            {
                maps[dst].sourceRank.push_back(src);
                maps[dst].sourceIndex.push_back(i);
            }
        }
    }
}

/// Refresh a subset of fields on existing ghosts (after their owners
/// recomputed them, e.g. rho/p/c after the density + EOS phase). Ghost
/// layout is unchanged; only values are updated.
template<class T>
void refreshHaloFields(simmpi::Communicator& comm, std::vector<ParticleSet<T>>& locals,
                       const std::vector<HaloMap>& maps,
                       const std::vector<std::string>& fields,
                       const std::vector<std::size_t>& nLocal)
{
    int P = comm.size();
    for (int src = 0; src < P; ++src)
    {
        auto& ps = locals[src];
        for (int dst = 0; dst < P; ++dst)
        {
            if (dst == src) continue;
            const auto& picks = maps[src].sentTo[dst];
            std::vector<T> packed;
            packed.reserve(picks.size() * fields.size());
            for (const auto& fname : fields)
            {
                auto& f = ps.field(fname);
                for (auto i : picks)
                    packed.push_back(f[i]);
            }
            comm.sendVector<T>(src, dst, "halo-refresh", packed);
        }
    }
    comm.exchange();
    for (int dst = 0; dst < P; ++dst)
    {
        auto& ps = locals[dst];
        // ghost g of rank dst lives at index nLocal[dst] + g; collect the
        // ghost slots per source (robust to any append order)
        std::vector<std::vector<std::size_t>> slotsOf(P);
        for (std::size_t g = 0; g < maps[dst].ghostCount(); ++g)
        {
            slotsOf[maps[dst].sourceRank[g]].push_back(nLocal[dst] + g);
        }
        for (int src = 0; src < P; ++src)
        {
            if (src == dst) continue;
            auto packed = comm.receiveVector<T>(dst, src, "halo-refresh");
            const auto& slots = slotsOf[src];
            if (packed.size() != slots.size() * fields.size())
            {
                throw std::runtime_error("halo-refresh: size mismatch");
            }
            for (std::size_t f = 0; f < fields.size(); ++f)
            {
                auto& dstField = ps.field(fields[f]);
                for (std::size_t g = 0; g < slots.size(); ++g)
                {
                    dstField[slots[g]] = packed[f * slots.size() + g];
                }
            }
        }
    }
}

} // namespace sphexa
