#pragma once

/// \file sfc_sort.hpp
/// Per-step SFC particle reordering: the "sort" half of the sorted-reorder +
/// cluster neighbor-search subsystem (tree/cluster_list.hpp).
///
/// Consecutive particles along a Morton/Hilbert curve are spatial neighbors,
/// so physically storing the ParticleSet in curve order makes every
/// downstream sweep cache-local: the octree permutation collapses to
/// (near-)identity, neighbor lists reference nearby memory, and fixed-size
/// runs of consecutive particles form the tight clusters the pseudo-Verlet
/// interaction lists group by (Gonnet arXiv:1404.2303; Shamrock's
/// sort-then-cluster GPU pipeline, arXiv:2503.09713).
///
/// The sorter is deterministic: key ties break by particle id, then by
/// pre-sort index, so the sorted order is a function of the particles, not
/// of the order they were stored in (the octree, which breaks ties by
/// index, then finds them in id order). It applies
/// ParticleSet::reorder to every per-particle field — kinematics, the
/// Adams-Bashforth du_m1 history, ids, time-step bins — and keeps its key
/// and permutation buffers across steps so a steady-state resort allocates
/// nothing. State that is NOT per-particle needs no remap: AWF scheduling
/// weights are per-worker, and the WCSPH ghost bracket is created after the
/// reorder runs (phase L precedes phase K in the pipeline), so ghosts never
/// move. Neighbor lists are invalidated by a resort; the pipeline refills
/// them in phase B before any consumer runs.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/particles.hpp"
#include "tree/hilbert.hpp"

namespace sphexa {

/// Inverse of a permutation: out[perm[k]] = k. Applying reorder(perm) then
/// reorder(invertPermutation(perm)) restores the original field order
/// bitwise (property-tested in tests/test_cluster_list.cpp).
inline std::vector<std::size_t> invertPermutation(std::span<const std::size_t> perm)
{
    std::vector<std::size_t> inv(perm.size());
    for (std::size_t k = 0; k < perm.size(); ++k)
    {
        if (perm[k] >= perm.size())
        {
            throw std::invalid_argument("invertPermutation: out-of-range entry");
        }
        inv[perm[k]] = k;
    }
    return inv;
}

/// Reusable SFC reordering pass. One instance per driver: the key and
/// permutation buffers persist across steps (no per-step allocation once
/// warm), and perm() exposes the last applied permutation so callers can
/// un-permute derived state.
template<class T>
class SfcSorter
{
public:
    /// Sort \p ps into SFC order along \p curve. Returns true when a
    /// reorder was applied; false when the set was already sorted (the
    /// steady-state fast path — small per-step displacements rarely change
    /// the curve order), in which case perm() is the identity.
    bool apply(ParticleSet<T>& ps, const Box<T>& box, SfcCurve curve)
    {
        std::size_t n = ps.size();
        keys_.resize(n);
        parallelFor(n, [&](std::size_t i, std::size_t) {
            keys_[i] = sfcKey(curve, Vec3<T>{ps.x[i], ps.y[i], ps.z[i]}, box);
        });

        perm_.resize(n);
        std::iota(perm_.begin(), perm_.end(), std::size_t(0));
        auto before = [&](std::size_t a, std::size_t b) {
            if (keys_[a] != keys_[b]) return keys_[a] < keys_[b];
            return ps.id[a] != ps.id[b] ? ps.id[a] < ps.id[b] : a < b;
        };
        if (std::is_sorted(perm_.begin(), perm_.end(), before)) return false;

        std::sort(perm_.begin(), perm_.end(), before);
        ps.reorder(perm_);
        return true;
    }

    /// Permutation of the last apply(): perm()[k] is the pre-sort index of
    /// the particle now in slot k (identity when apply() returned false).
    const std::vector<std::size_t>& perm() const { return perm_; }

    const std::vector<std::uint64_t>& keys() const { return keys_; }

private:
    std::vector<std::uint64_t> keys_;
    std::vector<std::size_t>   perm_;
};

} // namespace sphexa
