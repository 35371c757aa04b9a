#pragma once

/// \file cost_model.hpp
/// Calibrated per-unit execution costs of the SPH pipeline, measured by
/// running the real kernels of this library on the host machine.
///
/// The cluster simulator (cluster_sim.hpp) multiplies real per-rank *work
/// counts* (neighbor interactions, tree particles, gravity interactions) by
/// these per-unit costs to predict per-rank compute time on a target
/// machine. Phase *proportions* therefore come from measured kernel costs;
/// only the absolute scale is pinned to the paper's measured per-step times
/// (one anchor per figure, documented in EXPERIMENTS.md).

#include <cstddef>

#include "core/simulation.hpp"
#include "domain/box.hpp"
#include "ic/lattice.hpp"
#include "perf/timer.hpp"
#include "sph/density.hpp"
#include "sph/divcurl.hpp"
#include "sph/iad.hpp"
#include "sph/momentum_energy.hpp"
#include "sph/smoothing_length.hpp"
#include "tree/cluster_list.hpp"
#include "tree/gravity.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Per-unit costs (seconds) of the pipeline pieces on the calibration host,
/// single-threaded.
struct CostModel
{
    double secondsPerSphInteraction    = 2.0e-8; ///< density+IAD+divcurl+momentum, per pair visit
    double secondsPerNeighborSearch    = 4.0e-9; ///< cluster search cost per pair found
    double secondsPerTreeParticle      = 2.0e-7; ///< tree build per particle
    double secondsPerGravityInteraction = 5.0e-8; ///< P2P or M2P, averaged
    double secondsPerParticleOverhead  = 5.0e-8; ///< EOS/update, per particle

    /// Measure the real kernels on this host with a small uniform lattice.
    /// Deterministic workload; single-threaded timings (OpenMP loops still
    /// run, so measurements are taken per interaction across all threads'
    /// useful work — we divide by wall time * threads is avoided by using
    /// total counts and wall time on the assumption of saturation; for
    /// calibration stability a modest N is used).
    static CostModel calibrate(std::size_t side = 20, unsigned targetNeighbors = 60)
    {
        CostModel cm;

        ParticleSet<double> ps;
        Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
        cubicLattice(ps, side, side, side, box);
        std::size_t n = ps.size();
        for (std::size_t i = 0; i < n; ++i)
        {
            ps.m[i] = 1.0 / double(n);
            ps.h[i] = initialSmoothingLength(n, box, targetNeighbors);
            ps.u[i] = 1.0;
        }

        Kernel<double> kernel(KernelType::Sinc);

        // tree build
        Timer t;
        Octree<double> tree;
        tree.build(ps.x, ps.y, ps.z, box);
        cm.secondsPerTreeParticle = t.lap() / double(n);

        // neighbor search
        NeighborList<double> nl(n, 256);
        ClusterWorkspace<double> ws;
        findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, nl, ws, kClusterSize);
        std::size_t pairs = nl.totalNeighbors();
        cm.secondsPerNeighborSearch = t.lap() / double(pairs ? pairs : 1);

        // SPH pipeline (density + IAD + divcurl + momentum)
        computeVolumeElementWeights(ps, VolumeElements::Standard);
        t.reset();
        computeDensity(ps, nl, kernel, box);
        for (std::size_t i = 0; i < n; ++i)
        {
            ps.p[i] = 0.66 * ps.rho[i] * ps.u[i];
            ps.c[i] = 1.0;
        }
        computeIadCoefficients(ps, nl, kernel, box);
        computeDivCurl(ps, nl, kernel, box, GradientMode::IAD);
        computeMomentumEnergy(ps, nl, kernel, box, GradientMode::IAD);
        cm.secondsPerSphInteraction = t.lap() / double(4 * (pairs ? pairs : 1));

        // gravity (quadrupole walk)
        GravityParams<double> gp;
        gp.theta = 0.5;
        GravitySolver<double> solver;
        typename Octree<double>::BuildParams bp;
        bp.leafSize = 16;
        Octree<double> gtree;
        gtree.build(ps.x, ps.y, ps.z, box, bp);
        solver.prepare(gtree, ps, gp);
        t.reset();
        GravityStats gs;
        solver.accumulate(ps, &gs);
        std::size_t ginter = gs.p2pInteractions + gs.m2pInteractions;
        cm.secondsPerGravityInteraction = t.lap() / double(ginter ? ginter : 1);

        cm.secondsPerParticleOverhead = cm.secondsPerSphInteraction * 2.0;
        return cm;
    }
};

} // namespace sphexa
