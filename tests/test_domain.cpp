/// Domain decomposition tests: ORB and SFC partition invariants, halo
/// completeness, and the crucial equivalence property — a domain-decomposed
/// run produces the same physics as the shared-memory driver.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "core/simulation.hpp"
#include "domain/distributed.hpp"
#include "domain/orb.hpp"
#include "domain/sfc_partition.hpp"
#include "ic/evrard.hpp"
#include "ic/sedov.hpp"
#include "ic/square_patch.hpp"
#include "math/rng.hpp"
#include "step_variants.hpp"

using namespace sphexa;

namespace {

struct Cloud
{
    std::vector<double> x, y, z, w;
};

Cloud randomCloud(std::size_t n, std::uint64_t seed, bool skewed = false)
{
    Cloud c;
    Xoshiro256pp rng(seed);
    for (std::size_t i = 0; i < n; ++i)
    {
        if (skewed)
        {
            // clustered distribution (half the points in one corner octant)
            if (i % 2)
            {
                c.x.push_back(rng.uniform(0.0, 0.25));
                c.y.push_back(rng.uniform(0.0, 0.25));
                c.z.push_back(rng.uniform(0.0, 0.25));
            }
            else
            {
                c.x.push_back(rng.uniform());
                c.y.push_back(rng.uniform());
                c.z.push_back(rng.uniform());
            }
        }
        else
        {
            c.x.push_back(rng.uniform());
            c.y.push_back(rng.uniform());
            c.z.push_back(rng.uniform());
        }
        c.w.push_back(1.0);
    }
    return c;
}

} // namespace

// --- ORB ------------------------------------------------------------------------

class OrbSweep : public ::testing::TestWithParam<int> // rank count
{
};

TEST_P(OrbSweep, BalancedPartition)
{
    int P = GetParam();
    auto c = randomCloud(8000, 11);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto part = orbDecompose<double>(c.x, c.y, c.z, c.w, P, box);

    ASSERT_EQ(int(part.rankBoxes.size()), P);
    ASSERT_EQ(part.assignment.size(), c.x.size());

    // each rank's weight within 15% of the mean
    double mean = 8000.0 / P;
    for (int r = 0; r < P; ++r)
    {
        EXPECT_NEAR(part.rankWeights[r], mean, 0.15 * mean) << "rank " << r;
    }
}

TEST_P(OrbSweep, ParticlesInsideTheirBoxes)
{
    int P = GetParam();
    auto c = randomCloud(4000, 13);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto part = orbDecompose<double>(c.x, c.y, c.z, c.w, P, box);
    for (std::size_t i = 0; i < c.x.size(); ++i)
    {
        const auto& b = part.rankBoxes[part.assignment[i]];
        EXPECT_GE(c.x[i], b.lo.x - 1e-12);
        EXPECT_LE(c.x[i], b.hi.x + 1e-12);
        EXPECT_GE(c.y[i], b.lo.y - 1e-12);
        EXPECT_LE(c.y[i], b.hi.y + 1e-12);
        EXPECT_GE(c.z[i], b.lo.z - 1e-12);
        EXPECT_LE(c.z[i], b.hi.z + 1e-12);
    }
}

TEST_P(OrbSweep, BoxesTileTheDomain)
{
    int P = GetParam();
    auto c = randomCloud(4000, 17);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto part = orbDecompose<double>(c.x, c.y, c.z, c.w, P, box);
    double vol = 0;
    for (const auto& b : part.rankBoxes)
        vol += b.volume();
    EXPECT_NEAR(vol, box.volume(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ranks, OrbSweep, ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Orb, SkewedDistributionStillBalanced)
{
    auto c = randomCloud(8000, 19, true);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto part = orbDecompose<double>(c.x, c.y, c.z, c.w, 8, box);
    double mean = 1000;
    for (int r = 0; r < 8; ++r)
    {
        EXPECT_NEAR(part.rankWeights[r], mean, 0.2 * mean);
    }
}

TEST(Orb, RespectsWeights)
{
    // heavy particles on the left half: the split adapts
    std::size_t n = 1000;
    Cloud c = randomCloud(n, 23);
    for (std::size_t i = 0; i < n; ++i)
    {
        c.w[i] = c.x[i] < 0.5 ? 10.0 : 1.0;
    }
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto part = orbDecompose<double>(c.x, c.y, c.z, c.w, 2, box);
    double w0 = part.rankWeights[0], w1 = part.rankWeights[1];
    double total = w0 + w1;
    EXPECT_NEAR(w0 / total, 0.5, 0.05);
    // the cut plane must sit inside the heavy half (x < 0.5)
    EXPECT_LT(part.rankBoxes[0].hi.x, 0.5);
}

// --- SFC partition ----------------------------------------------------------------

class SfcSweep : public ::testing::TestWithParam<std::tuple<int, SfcCurve>>
{
};

TEST_P(SfcSweep, BalancedAndContiguous)
{
    auto [P, curve] = GetParam();
    auto c = randomCloud(8000, 29);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto part = sfcPartition<double>(c.x, c.y, c.z, c.w, P, box, curve);

    double mean = 8000.0 / P;
    for (int r = 0; r < P; ++r)
    {
        EXPECT_NEAR(part.rankWeights[r], mean, 0.15 * mean) << "rank " << r;
    }

    // contiguity along the curve: sort particles by key; rank must be
    // non-decreasing
    std::vector<std::uint64_t> keys(c.x.size());
    for (std::size_t i = 0; i < c.x.size(); ++i)
    {
        keys[i] = sfcKey(curve, Vec3<double>{c.x[i], c.y[i], c.z[i]}, box);
    }
    std::vector<std::size_t> order(c.x.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::sort(order.begin(), order.end(),
              [&](auto a, auto b) { return keys[a] < keys[b]; });
    int prev = 0;
    for (auto i : order)
    {
        EXPECT_GE(part.assignment[i], prev);
        prev = part.assignment[i];
    }
}

INSTANTIATE_TEST_SUITE_P(RanksAndCurves, SfcSweep,
                         ::testing::Combine(::testing::Values(1, 2, 5, 8, 16),
                                            ::testing::Values(SfcCurve::Morton,
                                                              SfcCurve::Hilbert)));

// --- halo exchange -----------------------------------------------------------------

TEST(Halo, GhostsCoverAllRemoteNeighbors)
{
    // set up a small uniform cloud split over 4 ranks, then verify: for
    // every local particle, all its true neighbors (from a global brute
    // force) are present locally (as locals or ghosts).
    std::size_t n = 3000;
    auto c = randomCloud(n, 31);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    double h = 0.05;

    ParticleSetD global(n);
    for (std::size_t i = 0; i < n; ++i)
    {
        global.x[i] = c.x[i];
        global.y[i] = c.y[i];
        global.z[i] = c.z[i];
        global.h[i] = h;
        global.id[i] = i;
    }

    int P = 4;
    auto part = sfcPartition<double>(c.x, c.y, c.z, c.w, P, box);
    std::vector<ParticleSetD> locals(P);
    for (std::size_t i = 0; i < n; ++i)
    {
        locals[part.assignment[i]].appendFrom(global, i);
    }

    simmpi::Communicator comm(P);
    std::vector<HaloMap> maps(P);
    exchangeHalos(comm, locals, maps, box, 2 * h);

    // global brute-force neighbor map by id
    for (int r = 0; r < P; ++r)
    {
        std::set<std::uint64_t> present(locals[r].id.begin(), locals[r].id.end());
        std::size_t nLoc = locals[r].size() - maps[r].ghostCount();
        for (std::size_t i = 0; i < nLoc; ++i)
        {
            Vec3<double> pi{locals[r].x[i], locals[r].y[i], locals[r].z[i]};
            for (std::size_t j = 0; j < n; ++j)
            {
                Vec3<double> d = box.delta(pi, {global.x[j], global.y[j], global.z[j]});
                if (norm2(d) < 4 * h * h)
                {
                    ASSERT_TRUE(present.count(j))
                        << "rank " << r << " missing neighbor " << j;
                }
            }
        }
    }
}

TEST(Halo, RefreshUpdatesGhostValues)
{
    std::size_t n = 500;
    auto c = randomCloud(n, 37);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    ParticleSetD global(n);
    for (std::size_t i = 0; i < n; ++i)
    {
        global.x[i] = c.x[i];
        global.y[i] = c.y[i];
        global.z[i] = c.z[i];
        global.h[i] = 0.08;
        global.id[i] = i;
        global.rho[i] = 0; // stale
    }
    int P = 3;
    auto part = sfcPartition<double>(c.x, c.y, c.z, c.w, P, box);
    std::vector<ParticleSetD> locals(P);
    for (std::size_t i = 0; i < n; ++i)
        locals[part.assignment[i]].appendFrom(global, i);
    std::vector<std::size_t> nLocal(P);
    for (int r = 0; r < P; ++r)
        nLocal[r] = locals[r].size();

    simmpi::Communicator comm(P);
    std::vector<HaloMap> maps(P);
    exchangeHalos(comm, locals, maps, box, 0.16);

    // owners compute rho = id + 1 for their locals
    for (int r = 0; r < P; ++r)
    {
        for (std::size_t i = 0; i < nLocal[r]; ++i)
            locals[r].rho[i] = double(locals[r].id[i]) + 1.0;
    }
    refreshHaloFields<double>(comm, locals, maps, {"rho"}, nLocal);

    // every ghost now carries its owner's value
    for (int r = 0; r < P; ++r)
    {
        for (std::size_t g = 0; g < maps[r].ghostCount(); ++g)
        {
            std::size_t idx = nLocal[r] + g;
            EXPECT_DOUBLE_EQ(locals[r].rho[idx], double(locals[r].id[idx]) + 1.0);
        }
    }
}

TEST(Halo, SentParticlesArriveBitwiseWithTheirIds)
{
    // the one pack/unpack of halo exchange and migration: a picked subset
    // arrives field by field and bitwise, appended after the receiver's own
    // particles, in two messages; a payload that does not hold one value
    // per real field for each id throws
    ParticleSetD src(10);
    auto fields = src.realFields();
    for (std::size_t f = 0; f < fields.size(); ++f)
        for (std::size_t i = 0; i < src.size(); ++i)
            (*fields[f])[i] = double(f) + 0.01 * double(i) + 1.0 / 3.0;
    for (std::size_t i = 0; i < src.size(); ++i)
        src.id[i] = 1000 + 7 * i;

    simmpi::Communicator comm(2);
    const std::vector<std::uint32_t> picks{7, 2, 9};
    sendParticles(comm, 0, 1, "t", src, picks);
    EXPECT_EQ(comm.traffic(0).messagesSent, 2u);
    EXPECT_EQ(comm.traffic(0).bytesSent,
              picks.size() * (fields.size() * sizeof(double) + sizeof(std::uint64_t)));
    comm.exchange();
    ParticleSetD dst(4);
    ASSERT_EQ(receiveParticles(comm, 1, 0, "t", dst), picks.size());
    ASSERT_EQ(dst.size(), 4 + picks.size());
    auto got = dst.realFields();
    for (std::size_t k = 0; k < picks.size(); ++k)
    {
        EXPECT_EQ(dst.id[4 + k], src.id[picks[k]]);
        for (std::size_t f = 0; f < fields.size(); ++f)
        {
            EXPECT_EQ((*got[f])[4 + k], (*fields[f])[picks[k]])
                << ParticleSetD::realFieldNames()[f] << " of pick " << k;
        }
    }

    comm.sendVector<double>(0, 1, "t", std::vector<double>(picks.size() * fields.size() - 1));
    comm.sendVector<std::uint64_t>(0, 1, "t-id", std::vector<std::uint64_t>(picks.size()));
    comm.exchange();
    EXPECT_THROW(receiveParticles(comm, 1, 0, "t", dst), std::runtime_error);
}

// --- distributed vs shared-memory equivalence ---------------------------------------

class DistributedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, DecompositionMethod>>
{
};

TEST_P(DistributedEquivalence, MatchesSharedMemoryDriver)
{
    auto [P, method] = GetParam();

    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = 12;
    pc.nz = 6;
    auto setup = makeSquarePatch(ps, pc);

    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 50;
    cfg.neighborTolerance = 10;
    cfg.decomposition = method;

    // phase D off: the distributed driver can't bucket missing pairs (halo
    // pairs)
    Simulation<double> shared(ps, setup.box, Eos<double>(setup.eos), cfg);
    shared.setPipeline(withoutMissingPairs(shared.pipeline()));
    DistributedSimulation<double> dist(ps, setup.box, Eos<double>(setup.eos), cfg, P);

    shared.computeForces();
    for (int s = 0; s < 3; ++s)
    {
        shared.advance();
        dist.advance();
    }

    auto g = dist.gather(); // id order
    const auto& ref = shared.particles();
    ASSERT_EQ(g.size(), ref.size());
    // join on id: the shared-memory driver stores its set in curve order,
    // so the gather's i-th particle is ref's i-th in id order
    auto refById = ref.idOrder();
    double maxDx = 0, maxDv = 0;
    for (std::size_t i = 0; i < g.size(); ++i)
    {
        std::size_t j = refById[i];
        ASSERT_EQ(g.id[i], ref.id[j]);
        maxDx = std::max(maxDx, std::abs(g.x[i] - ref.x[j]) + std::abs(g.y[i] - ref.y[j]) +
                                    std::abs(g.z[i] - ref.z[j]));
        maxDv = std::max(maxDv, std::abs(g.vx[i] - ref.vx[j]) +
                                    std::abs(g.vy[i] - ref.vy[j]) +
                                    std::abs(g.vz[i] - ref.vz[j]));
    }
    // same algorithm, different summation order: tight but not bitwise
    EXPECT_LT(maxDx, 1e-9);
    EXPECT_LT(maxDv, 1e-6);
}

TEST(Distributed, RanksThatOwnNothingChangeNothing)
{
    // 27 particles on 40 ranks leave 13 ranks owning nothing: each
    // publishes no halo box, so it receives no ghosts, builds an empty tree,
    // runs no phase body after the search and reports no work, and the
    // gathered state is bitwise the 8-rank run's
    for (bool gravity : {false, true})
    {
        SCOPED_TRACE(gravity ? "self-gravity" : "hydro");
        ParticleSetD ps;
        SedovConfig<double> ic;
        ic.nSide   = 3;
        auto setup = makeSedov(ps, ic);
        SimulationConfig<double> cfg;
        cfg.targetNeighbors    = 6;
        cfg.neighborTolerance  = 2;
        cfg.timestep.initialDt = 1e-6;
        cfg.selfGravity        = gravity;
        cfg.gravity.softening  = 0.05;

        auto run = [&](int ranks) {
            DistributedSimulation<double> dist(ps, setup.box, Eos<double>(setup.eos), cfg,
                                               ranks);
            for (int s = 0; s < 3; ++s)
            {
                auto rep      = dist.advance();
                int emptyRanks = 0;
                for (int r = 0; r < ranks; ++r)
                {
                    if (dist.localCount(r) > 0) continue;
                    ++emptyRanks;
                    EXPECT_EQ(rep.ranks[r].neighborInteractions, 0u) << "rank " << r;
                    EXPECT_EQ(rep.ranks[r].activeParticles, 0u) << "rank " << r;
                    EXPECT_EQ(rep.ranks[r].ghostParticles, 0u) << "rank " << r;
                }
                if (ranks == 40)
                {
                    EXPECT_EQ(emptyRanks, 13) << "step " << s;
                }
            }
            return dist.gather();
        };
        auto many = run(40);
        auto few  = run(8);
        ASSERT_EQ(many.id, few.id);
        const auto a = many.realFields();
        const auto b = few.realFields();
        for (std::size_t f = 0; f < a.size(); ++f)
            EXPECT_EQ(*a[f], *b[f]) << ParticleSetD::realFieldNames()[f];
    }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndMethods, DistributedEquivalence,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(DecompositionMethod::SpaceFillingCurve,
                                         DecompositionMethod::OrthogonalRecursiveBisection,
                                         DecompositionMethod::Slab1D)));

TEST(Distributed, RejectsConfigsItCannotRun)
{
    // a rank cannot place mirror ghosts among its halo ghosts nor keep
    // per-particle bins across ranks, and the driver holds configs to the
    // stepping rule Simulation holds them to: such configs must throw, not
    // run as something else
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = 12;
    pc.nz = 6;
    auto setup = makeSquarePatch(ps, pc);
    Eos<double> eos(setup.eos);

    SimulationConfig<double> walls;
    walls.boundaries.wallLo[1] = true;
    EXPECT_THROW(DistributedSimulation<double>(ps, setup.box, eos, walls, 2),
                 std::invalid_argument);
    // a body force is an op of the list every rank runs
    SimulationConfig<double> bodyForce;
    bodyForce.constantAccel = {0.0, -1.0, 0.0};
    DistributedSimulation<double> falling(ps, setup.box, eos, bodyForce, 2);
    EXPECT_GT(falling.advance().dt, 0.0);
    EXPECT_EQ(falling.step(), 1u);

    SimulationConfig<double> individual;
    individual.timestep.mode = TimesteppingMode::Individual;
    EXPECT_THROW(DistributedSimulation<double>(ps, setup.box, eos, individual, 2),
                 std::invalid_argument);
    // the IndividualTreeWalk without Individual stepping, and the binned
    // pair itself
    SimulationConfig<double> walk;
    walk.neighborMode = NeighborMode::IndividualTreeWalk;
    EXPECT_THROW(DistributedSimulation<double>(ps, setup.box, eos, walk, 2),
                 std::invalid_argument);
    walk.timestep.mode = TimesteppingMode::Individual;
    EXPECT_THROW(DistributedSimulation<double>(ps, setup.box, eos, walk, 2),
                 std::invalid_argument);

    EXPECT_NO_THROW(DistributedSimulation<double>(ps, setup.box, Eos<double>(setup.eos),
                                                  SimulationConfig<double>{}, 2));
    SimulationConfig<double> adaptive;
    adaptive.timestep.mode = TimesteppingMode::Adaptive;
    EXPECT_NO_THROW(DistributedSimulation<double>(ps, setup.box, eos, adaptive, 2));

    // a Tait closure runs like any other EOS: the square patch's own config
    auto patch = squarePatchConfig(setup);
    DistributedSimulation<double> tait(ps, setup.box, eosFromConfig(patch), patch, 2);
    auto rep = tait.advance();
    EXPECT_EQ(tait.step(), 1u);
    EXPECT_GT(rep.dt, 0.0);
}

TEST(Simulation, RejectsConfigsItCannotRun)
{
    // binned integration needs Individual time-stepping and the
    // IndividualTreeWalk together; either one alone used to run global
    // stepping silently, so it must throw
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = 12;
    pc.nz = 6;
    auto setup = makeSquarePatch(ps, pc);
    Eos<double> eos(setup.eos);

    for (auto mode : {TimesteppingMode::Global, TimesteppingMode::Adaptive})
    {
        SimulationConfig<double> cfg;
        cfg.timestep.mode = mode;
        cfg.neighborMode  = NeighborMode::IndividualTreeWalk;
        EXPECT_THROW(Simulation<double>(ps, setup.box, eos, cfg), std::invalid_argument)
            << "timestep mode " << int(mode);
    }
    SimulationConfig<double> binned;
    binned.timestep.mode = TimesteppingMode::Individual;
    EXPECT_THROW(Simulation<double>(ps, setup.box, eos, binned), std::invalid_argument);

    // the pair runs binned, under the square patch's Tait closure too
    binned.neighborMode = NeighborMode::IndividualTreeWalk;
    EXPECT_NO_THROW(Simulation<double>(ps, setup.box, eos, binned));
    SimulationConfig<double> tait = squarePatchConfig(setup);
    tait.timestep.mode            = TimesteppingMode::Individual;
    tait.neighborMode             = NeighborMode::IndividualTreeWalk;
    EXPECT_NO_THROW(Simulation<double>(ps, setup.box, tait));
    EXPECT_NO_THROW(Simulation<double>(ps, setup.box, eos, SimulationConfig<double>{}));

    // binned stepping runs neither walls (the active set would list the
    // mirror ghosts) nor a body force (it would kick inactive particles
    // every base step), and it must not run them as global stepping
    SimulationConfig<double> walls = binned;
    walls.boundaries.wallLo[1]     = true;
    EXPECT_THROW(Simulation<double>(ps, setup.box, eos, walls), std::invalid_argument);
    SimulationConfig<double> bodyForce = binned;
    bodyForce.constantAccel            = {0.0, -1.0, 0.0};
    EXPECT_THROW(Simulation<double>(ps, setup.box, eos, bodyForce), std::invalid_argument);
}

TEST(Distributed, ConservationHolds)
{
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = 12;
    pc.nz = 6;
    auto setup = makeSquarePatch(ps, pc);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 50;
    cfg.neighborTolerance = 10;

    DistributedSimulation<double> dist(ps, setup.box, Eos<double>(setup.eos), cfg, 4);
    auto c0 = dist.conservation();
    for (int s = 0; s < 5; ++s)
        dist.advance();
    auto c1 = dist.conservation();

    EXPECT_NEAR(c1.mass, c0.mass, 1e-12);
    double scale = std::abs(c0.angularMomentum.z);
    EXPECT_LT(norm(c1.momentum - c0.momentum), 1e-4 * scale);
}

TEST(Distributed, ImbalanceBounded)
{
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = 12;
    pc.nz = 6;
    auto setup = makeSquarePatch(ps, pc);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 50;

    DistributedSimulation<double> dist(ps, setup.box, Eos<double>(setup.eos), cfg, 4);
    EXPECT_LT(dist.particleImbalance(), 1.25);
}

TEST(Distributed, TrafficIsRecorded)
{
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = 10;
    pc.nz = 4;
    auto setup = makeSquarePatch(ps, pc);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 40;

    DistributedSimulation<double> dist(ps, setup.box, Eos<double>(setup.eos), cfg, 3);
    auto rep = dist.advance();
    for (const auto& r : rep.ranks)
    {
        EXPECT_GT(r.traffic.bytesSent, 0u);
        EXPECT_GT(r.traffic.messagesSent, 0u);
    }
    // ghosts exist at interior boundaries
    std::size_t ghosts = 0;
    for (const auto& r : rep.ranks)
        ghosts += r.ghostParticles;
    EXPECT_GT(ghosts, 0u);
}

// --- Box::wrap --------------------------------------------------------------

TEST(Box, WrapRejectsNonFinitePeriodicCoordinate)
{
    // inf - L is inf: the wrap loop would never end
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, false, true};
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {inf, -inf, std::numeric_limits<double>::quiet_NaN()})
    {
        EXPECT_THROW(box.wrap({bad, 0.5, 0.5}), std::domain_error) << bad;
        EXPECT_THROW(box.wrap({0.5, 0.5, bad}), std::domain_error) << bad;
    }
    // an open axis is not wrapped and passes its value through
    EXPECT_EQ(box.wrap({0.5, inf, 0.5}).y, inf);
}

TEST(Box, WrapRejectsCoordinateBeyondOneBoxLength)
{
    // 1e12 is 1e8 box lengths out: a wrap loop would shift it 1e8 times
    Box<double> wide{{0, 0, 0}, {1e4, 1e4, 1e4}, true, true, true};
    EXPECT_THROW(wide.wrap({1e12, 5e3, 5e3}), std::domain_error);
    EXPECT_THROW(wide.wrap({5e3, -1e12, 5e3}), std::domain_error);
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
    EXPECT_THROW(box.wrap({0.5, 0.5, 2.5}), std::domain_error);
    // within one length it is still one shift by L, bit for bit
    const double above = 1.75, below = -0.25;
    Vec3<double> w = box.wrap({above, below, 0.5});
    EXPECT_EQ(w.x, above - 1.0);
    EXPECT_EQ(w.y, below + 1.0);
    EXPECT_EQ(w.z, 0.5);
}

TEST(Box, BlownUpVelocityStopsTheStepInsteadOfHanging)
{
    // the drift of phase J wraps on a pool thread; parallelFor forwards the
    // throw out of advance() at every pool size
    const std::size_t saved = WorkerPool::instance().size();
    for (std::size_t pool : {1u, 4u})
    {
        WorkerPool::instance().resize(pool);
        ParticleSetD ps;
        SquarePatchConfig<double> pc;
        pc.nx = pc.ny = 8;
        pc.nz         = 4;
        auto setup    = makeSquarePatch(ps, pc); // periodic in z
        SimulationConfig<double> cfg;
        cfg.targetNeighbors = 40;
        Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
        sim.computeForces();
        sim.particles().vz[sim.particles().size() / 2] = 1e300;
        EXPECT_THROW(sim.advance(), std::domain_error) << "pool " << pool;
    }
    WorkerPool::instance().resize(saved);
}
