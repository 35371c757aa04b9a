/// \file scaling_study.cpp
/// Strong-scaling study driver: exercises the full distributed pipeline
/// (decomposition, halo exchange, per-rank SPH phases) over an increasing
/// number of simulated ranks, and prints the measured per-step load balance
/// and traffic — a miniature, laptop-scale version of the Sec. 5.2
/// experiments (the paper-scale figures are regenerated by bench_fig1-3).
///
///   ./scaling_study [nxy] [nz] [maxRanks]

#include <cstdio>
#include <cstdlib>

#include "core/code_profiles.hpp"
#include "domain/distributed.hpp"
#include "ic/square_patch.hpp"
#include "io/report_writer.hpp"

using namespace sphexa;

int main(int argc, char** argv)
{
    std::size_t nxy = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20;
    std::size_t nz  = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 10;
    int maxRanks    = argc > 3 ? std::atoi(argv[3]) : 8;

    ParticleSet<double> ps;
    SquarePatchConfig<double> ic;
    ic.nx = ic.ny = nxy;
    ic.nz = nz;
    auto setup = makeSquarePatch(ps, ic);

    std::printf("distributed square patch | %zu particles | SFC decomposition\n\n",
                ps.size());
    ReportTable table({{"ranks", 6, "%6.0f"},
                       {"parts/rank", 14, "%14.0f"},
                       {"ghosts", 12, "%12.0f"},
                       {"loadBal", 12, "%12.3f"},
                       {"halo KiB/rank", 14, "%14.1f"},
                       {"s/step", 12, "%12.5f"}});
    table.printHeader();

    for (int ranks = 1; ranks <= maxRanks; ranks *= 2)
    {
        SimulationConfig<double> cfg = sphexaProfile<double>().config;
        cfg.selfGravity     = false;
        cfg.targetNeighbors = 60;

        DistributedSimulation<double> sim(ps, setup.box, Eos<double>(setup.eos), cfg,
                                          ranks);
        // measure over a few steps
        double lb = 0, secs = 0;
        std::size_t ghosts = 0, haloBytes = 0;
        const int steps = 3;
        for (int s = 0; s < steps; ++s)
        {
            auto rep = sim.advance();
            lb += rep.loadBalance();
            double stepSec = 0;
            for (const auto& r : rep.ranks)
            {
                stepSec = std::max(stepSec, r.totalSeconds());
                ghosts += r.ghostParticles;
                haloBytes += r.traffic.bytesSent;
            }
            secs += stepSec;
        }
        table.printRow({double(ranks), double(ps.size() / std::size_t(ranks)),
                        double(ghosts / std::size_t(steps * ranks)), lb / steps,
                        double(haloBytes) / (1024.0 * steps * ranks), secs / steps});
    }

    std::printf("\nNote: ranks run in-process (simmpi); the per-rank compute time is\n"
                "real measured work, communication volumes are counted exactly, and\n"
                "the paper-scale scaling figures are produced by bench_fig1..3.\n");
    return 0;
}
