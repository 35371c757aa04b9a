/// \file bench_kernels.cpp
/// Kernel ablation (google-benchmark): evaluation cost of the kernel
/// families in Table 2 through Kernel (exact, one q per call), and of one
/// LaneKernel tile of the Sinc lookup table, the evaluation every shipped
/// step runs. Informs the mini-app's interchangeable-kernel design
/// ("implemented as separate interchangeable modules", Sec. 4).

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "backend/lane_kernel.hpp"
#include "sph/kernels.hpp"

using namespace sphexa;

namespace {

template<KernelType K>
void BM_KernelValue(benchmark::State& state)
{
    Kernel<double> k(K);
    double q = 0.0;
    for (auto _ : state)
    {
        q += 1e-7;
        if (q >= 2.0) q = 0.0;
        benchmark::DoNotOptimize(k.fq(q));
    }
}

template<KernelType K>
void BM_KernelDerivative(benchmark::State& state)
{
    Kernel<double> k(K);
    double q = 0.0;
    for (auto _ : state)
    {
        q += 1e-7;
        if (q >= 2.0) q = 0.0;
        benchmark::DoNotOptimize(k.dfq(q));
    }
}

/// One LaneKernel tile of Sinc f(q) per iteration, its lanes spread over
/// the support; items are kernel values.
void BM_SincLaneTile(benchmark::State& state)
{
    LaneKernel<double> k(Kernel<double>(KernelType::Sinc), std::size_t(state.range(0)));
    constexpr std::size_t W = LaneKernel<double>::width;
    double q[W], f[W];
    for (std::size_t l = 0; l < W; ++l)
        q[l] = 2.0 * double(l) / double(W);
    for (auto _ : state)
    {
        for (std::size_t l = 0; l < W; ++l)
        {
            q[l] += 1e-7;
            if (q[l] >= 2.0) q[l] = 0.0;
        }
        k.f(q, f);
        benchmark::DoNotOptimize(f);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(W));
}

} // namespace

BENCHMARK(BM_KernelValue<KernelType::Sinc>)->Name("kernel_value/sinc");
BENCHMARK(BM_KernelValue<KernelType::CubicSpline>)->Name("kernel_value/m4");
BENCHMARK(BM_KernelValue<KernelType::WendlandC2>)->Name("kernel_value/wendland_c2");
BENCHMARK(BM_KernelValue<KernelType::WendlandC6>)->Name("kernel_value/wendland_c6");
BENCHMARK(BM_KernelDerivative<KernelType::Sinc>)->Name("kernel_deriv/sinc");
BENCHMARK(BM_KernelDerivative<KernelType::WendlandC2>)->Name("kernel_deriv/wendland_c2");
BENCHMARK(BM_SincLaneTile)->Name("kernel_value/sinc_lane_tile")->Arg(20000);

BENCHMARK_MAIN();
