#pragma once

/// \file schedulers.hpp
/// Dynamic loop self-scheduling: the load-balancing layer of Table 4
/// ("DLB with self-scheduling per X, Y, Z level"), implementing the
/// techniques of the paper's load-balancing references:
///
///  - STATIC     : one contiguous block per worker
///  - SS         : pure self-scheduling, chunk = 1 (max balance, max overhead)
///  - GSS        : guided self-scheduling, chunk = remaining/P
///                 (Polychronopoulos & Kuck 1987)
///  - TSS        : trapezoid self-scheduling, linearly decreasing chunks
///                 (Tzen & Ni 1993)
///  - FAC        : factoring, batches of P chunks of remaining/(2P)
///                 (Hummel, Schonberg & Flynn / ref [27])
///  - AWF        : adaptive weighted factoring, FAC with per-worker weights
///                 adapted to measured execution rates (Banicescu et al.,
///                 ref [3])
///
/// LoopScheduler::next is the one chunk rule: the thread-safe work queue
/// every parallelFor() loop drains on the persistent worker pool
/// (parallel/parallel_for.hpp), whose STATIC path hands each worker its
/// detail::staticBlock directly. chunkSequence() drains a LoopScheduler
/// from a single worker, so the published-sequence tests check the rule
/// the solver runs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace sphexa {

enum class SchedulingStrategy
{
    Static,
    SelfScheduling,
    Guided,
    Trapezoid,
    Factoring,
    AdaptiveWeightedFactoring,
};

constexpr std::string_view schedulingName(SchedulingStrategy s)
{
    switch (s)
    {
        case SchedulingStrategy::Static: return "STATIC";
        case SchedulingStrategy::SelfScheduling: return "SS";
        case SchedulingStrategy::Guided: return "GSS";
        case SchedulingStrategy::Trapezoid: return "TSS";
        case SchedulingStrategy::Factoring: return "FAC";
        case SchedulingStrategy::AdaptiveWeightedFactoring: return "AWF";
    }
    return "?";
}

namespace detail {

/// The STATIC rule: the contiguous block [begin, end) that block \p w of
/// \p p owns; the first n%p blocks get one extra iteration.
inline std::pair<std::size_t, std::size_t> staticBlock(std::size_t n, std::size_t p,
                                                       std::size_t w)
{
    std::size_t base = n / p, extra = n % p;
    std::size_t begin = w * base + std::min(w, extra);
    std::size_t count = base + (w < extra ? 1 : 0);
    return {begin, begin + count};
}

} // namespace detail

/// Thread-safe self-scheduling work queue over the iteration space [0, n).
/// Worker weights apply to AWF only (normalized to mean 1); every other
/// strategy, and AWF without weights, runs at unit weight, where AWF's
/// chunks are FAC's.
class LoopScheduler
{
public:
    LoopScheduler(std::size_t n, std::size_t workers, SchedulingStrategy strategy,
                  std::vector<double> workerWeights = {})
        : n_(n), p_(workers), strategy_(strategy)
    {
        if (p_ == 0) throw std::invalid_argument("LoopScheduler: workers must be positive");
        if (strategy_ == SchedulingStrategy::AdaptiveWeightedFactoring &&
            !workerWeights.empty())
        {
            if (workerWeights.size() != p_)
                throw std::invalid_argument("LoopScheduler: weight count mismatch");
            weights_ = std::move(workerWeights);
            double wsum = std::accumulate(weights_.begin(), weights_.end(), 0.0);
            for (auto& w : weights_)
                w = w * double(p_) / wsum; // normalize to mean 1
        }
        if (strategy_ == SchedulingStrategy::Trapezoid)
        {
            // first chunk f = n/(2p), last chunk 1, linear decrement over
            // the 2n/(f+1) chunks of the published rule
            std::size_t first = std::max<std::size_t>(1, n_ / (2 * p_));
            std::size_t steps = (2 * n_) / (first + 1);
            tssDelta_ = steps > 1 ? double(first - 1) / double(steps - 1) : 0.0;
            tssCur_   = double(first);
        }
    }

    /// Claim the next chunk for \p worker. Returns {begin, end}; begin==end
    /// signals exhaustion.
    std::pair<std::size_t, std::size_t> next(std::size_t worker)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (cursor_ >= n_) return {n_, n_};
        std::size_t remaining = n_ - cursor_;
        std::size_t c = 1;
        switch (strategy_)
        {
            case SchedulingStrategy::Static:
            {
                auto [b, e] = detail::staticBlock(n_, p_, handed_);
                c = e - b;
                break;
            }
            case SchedulingStrategy::SelfScheduling: c = 1; break;
            case SchedulingStrategy::Guided:
                c = std::max<std::size_t>(1, remaining / p_);
                break;
            case SchedulingStrategy::Trapezoid:
                c = std::max<std::size_t>(1, std::size_t(tssCur_));
                tssCur_ = std::max(1.0, tssCur_ - tssDelta_);
                break;
            case SchedulingStrategy::Factoring:
            case SchedulingStrategy::AdaptiveWeightedFactoring:
            {
                if (batchLeft_ == 0)
                {
                    batchChunk_ = std::max<std::size_t>(
                        1, std::size_t(std::ceil(double(remaining) / double(2 * p_))));
                    batchLeft_ = p_;
                }
                double w = weights_.empty() ? 1.0 : weights_[worker];
                c = std::max<std::size_t>(1, std::size_t(std::round(double(batchChunk_) * w)));
                --batchLeft_;
                break;
            }
        }
        c = std::min(c, remaining);
        std::size_t begin = cursor_;
        cursor_ += c;
        ++handed_;
        return {begin, begin + c};
    }

    std::size_t chunksHanded() const { return handed_; }

    /// The normalized AWF weights; empty at unit weight.
    const std::vector<double>& weights() const { return weights_; }

private:
    std::size_t n_, p_;
    SchedulingStrategy strategy_;
    std::vector<double> weights_;

    std::mutex mu_;
    std::size_t cursor_{0};
    std::size_t handed_{0};
    std::size_t batchChunk_{0};
    std::size_t batchLeft_{0};
    double tssDelta_{0};
    double tssCur_{0};
};

/// The chunk sizes a strategy hands out for n iterations on p workers, in
/// claim order: a LoopScheduler drained by one worker (AWF at unit weight,
/// i.e. FAC). Used by tests and for analysis.
inline std::vector<std::size_t> chunkSequence(std::size_t n, std::size_t p,
                                              SchedulingStrategy s)
{
    LoopScheduler sched(n, p, s);
    std::vector<std::size_t> chunks;
    while (true)
    {
        auto [b, e] = sched.next(0);
        if (b == e) return chunks;
        chunks.push_back(e - b);
    }
}

} // namespace sphexa
