#pragma once

/// \file comm.hpp
/// simmpi: an in-process message-passing substrate with the MPI semantics
/// the mini-app needs (point-to-point exchange, collectives, traffic
/// accounting).
///
/// Substitution note (see docs/DESIGN.md): the paper runs MPI over Cray Aries /
/// Intel Omni-Path fabrics; this environment has no MPI runtime, so ranks
/// are simulated in-process and executed BSP-style: a superstep runs every
/// rank's compute phase, then exchange() routes all queued messages
/// atomically. All domain-decomposition code (halo exchange, particle
/// migration, global reductions) is written against this interface exactly
/// as it would be against MPI, and every message's size is accounted so the
/// network model (perf/netmodel.hpp) can convert traffic into modeled
/// communication time. Porting to real MPI is a transport swap, not a
/// redesign: the call surface (send/receive, allreduce min/max/sum,
/// allgatherv, barrier) maps directly onto MPI's.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace sphexa::simmpi {

/// Per-rank traffic counters, reset via resetTraffic().
struct Traffic
{
    std::size_t messagesSent = 0;
    std::size_t bytesSent    = 0;
    std::size_t collectives  = 0; ///< collective operations participated in
};

/// A BSP-style communicator over \p size simulated ranks.
///
/// Usage pattern (one superstep):
///   for r in 0..P: compute(r); comm.send(r, dest, tag, data...);
///   comm.exchange();
///   for r in 0..P: data = comm.receive(r, src, tag); ...
class Communicator
{
public:
    explicit Communicator(int size) : size_(validatedSize(size)), traffic_(size_) {}

    int size() const { return size_; }

    // --- point-to-point ------------------------------------------------------

    /// Queue a message from rank \p from to rank \p to under \p tag.
    /// Visible to the receiver only after the next exchange().
    void send(int from, int to, const std::string& tag, std::vector<std::byte> data)
    {
        checkRank(from);
        checkRank(to);
        traffic_[from].messagesSent += 1;
        traffic_[from].bytesSent += data.size();
        pending_[{to, from, tag}].push_back(std::move(data));
    }

    /// Typed convenience: send a vector of trivially-copyable T.
    template<class T>
    void sendVector(int from, int to, const std::string& tag, std::span<const T> v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<std::byte> buf(v.size() * sizeof(T));
        // an empty payload may have null data(), which memcpy must not see
        if (!buf.empty()) std::memcpy(buf.data(), v.data(), buf.size());
        send(from, to, tag, std::move(buf));
    }

    /// Deliver all queued messages (the BSP superstep boundary).
    void exchange()
    {
        for (auto& [key, msgs] : pending_)
        {
            auto& inbox = delivered_[key];
            for (auto& m : msgs)
                inbox.push_back(std::move(m));
        }
        pending_.clear();
    }

    /// Pop the oldest delivered message to \p to from \p from under \p tag.
    /// Throws if none is available (protocol error in the caller).
    std::vector<std::byte> receive(int to, int from, const std::string& tag)
    {
        checkRank(from);
        checkRank(to);
        auto it = delivered_.find({to, from, tag});
        if (it == delivered_.end() || it->second.empty())
        {
            throw std::runtime_error("simmpi: no message for rank " + std::to_string(to) +
                                     " from " + std::to_string(from) + " tag " + tag);
        }
        auto msg = std::move(it->second.front());
        it->second.erase(it->second.begin());
        return msg;
    }

    /// Does rank \p to have a delivered message from \p from under \p tag?
    bool hasMessage(int to, int from, const std::string& tag) const
    {
        auto it = delivered_.find({to, from, tag});
        return it != delivered_.end() && !it->second.empty();
    }

    /// Typed receive matching sendVector.
    template<class T>
    std::vector<T> receiveVector(int to, int from, const std::string& tag)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        auto buf = receive(to, from, tag);
        if (buf.size() % sizeof(T)) throw std::runtime_error("simmpi: size mismatch");
        std::vector<T> v(buf.size() / sizeof(T));
        if (!buf.empty()) std::memcpy(v.data(), buf.data(), buf.size());
        return v;
    }

    // --- collectives -----------------------------------------------------------
    // BSP-immediate: each rank contributes one value; the result every rank
    // would observe is returned. Traffic is accounted with the standard
    // recursive-doubling volume (log2(P) rounds).

    template<class T>
    T allreduceSum(std::span<const T> contributions)
    {
        accountCollective(sizeof(T));
        T s{};
        for (const T& c : contributions)
            s += c;
        return s;
    }

    template<class T>
    T allreduceMin(std::span<const T> contributions)
    {
        accountCollective(sizeof(T));
        T m = contributions[0];
        for (const T& c : contributions)
            m = c < m ? c : m;
        return m;
    }

    template<class T>
    T allreduceMax(std::span<const T> contributions)
    {
        accountCollective(sizeof(T));
        T m = contributions[0];
        for (const T& c : contributions)
            m = c > m ? c : m;
        return m;
    }

    /// Every rank contributes a vector; all ranks observe the concatenation.
    template<class T>
    std::vector<T> allgatherv(const std::vector<std::vector<T>>& contributions)
    {
        std::size_t total = 0;
        for (const auto& c : contributions)
            total += c.size() * sizeof(T);
        accountCollective(total / std::max<std::size_t>(1, size_));
        std::vector<T> out;
        out.reserve(total / sizeof(T));
        for (const auto& c : contributions)
            out.insert(out.end(), c.begin(), c.end());
        return out;
    }

    /// Barrier: pure accounting (BSP supersteps are implicit barriers).
    void barrier() { accountCollective(0); }

    // --- traffic accounting -------------------------------------------------------

    const Traffic& traffic(int rank) const { return traffic_[rank]; }

    Traffic totalTraffic() const
    {
        Traffic t;
        for (const auto& r : traffic_)
        {
            t.messagesSent += r.messagesSent;
            t.bytesSent += r.bytesSent;
            t.collectives += r.collectives;
        }
        return t;
    }

    void resetTraffic()
    {
        for (auto& t : traffic_)
            t = Traffic{};
    }

    /// Any undelivered or unconsumed messages? (test hygiene)
    bool quiescent() const
    {
        if (!pending_.empty()) return false;
        for (const auto& [k, v] : delivered_)
        {
            if (!v.empty()) return false;
        }
        return true;
    }

private:
    static int validatedSize(int size)
    {
        if (size <= 0) throw std::invalid_argument("Communicator: size must be positive");
        return size;
    }

    void checkRank(int r) const
    {
        if (r < 0 || r >= size_) throw std::out_of_range("simmpi: bad rank");
    }

    void accountCollective(std::size_t bytesPerRound)
    {
        int rounds = 0;
        for (int p = 1; p < size_; p <<= 1)
            ++rounds;
        for (auto& t : traffic_)
        {
            t.collectives += 1;
            t.messagesSent += rounds;
            t.bytesSent += rounds * bytesPerRound;
        }
    }

    using Key = std::tuple<int, int, std::string>; // (to, from, tag)

    int size_;
    std::map<Key, std::vector<std::vector<std::byte>>> pending_;
    std::map<Key, std::vector<std::vector<std::byte>>> delivered_;
    std::vector<Traffic> traffic_;
};

} // namespace sphexa::simmpi
