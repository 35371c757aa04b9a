#pragma once

/// \file checkpoint.hpp
/// Multilevel checkpoint/restart — Table 4's "Checkpoint-Restart: Optimal
/// interval, Multilevel" and refs [7, 20] of the paper.
///
/// Two storage levels with the classic cost/reliability trade-off:
///   Level 1 — in-memory copy ("node-local buddy/burst buffer"): cheap to
///             write, survives soft faults but not node loss.
///   Level 2 — file on stable storage ("parallel file system"): expensive,
///             survives everything.
/// Every checkpoint carries a CRC-64; restore() verifies integrity and
/// falls back from L1 to L2 when the fast copy is corrupted or missing —
/// exactly the degradation path multilevel schemes are built for.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "perf/timer.hpp"
#include "sph/particles.hpp"

namespace sphexa {

enum class CheckpointLevel
{
    Memory = 1, ///< fast, volatile
    Disk   = 2, ///< slow, stable
};

struct CheckpointStats
{
    std::size_t memoryWrites = 0;
    std::size_t diskWrites   = 0;
    std::size_t restores     = 0;
    std::size_t fallbacks    = 0; ///< restores that had to skip a corrupt level
    std::size_t bytesWritten = 0;
    double writeSeconds      = 0;
};

/// Multilevel checkpoint manager for one simulation's particle state.
template<class T>
class Checkpointer
{
public:
    /// \param diskDir directory for level-2 checkpoints (created if absent)
    explicit Checkpointer(std::filesystem::path diskDir)
        : dir_(std::move(diskDir))
    {
        std::filesystem::create_directories(dir_);
    }

    /// Write a checkpoint at the given level.
    void write(CheckpointLevel level, const ParticleSet<T>& ps, T time, std::uint64_t step)
    {
        Timer t;
        auto buf = serialize(ps, time, step);
        std::uint64_t crc = Crc64::compute(buf);

        if (level == CheckpointLevel::Memory)
        {
            memBuf_ = std::move(buf);
            memCrc_ = crc;
            hasMem_ = true;
            ++stats_.memoryWrites;
            stats_.bytesWritten += memBuf_.size();
        }
        else
        {
            auto path = diskPath();
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            if (!f) throw std::runtime_error("checkpoint: cannot open " + path.string());
            f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
            f.write(reinterpret_cast<const char*>(buf.data()),
                    std::streamsize(buf.size()));
            if (!f) throw std::runtime_error("checkpoint: write failed");
            hasDisk_ = true;
            ++stats_.diskWrites;
            stats_.bytesWritten += buf.size() + sizeof(crc);
        }
        stats_.writeSeconds += t.elapsed();
    }

    /// Restore from the fastest valid level (L1 first, fall back to L2).
    /// Returns nullopt when no valid checkpoint exists at any level.
    std::optional<DeserializeResult<T>> restore()
    {
        ++stats_.restores;
        if (hasMem_)
        {
            if (Crc64::compute(memBuf_) == memCrc_)
            {
                return deserialize<T>(memBuf_);
            }
            ++stats_.fallbacks; // corrupted fast copy
        }
        if (hasDisk_)
        {
            auto loaded = loadDisk();
            if (loaded) return loaded;
            ++stats_.fallbacks;
        }
        return std::nullopt;
    }

    /// Simulate loss of the volatile level (node failure).
    void dropMemoryLevel()
    {
        hasMem_ = false;
        memBuf_.clear();
    }

    /// Corrupt one byte of the in-memory checkpoint (SDC on the buffer);
    /// used by tests and the checkpoint bench.
    void corruptMemoryLevel(std::size_t byteIndex)
    {
        if (!hasMem_ || memBuf_.empty()) return;
        memBuf_[byteIndex % memBuf_.size()] ^= std::byte{0x04};
    }

    const CheckpointStats& stats() const { return stats_; }

    std::size_t memoryBytes() const { return memBuf_.size(); }

private:
    std::filesystem::path diskPath() const { return dir_ / "checkpoint.l2"; }

    std::optional<DeserializeResult<T>> loadDisk()
    {
        std::ifstream f(diskPath(), std::ios::binary | std::ios::ate);
        if (!f) return std::nullopt;
        auto size = std::streamoff(f.tellg());
        if (size <= std::streamoff(sizeof(std::uint64_t))) return std::nullopt;
        f.seekg(0);
        std::uint64_t crc = 0;
        f.read(reinterpret_cast<char*>(&crc), sizeof(crc));
        std::vector<std::byte> buf(std::size_t(size) - sizeof(crc));
        f.read(reinterpret_cast<char*>(buf.data()), std::streamsize(buf.size()));
        if (!f) return std::nullopt;
        if (Crc64::compute(buf) != crc) return std::nullopt;
        try
        {
            return deserialize<T>(buf);
        }
        catch (const std::exception&)
        {
            return std::nullopt;
        }
    }

    std::filesystem::path dir_;
    std::vector<std::byte> memBuf_;
    std::uint64_t memCrc_ = 0;
    bool hasMem_  = false;
    bool hasDisk_ = false;
    CheckpointStats stats_;
};

} // namespace sphexa
