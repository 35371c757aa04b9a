#!/usr/bin/env bash
# Same-bits check of the pinned floating-point semantics: build
# examples/state_hash twice on this host, once for the portable baseline
# ISA (-march=x86-64) and once for the host ISA (the CMake default,
# -march=native), run both, and fail on any difference in their output.
# state_hash prints one order-free CRC of the final state per golden
# scenario and compute backend.
#
#   ci/run_same_bits.sh [stepCount]      # default 20 steps per scenario
#
# Both trees run on one host, so they share one glibc and one libm
# dispatch: a difference comes from code generation alone (for example an
# FMA contraction that -ffp-contract=off should have prevented).
set -euo pipefail

cd "$(dirname "$0")/.."
steps="${1:-20}"
common=(-DCMAKE_BUILD_TYPE=Release -DSPHEXA_BUILD_TESTS=OFF -DSPHEXA_BUILD_BENCHMARKS=OFF)

cmake -B build-portable -S . "${common[@]}" -DCMAKE_CXX_FLAGS=-march=x86-64
cmake -B build-native -S . "${common[@]}" -DCMAKE_CXX_FLAGS=

# a tree that silently missed its ISA would compare a build with itself
if ! grep -q -- '-march=native' build-native/compile_commands.json; then
    echo "run_same_bits: build-native is not compiled with -march=native" >&2
    exit 1
fi
if grep -q -- '-march=native' build-portable/compile_commands.json; then
    echo "run_same_bits: build-portable is compiled with -march=native" >&2
    exit 1
fi

for tree in build-portable build-native; do
    cmake --build "$tree" --target state_hash -j "$(nproc)"
    "$tree/examples/state_hash" "$steps" | tee "$tree/state_hash.txt"
done

if ! diff build-portable/state_hash.txt build-native/state_hash.txt; then
    echo "run_same_bits: the host-ISA build left the portable build's bits" >&2
    exit 1
fi
echo "run_same_bits: $(wc -l < build-native/state_hash.txt) scenario/backend hashes equal"
