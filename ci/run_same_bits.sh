#!/usr/bin/env bash
# Same-bits check of the pinned floating-point semantics: build
# examples/state_hash twice on this host, once for the portable baseline
# ISA (-march=x86-64) and once for the host ISA (the CMake default,
# -march=native), run both, and fail on any difference in their output.
# state_hash prints one order-free CRC of the final state per golden
# scenario and compute backend.
#
#   ci/run_same_bits.sh [stepCount]                    # default 20 steps
#   ci/run_same_bits.sh --against <git-ref> [stepCount]
#
# Both trees run on one host, so they share one glibc and one libm
# dispatch: a difference comes from code generation alone (for example an
# FMA contraction that -ffp-contract=off should have prevented).
#
# With --against, the second tree is not the portable build but
# state_hash built from `git archive <git-ref>` (in build-against/, with
# that revision's default flags) and compared with the working tree's
# host-ISA build: the check that a change which claims to keep the bits
# prints the same CRCs as its parent.
set -euo pipefail

cd "$(dirname "$0")/.."
against=""
if [[ "${1:-}" == "--against" ]]; then
    if [[ $# -lt 2 ]]; then
        echo "usage: ci/run_same_bits.sh [--against <git-ref>] [stepCount]" >&2
        exit 2
    fi
    against="$2"
    shift 2
fi
steps="${1:-20}"
common=(-DCMAKE_BUILD_TYPE=Release -DSPHEXA_BUILD_TESTS=OFF -DSPHEXA_BUILD_BENCHMARKS=OFF)

if [[ -n "$against" ]]; then
    rev="$(git rev-parse --verify "${against}^{commit}")"
    rm -rf build-against
    mkdir -p build-against/src
    git archive "$rev" | tar -x -C build-against/src
    cmake -B build-against/build -S build-against/src "${common[@]}" -DCMAKE_CXX_FLAGS=
    reference=build-against/build
else
    cmake -B build-portable -S . "${common[@]}" -DCMAKE_CXX_FLAGS=-march=x86-64
    reference=build-portable
fi
cmake -B build-native -S . "${common[@]}" -DCMAKE_CXX_FLAGS=

# a tree that silently missed its ISA would compare a build with itself
if ! grep -q -- '-march=native' build-native/compile_commands.json; then
    echo "run_same_bits: build-native is not compiled with -march=native" >&2
    exit 1
fi
if [[ -z "$against" ]] && grep -q -- '-march=native' build-portable/compile_commands.json; then
    echo "run_same_bits: build-portable is compiled with -march=native" >&2
    exit 1
fi

for tree in "$reference" build-native; do
    cmake --build "$tree" --target state_hash -j "$(nproc)"
    "$tree/examples/state_hash" "$steps" | tee "$tree/state_hash.txt"
done

if ! diff "$reference/state_hash.txt" build-native/state_hash.txt; then
    if [[ -n "$against" ]]; then
        echo "run_same_bits: the working tree left the bits of $against ($rev)" >&2
    else
        echo "run_same_bits: the host-ISA build left the portable build's bits" >&2
    fi
    exit 1
fi
if [[ -n "$against" ]]; then
    echo "run_same_bits: $(wc -l < build-native/state_hash.txt) scenario/backend hashes equal to $against ($rev)"
else
    echo "run_same_bits: $(wc -l < build-native/state_hash.txt) scenario/backend hashes equal"
fi
