#!/usr/bin/env bash
# Sanitizer verification: build the tier2-sanitize test set under one
# sanitizer and run it. Any report fails the run: TSan/ASan exit non-zero
# on findings, UBSan is compiled with -fno-sanitize-recover.
#
# Usage: ci/run_sanitize.sh <address|undefined|thread|address+undefined>
#
# The build tree is build-san-<mode> (kept apart from the plain tier-1
# tree). GoogleTest is built from source inside the sanitized tree so the
# test framework itself is instrumented — see the SPHEXA_SANITIZE branch in
# CMakeLists.txt. Suppression files live in tools/sanitize/ and are
# intentionally empty: fix findings, don't suppress them.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-}"
case "$MODE" in
    address|undefined|thread|address+undefined) ;;
    *)
        echo "usage: $0 <address|undefined|thread|address+undefined>" >&2
        exit 2
        ;;
esac

BUILD="build-san-${MODE//+/-}"
SUPP="$PWD/tools/sanitize"

# halt_on_error so the first report fails the test instead of scrolling by;
# second_deadlock_stack gives both lock orders on TSan deadlock reports
export TSAN_OPTIONS="suppressions=$SUPP/tsan.supp halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="suppressions=$SUPP/asan.supp detect_leaks=1 ${ASAN_OPTIONS:-}"
export LSAN_OPTIONS="suppressions=$SUPP/lsan.supp ${LSAN_OPTIONS:-}"
export UBSAN_OPTIONS="suppressions=$SUPP/ubsan.supp print_stacktrace=1 ${UBSAN_OPTIONS:-}"

# Debug-with-O1: sanitizers need symbols and un-elided frames, -O1 keeps the
# golden gallery runtime tolerable under instrumentation
cmake -B "$BUILD" -S . \
    -DSPHEXA_SANITIZE="$MODE" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O1 -g" \
    -DSPHEXA_BUILD_BENCHMARKS=OFF \
    -DSPHEXA_BUILD_EXAMPLES=OFF \
    -DSPHEXA_WERROR="${SPHEXA_WERROR:-OFF}"

# only the suites the tier2-sanitize label selects: the tier2_sanitize
# target depends on exactly the list tests/CMakeLists.txt labels
cmake --build "$BUILD" -j --target tier2_sanitize

# a labelled suite that was not built registers only an unlabelled
# <suite>_NOT_BUILT placeholder, which -L would skip silently
while read -r suite; do
    if [ ! -x "$suite" ]; then
        echo "tier2-sanitize suite not built: $suite" >&2
        exit 1
    fi
done < "$BUILD/tier2_sanitize_suites.txt"

ctest --test-dir "$BUILD" --output-on-failure -L tier2-sanitize --no-tests=error
