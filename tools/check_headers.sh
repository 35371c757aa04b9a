#!/usr/bin/env bash
# Self-containment check of the library headers: every src/**/*.hpp must
# compile as the only include of a translation unit. A header that uses
# std::span or std::uint32_t without including <span> or <cstdint> then
# fails here, instead of compiling only where some other header happens to
# come first.
#
#   tools/check_headers.sh
#
# Each header gets a one-line TU, `#include "<path below src/>"`, compiled
# with `$CXX -std=c++20 -fsyntax-only -I src` (CXX defaults to g++), nproc
# headers at a time.
#
# Exit: 0 every header compiles on its own, 1 some did not (each failure is
# printed with the compiler's first lines).
set -euo pipefail

cd "$(dirname "$0")/.."

export CXX="${CXX:-g++}"

check() {
    local header="$1" out
    if ! out="$(printf '#include "%s"\n' "${header#src/}" |
        "$CXX" -std=c++20 -fsyntax-only -I src -x c++ - 2>&1)"; then
        printf 'FAIL %s\n%s\n' "$header" "$(head -n 8 <<<"$out")"
        return 1
    fi
}
export -f check

mapfile -t headers < <(find src -name '*.hpp' | sort)
if printf '%s\n' "${headers[@]}" | xargs -P "$(nproc)" -n 1 bash -c 'check "$0"'; then
    echo "check_headers: all ${#headers[@]} headers compile on their own"
else
    echo "check_headers: some of the ${#headers[@]} headers do not compile on their own" >&2
    exit 1
fi
