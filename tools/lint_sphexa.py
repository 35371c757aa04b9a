#!/usr/bin/env python3
"""lint_sphexa: the repo-specific determinism / hygiene linter.

An AST-free, single-file static checker for the invariants the codebase
relies on but the compiler never enforces (docs/ARCHITECTURE.md,
"Correctness tooling"):

  raw-omp          No `#pragma omp` anywhere under src/ except
                   src/parallel/parallel_for.hpp. PR 3 funneled every hot
                   loop through parallelFor(); a raw OpenMP region
                   reintroduces scheduling the bitwise thread/strategy
                   invariance suite cannot see.
  one-executor     No std::thread, std::jthread or std::async under src/
                   except src/parallel/parallel_for.hpp: the WorkerPool is
                   the only executor, and its threads the only ones the
                   loop layer starts. Static members such as
                   std::thread::hardware_concurrency stay allowed. A
                   thread started elsewhere runs work the scheduling
                   strategies, the busy-time accounting and the bitwise
                   invariance suite cannot see.
  nondeterminism   No nondeterminism sources in the solver directories
                   (src/sph/, src/tree/, src/core/): std::random_device,
                   std::rand/srand, std::time/clock seeds, and unordered
                   associative containers (iteration order is
                   address-keyed, so results would depend on allocation).
                   Seeded, explicit RNG lives in src/math/rng.hpp.
  io-in-kernels    No std::cout / printf in the phase-kernel directories
                   (src/sph/, src/tree/): kernels report through
                   StepReport; diagnostics go to std::cerr in the drivers.
  pragma-once      Every header under src/ opens with #pragma once.
  include-hygiene  Project includes are repo-relative ("tree/octree.hpp"),
                   never parent-relative ("../tree/octree.hpp"), so a file
                   has exactly one spelling and include graphs stay
                   greppable.
  naked-new        No naked new/delete under src/ — ownership lives in
                   containers and values (the SoA layout); placement or
                   raw allocation would also break checkpoint/replication
                   assumptions.
  simd-containment No raw vectorization outside src/backend/: intrinsic
                   headers (immintrin.h family), _mm* intrinsics,
                   __m128/256/512 vector types, and `#pragma omp simd`.
                   PR 10 funneled all lane-level code through the
                   backend kernels so the Simd path has exactly one
                   audited reduction order; a stray intrinsic elsewhere
                   reintroduces lane math the bitwise pool/strategy
                   invariance suite cannot see.

Exit status: 0 when clean, 1 when any violation is found (the ctest /
CI contract). `--self-test` seeds one violation per rule into a temp tree
and asserts each is caught AND that a clean file passes — proving the
checker actually fails on what it claims to check.

Adding a rule: write a `check_<name>(path, text) -> list[Violation]`
function, add it to CHECKS, seed a violating and a clean sample in
SELF_TEST_CASES. Suppress a single line with `// lint:allow(<rule>)`.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = "src"

# Directories whose kernels must be deterministic and silent.
SOLVER_DIRS = ("src/sph/", "src/tree/", "src/core/")
KERNEL_DIRS = ("src/sph/", "src/tree/")
RAW_OMP_ALLOWED = ("src/parallel/parallel_for.hpp",)
EXECUTOR_ALLOWED = ("src/parallel/parallel_for.hpp",)

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure,
    so rules never fire on documentation or log text."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def allowed_rules(raw_line: str) -> set[str]:
    return set(ALLOW_RE.findall(raw_line))


def iter_code_lines(path: str, text: str):
    """(lineno, code_line, raw_line) triples with comments/strings blanked."""
    code = strip_comments_and_strings(text)
    raw_lines = text.splitlines()
    for lineno, line in enumerate(code.splitlines(), start=1):
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        yield lineno, line, raw


# --- rules -------------------------------------------------------------------

def check_raw_omp(path: str, text: str):
    if path in RAW_OMP_ALLOWED:
        return []
    out = []
    for lineno, line, raw in iter_code_lines(path, text):
        if "raw-omp" in allowed_rules(raw):
            continue
        if re.search(r"#\s*pragma\s+omp\b", line):
            out.append(Violation(
                "raw-omp", path, lineno,
                "raw OpenMP pragma outside src/parallel/parallel_for.hpp — "
                "route the loop through parallelFor()"))
    return out


# a thread object or an async task; `std::thread::` (a static member such
# as hardware_concurrency, or the id type) names no new thread
EXECUTOR_RE = re.compile(r"\bstd\s*::\s*(j?thread\b(?!\s*::)|async\b)")


def check_one_executor(path: str, text: str):
    if path in EXECUTOR_ALLOWED:
        return []
    out = []
    for lineno, line, raw in iter_code_lines(path, text):
        if "one-executor" in allowed_rules(raw):
            continue
        m = EXECUTOR_RE.search(line)
        if m:
            out.append(Violation(
                "one-executor", path, lineno,
                f"std::{m.group(1)} outside src/parallel/parallel_for.hpp — "
                "run the work through parallelFor() on the WorkerPool"))
    return out


NONDET_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\bstd\s*::\s*rand\s*\(|(?<![\w:])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\bstd\s*::\s*time\s*\(|(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "time() seed"),
    (re.compile(r"\bstd\s*::\s*unordered_(map|set|multimap|multiset)\b"),
     "unordered container (address-keyed iteration order)"),
]


def check_nondeterminism(path: str, text: str):
    if not path.startswith(SOLVER_DIRS):
        return []
    out = []
    for lineno, line, raw in iter_code_lines(path, text):
        if "nondeterminism" in allowed_rules(raw):
            continue
        for pat, what in NONDET_PATTERNS:
            if pat.search(line):
                out.append(Violation(
                    "nondeterminism", path, lineno,
                    f"{what} in a solver directory — results must be "
                    "reproducible bit-for-bit (use math/rng.hpp for seeded "
                    "randomness)"))
    return out


IO_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*cout\b"), "std::cout"),
    (re.compile(r"(?<![\w:.])printf\s*\("), "printf"),
]


def check_io_in_kernels(path: str, text: str):
    if not path.startswith(KERNEL_DIRS):
        return []
    out = []
    for lineno, line, raw in iter_code_lines(path, text):
        if "io-in-kernels" in allowed_rules(raw):
            continue
        for pat, what in IO_PATTERNS:
            if pat.search(line):
                out.append(Violation(
                    "io-in-kernels", path, lineno,
                    f"{what} in a phase-kernel directory — report through "
                    "StepReport, or std::cerr in a driver"))
    return out


def check_pragma_once(path: str, text: str):
    if not path.endswith((".hpp", ".h")):
        return []
    for _, line, _ in iter_code_lines(path, text):
        stripped = line.strip()
        if not stripped:
            continue
        if re.match(r"#\s*pragma\s+once\b", stripped):
            return []
        return [Violation("pragma-once", path, 1,
                          "header does not open with #pragma once")]
    return [Violation("pragma-once", path, 1,
                      "header does not open with #pragma once")]


def check_include_hygiene(path: str, text: str):
    out = []
    for lineno, line, raw in iter_code_lines(path, text):
        if "include-hygiene" in allowed_rules(raw):
            continue
        # the quoted path is blanked in the stripped line (it is a string
        # literal), so gate on the directive surviving comment-stripping and
        # read the path from the raw line
        if not re.match(r"\s*#\s*include\b", line):
            continue
        m = re.match(r'\s*#\s*include\s+"([^"]+)"', raw)
        if m and (m.group(1).startswith("../") or "/../" in m.group(1)):
            out.append(Violation(
                "include-hygiene", path, lineno,
                f'parent-relative include "{m.group(1)}" — use the '
                "repo-relative spelling (src/ is the include root)"))
    return out


def check_naked_new(path: str, text: str):
    out = []
    for lineno, line, raw in iter_code_lines(path, text):
        if "naked-new" in allowed_rules(raw):
            continue
        if re.search(r"(?<![\w_])new\s+[A-Za-z_(]", line) and "placement" not in raw:
            out.append(Violation(
                "naked-new", path, lineno,
                "naked new — own memory with containers/values "
                "(std::vector, std::unique_ptr)"))
        if re.search(r"(?<![\w_])delete(\s*\[\s*\])?\s+[A-Za-z_*]", line):
            out.append(Violation(
                "naked-new", path, lineno,
                "naked delete — pair of a naked new; use owning types"))
    return out


SIMD_CONTAINED = "src/backend/"

SIMD_INCLUDE_RE = re.compile(
    r"\b(immintrin|xmmintrin|emmintrin|pmmintrin|tmmintrin|smmintrin|"
    r"nmmintrin|wmmintrin|ammintrin|x86intrin|arm_neon|arm_sve)\.h\b")

SIMD_PATTERNS = [
    (re.compile(r"\b_mm\d*_\w+\s*\("), "_mm* intrinsic call"),
    (re.compile(r"\b__m(128|256|512)[di]?\b"), "raw vector register type"),
    (re.compile(r"#\s*pragma\s+omp\s+.*\bsimd\b"), "#pragma omp simd"),
]


def check_simd_containment(path: str, text: str):
    if path.startswith(SIMD_CONTAINED):
        return []
    out = []
    for lineno, line, raw in iter_code_lines(path, text):
        if "simd-containment" in allowed_rules(raw):
            continue
        # include paths are string-ish but #include <...> survives stripping;
        # match the quoted form on the raw line
        if re.match(r"\s*#\s*include\b", line) and SIMD_INCLUDE_RE.search(raw):
            out.append(Violation(
                "simd-containment", path, lineno,
                "intrinsics header outside src/backend/ — lane-level code "
                "lives behind the KernelBackend dispatch seam"))
            continue
        for pat, what in SIMD_PATTERNS:
            if pat.search(line):
                out.append(Violation(
                    "simd-containment", path, lineno,
                    f"{what} outside src/backend/ — route lane math through "
                    "the backend kernels (audited reduction order)"))
    return out


CHECKS = [
    check_raw_omp,
    check_one_executor,
    check_nondeterminism,
    check_io_in_kernels,
    check_pragma_once,
    check_include_hygiene,
    check_naked_new,
    check_simd_containment,
]


def lint_tree(root: pathlib.Path):
    violations = []
    src_root = root / SRC
    for f in sorted(src_root.rglob("*")):
        if f.suffix not in (".hpp", ".h", ".cpp", ".cc"):
            continue
        rel = f.relative_to(root).as_posix()
        text = f.read_text(encoding="utf-8", errors="replace")
        for check in CHECKS:
            violations.extend(check(rel, text))
    return violations


# --- self-test ---------------------------------------------------------------

# (rule, path, violating content, clean content): the violating sample MUST
# trip exactly that rule and the clean sample MUST pass every rule.
SELF_TEST_CASES = [
    ("raw-omp", "src/sph/seeded.hpp",
     "#pragma once\nvoid f(){\n#pragma omp parallel for\nfor(;;);}\n",
     "#pragma once\n// mentions #pragma omp in a comment only\nvoid f();\n"),
    ("one-executor", "src/perf/seeded_thread.hpp",
     "#pragma once\n#include <thread>\nvoid f(){ std::thread t([]{}); t.join(); }\n",
     "#pragma once\n#include <thread>\n// std::thread in a comment is fine\n"
     "unsigned f(){ return std::thread::hardware_concurrency(); }\n"),
    ("one-executor", "src/sph/seeded_async.hpp",
     "#pragma once\n#include <future>\n"
     "int f(){ return std::async([]{ return 1; }).get(); }\n",
     '#pragma once\n#include "parallel/parallel_for.hpp"\nvoid f();\n'),
    ("nondeterminism", "src/tree/seeded.hpp",
     "#pragma once\n#include <random>\nint f(){ std::random_device rd; return rd(); }\n",
     '#pragma once\n#include "math/rng.hpp"\nint f();\n'),
    ("nondeterminism", "src/core/seeded_map.hpp",
     "#pragma once\n#include <unordered_map>\nstd::unordered_map<int,int> m;\n",
     "#pragma once\n#include <map>\n// std::unordered_map named in a comment is fine\n"),
    ("io-in-kernels", "src/sph/seeded_io.hpp",
     "#pragma once\n#include <iostream>\nvoid f(){ std::cout << 1; }\n",
     '#pragma once\nvoid f(const char* s); // printf("fmt") in comments/strings ok\n'),
    ("pragma-once", "src/core/seeded_guard.hpp",
     "#ifndef GUARD_H\n#define GUARD_H\n#endif\n",
     "#pragma once\nvoid f();\n"),
    ("include-hygiene", "src/domain/seeded_inc.hpp",
     '#pragma once\n#include "../tree/octree.hpp"\n',
     '#pragma once\n#include "tree/octree.hpp"\n'),
    ("naked-new", "src/perf/seeded_new.hpp",
     "#pragma once\nint* f(){ return new int(3); }\n",
     "#pragma once\n#include <vector>\nstd::vector<int> f();\n"),
    ("simd-containment", "src/tree/seeded_simd.hpp",
     "#pragma once\n#include <immintrin.h>\n"
     "double f(__m256d v){ return _mm256_cvtsd_f64(v); }\n",
     "#pragma once\n// _mm256_add_pd and __m256d in a comment are fine\n"
     '#include "backend/simd_tile.hpp"\nvoid f();\n'),
    ("simd-containment", "src/perf/seeded_pragma.hpp",
     "#pragma once\nvoid f(double* a){\n"
     "#pragma omp simd // lint:allow(raw-omp)\nfor(int i=0;i<4;++i) a[i]=0;}\n",
     "#pragma once\nvoid f(double* a, int n);\n"),
]


def self_test() -> int:
    failures = []
    for rule, rel, bad, good in SELF_TEST_CASES:
        for content, expect_hit in ((bad, True), (good, False)):
            with tempfile.TemporaryDirectory() as tmp:
                root = pathlib.Path(tmp)
                f = root / rel
                f.parent.mkdir(parents=True, exist_ok=True)
                f.write_text(content, encoding="utf-8")
                got = lint_tree(root)
                hit = any(v.rule == rule for v in got)
                if expect_hit and not hit:
                    failures.append(f"{rule}: seeded violation in {rel} NOT caught")
                if not expect_hit and got:
                    failures.append(
                        f"{rule}: clean sample {rel} flagged: {got[0]}")
    if failures:
        print("lint_sphexa --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"lint_sphexa --self-test: {len(SELF_TEST_CASES)} rules verified "
          "(seeded violations caught, clean samples pass)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path, default=REPO,
                    help="repo root to lint (default: this checkout)")
    ap.add_argument("--self-test", action="store_true",
                    help="seed one violation per rule and assert it is caught")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"lint_sphexa: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_sphexa: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
