#!/usr/bin/env python3
"""Repo-invariant linter: rules the compiler cannot check.

The companion of tools/md_check.py for source hygiene, and of the
`-Wthread-safety` clang CI leg for concurrency discipline: each rule below
is an invariant the repo's documentation promises (docs/static-analysis.md,
docs/formats.md, docs/architecture.md) but that neither the type system nor
the thread-safety analysis can enforce. Stdlib-only so CI needs nothing
beyond python3. Exit status: 0 clean, 1 findings, 2 usage error.

Rules (each finding is printed as `file:line: [rule] message`):

  framed-bytes     Wire/checkpoint byte access in the framed modules
                   (serve, net, stream) goes through BinaryReader /
                   BinaryWriter / serve/framing.h helpers — no raw memcpy
                   or reinterpret_cast on framed bytes. Socket-ABI sockaddr
                   casts are exempt (they are kernel ABI, not framed
                   bytes). The legacy GRLM weight format (src/nn) predates
                   binary_io and is outside these modules; see
                   docs/static-analysis.md.

  tmp-staging      No naked ".tmp" staging paths: only WriteFileAtomically
                   (src/serve/framing.cc) may construct or recognize
                   staging names. Anything else re-introduces the
                   torn-staging race that WriteFileAtomically exists to
                   prevent.

  test-registration  Every tests/*_test.cc suite is registered via
                   gralmatch_add_test in tests/CMakeLists.txt (otherwise it
                   silently never runs anywhere).

  asan-full-suite  The ASan+UBSan CI job runs the *unfiltered* ctest suite:
                   its ctest invocation must carry no -L/-R filter, so a
                   newly registered suite is automatically covered.

  tsan-consistency The TSan job's cmake --target list and its ctest -L
                   label regex must name the same suites (a suite built but
                   not run — or run but not built — is a silent CI hole).

  tsan-coverage    Every test suite that exercises concurrency (mentions
                   ThreadPool / ParallelFor / ParallelMap / std::thread /
                   std::atomic / num_threads) must be in the TSan leg.

  module-dag       #includes across src/ modules must follow the
                   documented module DAG (docs/architecture.md, mirrored in
                   src/CMakeLists.txt): an include of a module outside the
                   transitive closure of the including module's declared
                   dependencies is an undeclared (or upward) edge.

  obs-inertness    The files that define serialized bytes
                   (serve/checkpoint.*, serve/framing.*, net/wire.*) never
                   reference the obs module: instrumentation is promised
                   inert (docs/observability.md), and code that cannot
                   name a MetricsRegistry cannot leak one into checkpoint
                   or wire bytes. Phase timing for those paths belongs at
                   call sites.

  raw-mutex        No bare std::mutex / std::condition_variable /
                   std::lock_guard / std::unique_lock in src/ outside
                   common/mutex.h: concurrent code uses the annotated
                   gralmatch::Mutex / MutexLock / CondVar wrappers so
                   clang's Thread Safety Analysis can see every lock.
"""

import argparse
import pathlib
import re
import sys

try:
    import repo_files
except ImportError:  # invoked as tools/check_invariants.py from repo root
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import repo_files

# --- rule configuration ----------------------------------------------------

#: Modules whose on-disk/on-wire formats are framed (magic/version/length/
#: checksum); raw byte reinterpretation is banned here.
FRAMED_MODULES = ("serve", "net", "stream")

#: The one file allowed to build or recognize ".tmp" staging names — with
#: the reason on record.
TMP_ALLOWLIST = {
    "src/serve/framing.cc": "WriteFileAtomically owns staging-name construction",
}

#: Direct module dependency edges, exactly the target_link_libraries edges
#: declared in src/*/CMakeLists.txt (docs/architecture.md shows the DAG).
#: check_dag() uses the transitive closure: a PUBLIC link exposes its own
#: public deps' headers.
MODULE_DEPS = {
    "common": (),
    "exec": ("common",),
    "obs": ("common",),
    "text": ("common",),
    "data": ("common",),
    "graph": ("common",),
    "nn": ("common",),
    "blocking": ("common", "data", "exec", "text"),
    "datagen": ("data", "text"),
    "eval": ("data", "graph"),
    "matching": ("blocking", "data", "nn", "text"),
    "core": ("blocking", "data", "exec", "graph", "matching", "obs"),
    "stream": ("blocking", "common", "core", "data", "exec", "graph",
               "matching", "obs"),
    "serve": ("common", "core", "data", "matching", "obs", "stream"),
    "net": ("common", "exec", "obs", "serve"),
}

#: Files that define serialized bytes or the framing discipline and must
#: stay observability-free: docs/observability.md promises instrumentation
#: is inert (never in checkpoint or wire bytes), and the cheapest proof is
#: that the code producing those bytes cannot even name the obs module.
#: Timing for these paths lives at call sites (e.g. examples/serve_loop.cpp).
OBS_FREE_FILES = {
    "src/serve/checkpoint.h": "single-file checkpoint bytes",
    "src/serve/checkpoint.cc": "single-file checkpoint bytes",
    "src/serve/framing.h": "shared frame discipline (magic/version/checksum)",
    "src/serve/framing.cc": "shared frame discipline (magic/version/checksum)",
    "src/net/wire.h": "RPC frame encode/decode",
    "src/net/wire.cc": "RPC frame encode/decode",
}

OBS_SYMBOL_RE = re.compile(r'#include\s+"obs/|\bobs::|\bMetricsRegistry\b')

#: A test suite mentioning any of these exercises concurrency and must run
#: under TSan (calibrated against the tree; see tsan-coverage above).
CONCURRENCY_MARKERS = re.compile(
    r"ThreadPool|ParallelFor|ParallelMap|std::thread|std::atomic|num_threads")

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')
SOCKADDR_CAST_RE = re.compile(r"reinterpret_cast<(?:const\s+)?sockaddr\s*\*>")
RAW_SYNC_RE = re.compile(
    r"std::(mutex|condition_variable|lock_guard|unique_lock|scoped_lock)\b")


def strip_comments(line):
    """Drop // comments (good enough for these rules; the tree has no
    byte-twiddling inside /* */ blocks)."""
    return line.split("//", 1)[0]


def rel(path, repo_root):
    return path.relative_to(repo_root).as_posix()


# --- rules -----------------------------------------------------------------

def check_framed_bytes(repo_root):
    errors = []
    for path in repo_files.source_files(repo_root, FRAMED_MODULES):
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            code = strip_comments(line)
            if "memcpy" in code:
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [framed-bytes] raw "
                    "memcpy in a framed module — use BinaryReader/"
                    "BinaryWriter (common/binary_io.h)")
            if "reinterpret_cast" in code and not SOCKADDR_CAST_RE.search(code):
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [framed-bytes] raw "
                    "reinterpret_cast in a framed module — use BinaryReader/"
                    "BinaryWriter or the serve/framing.h helpers")
    return errors


def check_tmp_staging(repo_root):
    errors = []
    for path in repo_files.source_files(repo_root):
        if rel(path, repo_root) in TMP_ALLOWLIST:
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            code = strip_comments(line)
            if re.search(r'"[^"]*\.tmp[^"]*"', code):
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [tmp-staging] "
                    "\".tmp\" staging path outside WriteFileAtomically — "
                    "stage durable writes through serve/framing.h")
    return errors


def registered_suites(repo_root):
    """Suite names registered with gralmatch_add_test in tests/CMakeLists."""
    cmake = (repo_root / "tests" / "CMakeLists.txt").read_text(encoding="utf-8")
    return set(re.findall(r"gralmatch_add_test\(\s*(\w+)", cmake))


def check_test_registration(repo_root):
    errors = []
    registered = registered_suites(repo_root)
    for path in repo_files.test_suite_files(repo_root):
        if path.stem not in registered:
            errors.append(
                f"{rel(path, repo_root)}:1: [test-registration] suite "
                f"{path.stem} is not registered via gralmatch_add_test in "
                "tests/CMakeLists.txt — it never runs")
    return errors


def job_block(ci_text, job_name):
    """The indented body of one top-level workflow job, with its starting
    line number (1-based)."""
    m = re.search(rf"^  {job_name}:\n(.*?)(?=^  \w[\w-]*:|\Z)", ci_text,
                  re.M | re.S)
    if not m:
        return None, 0
    return m.group(1), ci_text[:m.start()].count("\n") + 1


def tsan_sets(ci_text):
    """(built_targets, labelled_suites, line_of_job) from the TSan job."""
    block, lineno = job_block(ci_text, "sanitize-thread")
    if block is None:
        return set(), set(), 0
    built = set()
    m = re.search(r"--target\s+(.*?)(?=\n\s*\n|\n\s*- name|\Z)", block, re.S)
    if m:
        built = set(re.findall(r"\b(\w+_test)\b", m.group(1)))
    labelled = set()
    m = re.search(r"-L\s+'\^\(([^)]*)\)\$'", block)
    if m:
        labelled = set(m.group(1).split("|"))
    return built, labelled, lineno


def check_ci_legs(repo_root):
    errors = []
    ci_path = repo_root / ".github" / "workflows" / "ci.yml"
    if not ci_path.is_file():
        return [f".github/workflows/ci.yml:1: [asan-full-suite] CI workflow "
                "file is missing"]
    ci_text = ci_path.read_text(encoding="utf-8")
    ci_rel = rel(ci_path, repo_root)

    # ASan leg runs the unfiltered suite.
    block, lineno = job_block(ci_text, "sanitize")
    if block is None:
        errors.append(f"{ci_rel}:1: [asan-full-suite] no `sanitize:` job "
                      "(the ASan+UBSan leg) in the workflow")
    else:
        ctest = re.search(r"^(.*ctest .*)$", block, re.M)
        if ctest is None:
            errors.append(f"{ci_rel}:{lineno}: [asan-full-suite] the "
                          "sanitize job never runs ctest")
        elif re.search(r"\s-[LR]\s", ctest.group(1)):
            errors.append(
                f"{ci_rel}:{lineno}: [asan-full-suite] the sanitize job "
                "filters ctest with -L/-R — it must run the full suite so "
                "new suites are covered automatically")

    # TSan leg: build list == label list, and both cover every concurrent
    # suite.
    built, labelled, lineno = tsan_sets(ci_text)
    if not built or not labelled:
        errors.append(f"{ci_rel}:1: [tsan-consistency] could not find the "
                      "sanitize-thread job's --target list and ctest -L "
                      "label regex")
        return errors
    for suite in sorted(built - labelled):
        errors.append(
            f"{ci_rel}:{lineno}: [tsan-consistency] {suite} is built by the "
            "TSan job but missing from its ctest -L regex (built, never run)")
    for suite in sorted(labelled - built):
        errors.append(
            f"{ci_rel}:{lineno}: [tsan-consistency] {suite} is in the TSan "
            "ctest -L regex but not built by the job (run would find no "
            "tests)")
    tsan = built & labelled
    for path in repo_files.test_suite_files(repo_root):
        if path.stem in tsan:
            continue
        if CONCURRENCY_MARKERS.search(path.read_text(encoding="utf-8")):
            errors.append(
                f"{rel(path, repo_root)}:1: [tsan-coverage] suite "
                f"{path.stem} exercises concurrency but is not in the TSan "
                "CI leg (add it to the job's --target list AND -L regex in "
                ".github/workflows/ci.yml)")
    return errors


def dag_closure():
    closure = {}

    def visit(mod):
        if mod not in closure:
            deps = set(MODULE_DEPS[mod])
            for d in MODULE_DEPS[mod]:
                deps |= visit(d)
            closure[mod] = deps
        return closure[mod]

    for mod in MODULE_DEPS:
        visit(mod)
    return closure


def check_module_dag(repo_root):
    errors = []
    closure = dag_closure()
    for path in repo_files.source_files(repo_root):
        mod = path.parent.name
        allowed = closure.get(mod, set()) | {mod}
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target_mod = m.group(1).split("/", 1)[0]
            if target_mod in MODULE_DEPS and target_mod not in allowed:
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [module-dag] "
                    f"{mod} must not include \"{m.group(1)}\" — {target_mod} "
                    "is not in its declared dependency closure (see "
                    "docs/architecture.md and src/CMakeLists.txt)")
    return errors


def check_obs_inertness(repo_root):
    errors = []
    for relpath, what in sorted(OBS_FREE_FILES.items()):
        path = repo_root / relpath
        if not path.is_file():
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if OBS_SYMBOL_RE.search(strip_comments(line)):
                errors.append(
                    f"{relpath}:{lineno}: [obs-inertness] obs reference in "
                    f"{what} — serialization and framing code must not see "
                    "the metrics layer (docs/observability.md); time these "
                    "paths at their call sites")
    return errors


def check_raw_mutex(repo_root):
    errors = []
    for path in repo_files.source_files(repo_root):
        if rel(path, repo_root) == "src/common/mutex.h":
            continue  # the one wrapper implementation
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            m = RAW_SYNC_RE.search(strip_comments(line))
            if m:
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [raw-mutex] bare "
                    f"std::{m.group(1)} — use the annotated gralmatch::Mutex"
                    " / MutexLock / CondVar (common/mutex.h) so "
                    "-Wthread-safety can check the locking")
    return errors


ALL_RULES = (
    check_framed_bytes,
    check_tmp_staging,
    check_test_registration,
    check_ci_legs,
    check_module_dag,
    check_obs_inertness,
    check_raw_mutex,
)


def run(repo_root):
    errors = []
    for rule in ALL_RULES:
        errors.extend(rule(repo_root))
    return errors


def main():
    parser = argparse.ArgumentParser(
        description="Repo-invariant linter (see module docstring).")
    parser.add_argument("--repo-root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()
    repo_root = pathlib.Path(args.repo_root).resolve()
    if not (repo_root / "src").is_dir():
        sys.stderr.write(f"no src/ under {repo_root} — wrong --repo-root?\n")
        return 2
    errors = run(repo_root)
    for err in errors:
        print(err)
    if errors:
        print(f"\n{len(errors)} invariant violation(s).")
        return 1
    print("OK: all repo invariants hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
