#!/usr/bin/env bash
# Tier-1 verification: the full unit/property/integration suite (which also
# checks every experiment's named claims and tables at the EXPERIMENTS.md
# profile), the repro-lint determinism gate (plus mypy when installed), the
# generated documents (EXPERIMENTS.md and LEADERBOARD.md must regenerate
# byte-identical), the benchmark smokes with their own acceptance gates, the
# docs code-snippet smoke (README / docs quickstarts must stay runnable), and
# every examples/*.py script.
#
# Usage:
#   tools/run_checks.sh            # tests + generated docs + benchmark smokes + docs snippets + examples
#   tools/run_checks.sh --no-bench # tests + docs snippets + examples (fast pre-commit check)
#
# Every step runs even if an earlier one fails; the script exits non-zero if
# ANY step failed, and lists the failures at the end — so CI cannot "pass"
# on the strength of the first step alone.
#
# REPRO_JOBS / REPRO_CACHE_DIR, when set, reach every step but the test
# suite: the EXPERIMENTS.md regeneration then fills the trial cache that
# tools/assert_warm_cache.py re-runs warm in CI.

set -uo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=()

run_step() {
    local name="$1"
    shift
    echo "== ${name} =="
    if "$@"; then
        echo "-- ${name}: ok"
    else
        local status=$?
        echo "-- ${name}: FAILED (exit ${status})" >&2
        failures+=("${name}")
    fi
}

# The test suite must behave identically everywhere, so the runner's env
# knobs REPRO_JOBS / REPRO_CACHE_DIR (which CI sets for the document
# regeneration and benchmark smokes below) are stripped here.  Tests choose
# jobs and cache explicitly.
run_step "tier-1 test suite" env -u REPRO_JOBS -u REPRO_CACHE_DIR \
    python -m pytest -x -q

# The determinism & invariant linter (repro.lint) gates the whole library
# tree: zero unsuppressed violations, every suppression with a reason.
run_step "repro-lint (determinism & invariant linter)" \
    python tools/repro_lint.py src/repro

# mypy is a CI-installed dev dependency; locally it may be absent (this repo
# pins no dev venv), so the step gates on availability rather than failing
# a machine that cannot install it.
if python -c "import mypy" >/dev/null 2>&1; then
    run_step "mypy (strict-ish typing gate, config in setup.cfg)" \
        python -m mypy --config-file setup.cfg
else
    echo "== mypy (strict-ish typing gate) =="
    echo "-- mypy: SKIPPED (mypy not installed; CI runs it in the lint job)"
fi

# A generated document must regenerate byte-identical from the committed code:
# `regenerates_identically DOC GENERATOR...` writes to a temp file, then cmp.
regenerates_identically() {
    local doc="$1"
    shift
    local tmp status
    tmp="$(mktemp)"
    "$@" --output "$tmp" && cmp "$tmp" "$doc"
    status=$?
    rm -f "$tmp"
    return "$status"
}

if [[ "${1:-}" != "--no-bench" ]]; then
    run_step "EXPERIMENTS.md regenerates byte-identical" \
        regenerates_identically EXPERIMENTS.md python tools/generate_experiments_md.py

    run_step "LEADERBOARD.md regenerates byte-identical (--jobs 2)" \
        regenerates_identically LEADERBOARD.md python tools/generate_leaderboard_md.py --jobs 2

    run_step "parallel-harness benchmark smoke (jobs fan-out + trial cache)" \
        python benchmarks/bench_parallel_harness.py --smoke

    run_step "million-device pipelined benchmark smoke" \
        python benchmarks/bench_million_device.py --smoke

    run_step "sparse-topology benchmark smoke" \
        python benchmarks/bench_sparse_topology.py --quick --engine-n 2000

    run_step "trace-overhead benchmark smoke (null-recorder neutrality)" \
        python benchmarks/bench_trace_overhead.py --smoke
fi

run_step "docs code snippets" python tools/run_doc_snippets.py README.md docs/architecture.md

# Every examples/*.py must run to exit 0.  Each runs from a fresh temp
# directory, so no example can depend on, or leave files in, the repo root.
run_examples() {
    local root tmp example status=0
    root="$(pwd)"
    tmp="$(mktemp -d)"
    for example in "$root"/examples/*.py; do
        echo "-- ${example#"$root"/}"
        (cd "$tmp" && PYTHONPATH="$root/src" python "$example" >/dev/null) || status=1
    done
    rm -rf "$tmp"
    return "$status"
}

run_step "examples run to exit 0" run_examples

if ((${#failures[@]})); then
    echo
    echo "FAILED steps: ${failures[*]}" >&2
    exit 1
fi
echo "all checks passed"
