#!/usr/bin/env python3
"""Assert the trial store is warm for the current benchmark profile.

CI runs the experiment benchmark smoke cold (filling ``REPRO_CACHE_DIR``),
then runs this script: it re-executes the given experiments with the **same**
settings source the smoke used (``benchmarks/conftest.bench_settings``, so
the two steps cannot drift apart) and fails unless every trial was served
from the content-addressed store — zero recomputation, checked through the
runner's execution counters.  A cache-key regression (settings drift, label
or params change, broken key derivation) therefore fails this step loudly
instead of silently recomputing behind a green check.

Usage::

    REPRO_CACHE_DIR=... PYTHONPATH=src python tools/assert_warm_cache.py E2 E11
"""

from __future__ import annotations

import sys
from pathlib import Path

# The benchmark profile lives in benchmarks/conftest.py; import it from there
# rather than duplicating the settings (duplication is exactly the drift this
# script exists to catch).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from conftest import bench_settings  # noqa: E402

from repro.experiments.registry import run_experiment  # noqa: E402
from repro.experiments.runner import track_stats  # noqa: E402


def main() -> int:
    experiment_ids = sys.argv[1:] or ["E2", "E11"]
    settings = bench_settings()
    if settings.resolved_cache_dir is None:
        print("FAIL: no trial cache configured (set REPRO_CACHE_DIR)")
        return 1

    with track_stats() as delta:
        for eid in experiment_ids:
            run_experiment(eid, settings)

    print(
        f"warm re-run of {', '.join(experiment_ids)} against "
        f"{settings.resolved_cache_dir}: executed={delta.executed} "
        f"hits={delta.cache_hits} misses={delta.cache_misses}"
    )
    if delta.executed:
        print(
            f"FAIL: {delta.executed} trial(s) were recomputed — the store the "
            "cold smoke filled did not serve them (cache-key drift?)"
        )
        return 1
    if delta.cache_hits == 0:
        print("FAIL: no cache hits recorded — nothing was actually exercised")
        return 1
    print("warm-cache assertion passed: every trial served from the store")
    return 0


if __name__ == "__main__":
    sys.exit(main())
