#!/usr/bin/env python3
"""Assert the trial store is warm for the EXPERIMENTS.md profile.

CI regenerates EXPERIMENTS.md cold (filling ``REPRO_CACHE_DIR``), then runs
this script: it re-executes the given experiments (every registered one when
no ids are given) at the **same** profile the generator used
(``repro.experiments.DOCS_PROFILE``, so the two steps cannot drift apart) and
fails unless every trial was served from the content-addressed store — zero
recomputation, checked through the runner's execution counters.  A cache-key regression (settings drift, label
or params change, broken key derivation) therefore fails this step loudly
instead of silently recomputing behind a green check.

Usage::

    REPRO_CACHE_DIR=... PYTHONPATH=src python tools/assert_warm_cache.py [E2 E11 ...]
"""

from __future__ import annotations

import sys

from repro.experiments import DOCS_PROFILE
from repro.experiments.registry import experiment_ids as registered_ids
from repro.experiments.registry import run_experiment
from repro.experiments.runner import track_stats


def main() -> int:
    experiment_ids = sys.argv[1:] or registered_ids()
    settings = DOCS_PROFILE
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
            "cold regeneration filled did not serve them (cache-key drift?)"
        )
        return 1
    if delta.cache_hits == 0:
        print("FAIL: no cache hits recorded — nothing was actually exercised")
        return 1
    print("warm-cache assertion passed: every trial served from the store")
    return 0


if __name__ == "__main__":
    sys.exit(main())
