"""The paper's claims and EXPERIMENTS.md, checked at the profile the document is made at.

One module-scoped pass runs every registered experiment's seed panel at
:data:`repro.experiments.DOCS_PROFILE` into a fresh trial cache (two worker
processes; parallel ≡ serial is gated by ``TestRegistryGolden``).  On that
pass:

* every named claim (``ExperimentSpec.checks``) holds;
* every experiment's rendered table is byte-equal to its block in the
  committed EXPERIMENTS.md;
* the trial records the pass stored hash to the digest committed next to
  this file for the current ``CACHE_VERSION``, so a change to what trials
  compute cannot reach a warm trial cache without a version bump.

The fitted-exponent experiments (E1, E5) are also run once more in a
process where scipy cannot be imported: numpy is the only declared
dependency, so their tables must not depend on what else is installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import CACHE_VERSION, DOCS_PROFILE, render_result
from repro.experiments.cache import stable_token
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_panel

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = Path(__file__).with_name("trial_cache_digest.json")

CLAIMS = [(eid, name) for eid in experiment_ids() for name in EXPERIMENTS[eid].checks]


@pytest.fixture(scope="module")
def docs_pass(tmp_path_factory):
    """Every experiment's panel at the docs profile, and the cache it filled."""

    cache_dir = tmp_path_factory.mktemp("trial-cache")
    settings = replace(DOCS_PROFILE, jobs=2, cache_dir=str(cache_dir))
    panels = {eid: run_panel(eid, settings) for eid in experiment_ids()}
    return panels, cache_dir


def experiments_md_tables() -> dict:
    """The first ``text`` block under each ``## E<k> —`` heading of EXPERIMENTS.md."""

    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    pattern = r"^## (E\d+) — .*?^```text\n(.*?)^```"
    return {
        match.group(1): match.group(2).rstrip("\n")
        for match in re.finditer(pattern, text, re.M | re.S)
    }


def records_digest(cache_dir: Path) -> str:
    """sha-256 over the sorted stable tokens of every record in the store."""

    tokens = []
    for path in cache_dir.glob("*/*.pkl"):
        with path.open("rb") as handle:
            tokens.append(stable_token(pickle.load(handle)))
    return hashlib.sha256("\n".join(sorted(tokens)).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("eid, name", CLAIMS, ids=[f"{eid}-{name}" for eid, name in CLAIMS])
def test_claim_holds(docs_pass, eid, name):
    panels, _ = docs_pass
    assert EXPERIMENTS[eid].checks[name](panels[eid]), f"{eid} claim {name!r} fails"


@pytest.mark.parametrize("eid", experiment_ids())
def test_table_matches_experiments_md(docs_pass, eid):
    panels, _ = docs_pass
    committed = experiments_md_tables()
    assert eid in committed, f"EXPERIMENTS.md has no table for {eid}"
    assert render_result(panels[eid][0]) == committed[eid], (
        f"{eid}'s table differs from EXPERIMENTS.md; regenerate it with "
        "tools/generate_experiments_md.py"
    )


def test_trial_records_match_committed_digest(docs_pass):
    _, cache_dir = docs_pass
    measured = {"cache_version": CACHE_VERSION, "sha256": records_digest(cache_dir)}
    committed = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    assert measured == committed, (
        f"trial records hash to {measured}, but {DIGEST_FILE.name} holds {committed}. "
        "If trial outputs changed, bump CACHE_VERSION in repro/experiments/cache.py "
        "so stale cached records are never served, then commit the new digest. "
        "(A new numpy major.minor can also change the random streams.)"
    )


WITHOUT_SCIPY = textwrap.dedent(
    """
    import json, sys
    from dataclasses import replace

    sys.modules["scipy"] = None  # any import of scipy now raises ImportError

    from repro.experiments import DOCS_PROFILE, render_result
    from repro.experiments.registry import run_panel

    settings = replace(DOCS_PROFILE, jobs=1, cache_dir=sys.argv[1])
    tables = {eid: render_result(run_panel(eid, settings)[0]) for eid in ("E1", "E5")}
    imported = sorted(
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "scipy" and module is not None
    )
    print(json.dumps({"tables": tables, "scipy_modules": imported}))
    """
)


def test_fitted_tables_do_not_need_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["scipy_modules"] == []
    committed = experiments_md_tables()
    for eid, table in report["tables"].items():
        assert table == committed[eid], f"{eid}'s table differs from EXPERIMENTS.md without scipy"
