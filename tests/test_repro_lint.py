"""Tests for :mod:`repro.lint` — the determinism & invariant linter.

Coverage contract (see docs/architecture.md "Static analysis"):

* one positive and one negative fixture per built-in rule R1–R13,
* suppression-comment handling with and without a reason,
* the JSON report schema,
* registry validation,
* config parsing / exemption matching,
* a meta-test asserting the shipped ``src/repro`` tree is lint-clean,
* a meta-test that every script the check steps run exists, and
* CLI subprocess tests demonstrating the CI gate fails on a seeded
  violation and passes on a clean file.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    LintRule,
    Violation,
    lint_paths,
    lint_source,
    register_rule,
    registered_rules,
    report_json,
)
from repro.lint.framework import PARSE_RULE, SUPPRESSION_RULE, iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[1]
CLI = REPO_ROOT / "tools" / "repro_lint.py"


def lint(source: str) -> list:
    return lint_source(textwrap.dedent(source))


def rules_hit(violations, *, include_suppressed: bool = False) -> set:
    return {
        v.rule for v in violations if include_suppressed or not v.suppressed
    }


# --------------------------------------------------------------------- #
# Per-rule fixtures: one positive, one negative each                     #
# --------------------------------------------------------------------- #


class TestR1AmbientNondeterminism:
    def test_flags_clock_read(self):
        violations = lint(
            """
            import time

            def seed_for(label):
                return int(time.time())
            """
        )
        assert rules_hit(violations) == {"R1"}

    def test_resolves_import_aliases(self):
        violations = lint(
            """
            import numpy as np

            def reseed():
                np.random.seed(0)
            """
        )
        assert rules_hit(violations) == {"R1"}

    def test_flags_from_import(self):
        violations = lint(
            """
            from time import time

            def now():
                return time()
            """
        )
        assert rules_hit(violations) == {"R1"}

    def test_flags_bare_default_rng(self):
        violations = lint(
            """
            import numpy as np

            rng = np.random.default_rng()
            """
        )
        assert rules_hit(violations) == {"R1"}

    def test_allows_seeded_default_rng(self):
        violations = lint(
            """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
            """
        )
        assert rules_hit(violations) == set()

    def test_flags_module_level_random(self):
        violations = lint(
            """
            import random

            def draw():
                return random.random()
            """
        )
        assert rules_hit(violations) == {"R1"}


class TestR2UnstableHash:
    def test_flags_builtin_hash(self):
        violations = lint(
            """
            def cache_key(label):
                return hash(label) % 1000
            """
        )
        assert rules_hit(violations) == {"R2"}

    def test_flags_id(self):
        violations = lint(
            """
            def order_key(obj):
                return id(obj)
            """
        )
        assert rules_hit(violations) == {"R2"}

    def test_allows_hash_inside_dunder_hash(self):
        violations = lint(
            """
            class Key:
                def __hash__(self):
                    return hash(self.label)
            """
        )
        assert rules_hit(violations) == set()


class TestR3UnorderedIteration:
    def test_flags_for_loop_over_set(self):
        violations = lint(
            """
            def schedule(nodes):
                active = {n for n in nodes if n > 0}
                out = []
                for node in active:
                    out.append(node)
                return out
            """
        )
        assert rules_hit(violations) == {"R3"}

    def test_flags_list_materialisation(self):
        violations = lint(
            """
            def snapshot():
                seen = set()
                return list(seen)
            """
        )
        assert rules_hit(violations) == {"R3"}

    def test_flags_comprehension_over_set(self):
        violations = lint(
            """
            def record(ids):
                pending = set(ids)
                return [2 * i for i in pending]
            """
        )
        assert rules_hit(violations) == {"R3"}

    def test_allows_sorted_iteration(self):
        violations = lint(
            """
            def schedule(nodes):
                active = {n for n in nodes if n > 0}
                return [node for node in sorted(active)]
            """
        )
        assert rules_hit(violations) == set()

    def test_allows_order_insensitive_reduction(self):
        violations = lint(
            """
            def total(ids):
                pending = set(ids)
                return sum(pending) + len(pending)
            """
        )
        assert rules_hit(violations) == set()


class TestR4UnpicklableTrial:
    def test_flags_lambda_trial_fn(self):
        violations = lint(
            """
            from repro.experiments.runner import TrialSpec

            def build():
                return TrialSpec.point(lambda seed: {}, "E", n=8)
            """
        )
        assert rules_hit(violations) == {"R4"}

    def test_flags_nested_trial_fn(self):
        violations = lint(
            """
            from repro.experiments.runner import TrialSpec

            def build():
                def _trial(seed):
                    return {}

                return TrialSpec.point(_trial, "E", n=8)
            """
        )
        assert rules_hit(violations) == {"R4"}

    @pytest.mark.parametrize(
        "call",
        [
            "TrialSpec(lambda seed: {}, ())",
            "TrialSpec(trial_fn=lambda seed: {}, labels=())",
            "runner.TrialSpec.point(lambda seed: {}, 'E')",
        ],
    )
    def test_flags_every_sink_call_form(self, call):
        violations = lint(
            f"""
            from repro.experiments import runner
            from repro.experiments.runner import TrialSpec

            def build():
                return {call}
            """
        )
        assert rules_hit(violations) == {"R4"}

    def test_allows_top_level_trial_fn(self):
        violations = lint(
            """
            from repro.experiments.runner import TrialSpec

            def _trial(seed):
                return {}

            def build():
                return TrialSpec.point(_trial, "E", n=8)
            """
        )
        assert rules_hit(violations) == set()


class TestR5UnguardedTraceEmit:
    def test_flags_unguarded_record(self):
        violations = lint(
            """
            def run_phase(recorder):
                recorder.record({"event": "phase"})
            """
        )
        assert rules_hit(violations) == {"R5"}

    def test_allows_if_guarded_record(self):
        violations = lint(
            """
            def run_phase(recorder):
                if recorder.enabled:
                    recorder.record({"event": "phase"})
            """
        )
        assert rules_hit(violations) == set()

    def test_allows_early_return_guard(self):
        violations = lint(
            """
            def run_phase(recorder):
                if not recorder.enabled:
                    return
                recorder.record({"event": "phase"})
            """
        )
        assert rules_hit(violations) == set()

    def test_else_branch_is_not_guarded(self):
        violations = lint(
            """
            def run_phase(recorder):
                if recorder.enabled:
                    pass
                else:
                    recorder.record({"event": "phase"})
            """
        )
        assert rules_hit(violations) == {"R5"}


class TestR6TunableContract:
    def test_flags_unbacked_parameter(self):
        violations = lint(
            """
            from repro.adversary.parameters import ParamSpec

            class Jammer:
                tunable = (ParamSpec("radius", 0.0, 1.0),)

                def __init__(self):
                    self.budget = 1.0
            """
        )
        assert rules_hit(violations) == {"R6"}

    def test_flags_mutable_list_declaration(self):
        violations = lint(
            """
            from repro.adversary.parameters import ParamSpec

            class Jammer:
                tunable = [ParamSpec("radius", 0.0, 1.0)]

                def __init__(self, radius):
                    self.radius = radius
            """
        )
        assert "R6" in rules_hit(violations)

    def test_flags_duplicate_parameter(self):
        violations = lint(
            """
            from repro.adversary.parameters import ParamSpec

            class Jammer:
                tunable = (
                    ParamSpec("radius", 0.0, 1.0),
                    ParamSpec("radius", 0.0, 2.0),
                )

                def __init__(self, radius):
                    self.radius = radius
            """
        )
        assert rules_hit(violations) == {"R6"}

    def test_flags_dead_hook_without_declaration(self):
        violations = lint(
            """
            class Jammer:
                def _validate_parameters(self):
                    pass
            """
        )
        assert rules_hit(violations) == {"R6"}

    def test_allows_init_backed_parameter(self):
        violations = lint(
            """
            from repro.adversary.parameters import ParamSpec

            class Jammer:
                tunable = (ParamSpec("radius", 0.0, 1.0),)

                def __init__(self, radius=0.5):
                    self.radius = radius
            """
        )
        assert rules_hit(violations) == set()

    def test_allows_set_parameter_override(self):
        violations = lint(
            """
            from repro.adversary.parameters import ParamSpec

            class Jammer:
                tunable = (ParamSpec("duty", 0.0, 1.0),)

                def _set_parameter(self, name, value):
                    pass
            """
        )
        assert rules_hit(violations) == set()


class TestR7FrozenMutation:
    def test_flags_post_construction_mutation(self):
        violations = lint(
            """
            class Config:
                def bump(self):
                    object.__setattr__(self, "count", self.count + 1)
            """
        )
        assert rules_hit(violations) == {"R7"}

    def test_allows_post_init(self):
        violations = lint(
            """
            class Config:
                def __post_init__(self):
                    object.__setattr__(self, "count", 0)
            """
        )
        assert rules_hit(violations) == set()


class TestR8NoPrint:
    def test_flags_stdout_print(self):
        violations = lint(
            """
            def run():
                print("done")
            """
        )
        assert rules_hit(violations) == {"R8"}

    def test_allows_stderr_print(self):
        violations = lint(
            """
            import sys

            def run():
                print("done", file=sys.stderr)
            """
        )
        assert rules_hit(violations) == set()


class TestR9HashUnique:
    def test_flags_flagless_unique_and_isin(self):
        violations = lint(
            """
            import numpy as np
            from numpy import unique

            def dedupe(keys, members):
                keys = np.unique(keys)
                frontier = unique(members)
                return keys[np.isin(keys, frontier)]
            """
        )
        assert [v.rule for v in violations] == ["R9", "R9", "R9"]

    def test_allows_sort_path_unique_and_setops(self):
        violations = lint(
            """
            import numpy as np
            from repro.simulation.setops import isin_sorted, unique_sorted

            def dedupe(keys, members):
                cand, counts = np.unique(keys, return_counts=True)
                first, index = np.unique(members, return_index=True)
                return cand[isin_sorted(cand, unique_sorted(members))], counts, first
            """
        )
        assert rules_hit(violations) == set()

    def test_setops_module_is_exempt_in_repo_config(self):
        config = LintConfig.discover(REPO_ROOT / "src" / "repro")
        assert config.is_exempt("R9", "src/repro/simulation/setops.py")
        assert not config.is_exempt("R9", "src/repro/simulation/fastengine.py")


class TestR10UndeclaredImport:
    def test_flags_top_level_import(self):
        violations = lint(
            """
            import scipy.optimize as optimize
            """
        )
        assert [(v.rule, v.line) for v in violations] == [("R10", 2)]
        assert "'scipy.optimize'" in violations[0].message

    def test_flags_function_local_import(self):
        violations = lint(
            """
            def fit(x, y):
                try:
                    from scipy.optimize import curve_fit
                except ImportError:
                    return None
                return curve_fit
            """
        )
        assert [(v.rule, v.line) for v in violations] == [("R10", 4)]

    def test_flags_from_import(self):
        violations = lint(
            """
            from pandas import DataFrame
            """
        )
        assert [v.rule for v in violations] == ["R10"]

    def test_allows_stdlib_numpy_repro_and_relative_imports(self):
        violations = lint(
            """
            from __future__ import annotations
            import collections.abc
            import numpy as np
            from numpy.typing import NDArray
            import repro.simulation
            from repro.analysis import fitting
            from . import sibling
            from ..analysis.fitting import fit_power_law
            """
        )
        assert rules_hit(violations) == set()


class TestR11SimulationLayering:
    ENGINE = "src/repro/simulation/engine.py"

    def test_flags_relative_import_of_the_trace_layer(self):
        violations = lint_source(
            "from ..observability.trace import TraceEvent\n", path=self.ENGINE
        )
        assert [(v.rule, v.line) for v in violations] == [("R11", 1)]
        assert "'repro.observability.trace'" in violations[0].message

    def test_flags_absolute_and_package_imports(self):
        source = textwrap.dedent(
            """
            import repro.core.driver
            from repro import observability
            from .. import experiments
            """
        )
        violations = lint_source(source, path=self.ENGINE)
        assert [(v.rule, v.line) for v in violations] == [("R11", 2), ("R11", 3), ("R11", 4)]

    def test_allows_stdlib_numpy_and_the_package_itself(self):
        source = textwrap.dedent(
            """
            from __future__ import annotations
            import math
            import numpy as np
            from .energy import EnergyOperation
            from . import rng
            from repro.simulation.setops import unique_sorted
            from repro import simulation
            """
        )
        assert rules_hit(lint_source(source, path=self.ENGINE)) == set()

    def test_other_packages_may_import_the_trace_layer(self):
        violations = lint_source(
            "from ..observability.trace import TraceEvent\n", path="src/repro/core/driver.py"
        )
        assert rules_hit(violations) == set()


class TestR12FrozenSetIds:
    TOPOLOGY = "src/repro/simulation/topology.py"
    ADVERSARY = "src/repro/adversary/spatial.py"

    def test_flags_calls_and_annotations_once_per_function(self):
        source = textwrap.dedent(
            """
            from typing import FrozenSet, Optional

            class Jammer:
                victims: frozenset = frozenset()

                def __init__(self) -> None:
                    self._victims: Optional[FrozenSet[int]] = None

                def resolve(self, disk: "FrozenSet[int] | None") -> FrozenSet[int]:
                    return frozenset(disk or ())
            """
        )
        violations = lint_source(source, path=self.ADVERSARY)
        assert [(v.rule, v.line) for v in violations] == [("R12", 5), ("R12", 7), ("R12", 10)]
        assert "resolve()" in violations[-1].message

    def test_allows_arrays_other_packages_and_suppressed_sites(self):
        source = textwrap.dedent(
            """
            from typing import FrozenSet
            import numpy as np

            def disk(rows: np.ndarray) -> np.ndarray:
                return np.sort(rows)

            # repro-lint: disable=R12 -- callers test membership once per node
            def reachable(rows: np.ndarray) -> FrozenSet[int]:
                return frozenset(rows.tolist())
            """
        )
        assert rules_hit(lint_source(source, path=self.TOPOLOGY)) == set()
        elsewhere = "KINDS = frozenset({'a'})\n"
        assert rules_hit(lint_source(elsewhere, path="src/repro/core/driver.py")) == set()
        assert rules_hit(lint_source(elsewhere, path=self.TOPOLOGY)) == {"R12"}


class TestR13SingleEstimator:
    FITTING = "src/repro/analysis/fitting.py"
    EXPERIMENT = "src/repro/experiments/exp_cost_scaling.py"

    def test_flags_fitting_primitives_outside_fitting_module(self):
        source = textwrap.dedent(
            """
            import numpy as np
            from numpy.linalg import lstsq

            def slope(x, y):
                line = np.polyfit(np.log(x), np.log(y), 1)
                design = np.stack([x, np.ones_like(x)], axis=1)
                return line, lstsq(design, y, rcond=None), np.linalg.lstsq(design, y)
            """
        )
        violations = lint_source(source, path=self.EXPERIMENT)
        assert [(v.rule, v.line) for v in violations] == [("R13", 6), ("R13", 8), ("R13", 8)]
        assert "fit_cost_exponent" in violations[0].message

    def test_allows_the_fitting_module_and_the_estimator(self):
        source = textwrap.dedent(
            """
            import numpy as np

            def slope(x, y):
                return np.polyfit(np.log(x), np.log(y), 1)
            """
        )
        assert rules_hit(lint_source(source, path=self.FITTING)) == set()
        caller = "from ..analysis.fitting import fit_cost_exponent\nfit = fit_cost_exponent([1], [2])\n"
        assert rules_hit(lint_source(caller, path=self.EXPERIMENT)) == set()


# --------------------------------------------------------------------- #
# Suppressions                                                           #
# --------------------------------------------------------------------- #


class TestSuppressions:
    def test_same_line_disable_with_reason(self):
        violations = lint(
            """
            def run():
                print("x")  # repro-lint: disable=R8 -- demo fixture output
            """
        )
        assert rules_hit(violations) == set()
        (violation,) = violations
        assert violation.rule == "R8"
        assert violation.suppressed
        assert violation.reason == "demo fixture output"

    def test_previous_line_disable(self):
        violations = lint(
            """
            def run():
                # repro-lint: disable=R8 -- demo fixture output
                print("x")
            """
        )
        assert rules_hit(violations) == set()
        assert violations[0].suppressed

    def test_disable_without_reason_suppresses_nothing(self):
        violations = lint(
            """
            def run():
                print("x")  # repro-lint: disable=R8
            """
        )
        assert rules_hit(violations) == {"R8", SUPPRESSION_RULE}

    def test_disable_only_covers_named_rules(self):
        violations = lint(
            """
            def run():
                print("x")  # repro-lint: disable=R1 -- wrong rule named
            """
        )
        assert rules_hit(violations) == {"R8"}

    def test_disable_all_covers_every_rule(self):
        violations = lint(
            """
            def run():
                print("x")  # repro-lint: disable=all -- fixture escape hatch
            """
        )
        assert rules_hit(violations) == set()
        assert violations[0].suppressed

    def test_marker_inside_string_is_not_a_suppression(self):
        violations = lint(
            '''
            def run():
                note = "# repro-lint: disable=R8 -- not a comment"
                print(note)
            '''
        )
        assert rules_hit(violations) == {"R8"}

    def test_comma_separated_rule_list(self):
        violations = lint(
            """
            import time

            def run():
                print(time.time())  # repro-lint: disable=R1,R8 -- fixture covers both
            """
        )
        assert rules_hit(violations) == set()
        assert {v.rule for v in violations} == {"R1", "R8"}
        assert all(v.suppressed for v in violations)


# --------------------------------------------------------------------- #
# Framework: parse errors, registry, config, JSON                       #
# --------------------------------------------------------------------- #


class TestFramework:
    def test_syntax_error_yields_parse_violation(self):
        violations = lint_source("def broken(:\n    pass\n")
        (violation,) = violations
        assert violation.rule == PARSE_RULE
        assert "syntax error" in violation.message

    def test_catalogue_has_the_thirteen_rules(self):
        rules = registered_rules()
        assert list(rules) == sorted(rules)
        assert set(rules) >= {f"R{i}" for i in range(1, 14)}
        for cls in rules.values():
            assert cls.title
            assert cls.rationale

    def test_register_rejects_invalid_id(self):
        class Bad(LintRule):
            rule_id = "r9"
            title = "lowercase id"

        with pytest.raises(ValueError, match="invalid rule id"):
            register_rule(Bad)

    def test_register_rejects_reserved_id(self):
        class Bad(LintRule):
            rule_id = SUPPRESSION_RULE
            title = "reserved"

        with pytest.raises(ValueError, match="reserved"):
            register_rule(Bad)

    def test_register_rejects_duplicate_id(self):
        class Bad(LintRule):
            rule_id = "R1"
            title = "imposter"

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Bad)

    def test_register_requires_title(self):
        class Bad(LintRule):
            rule_id = "R99"
            title = ""

        with pytest.raises(ValueError, match="title"):
            register_rule(Bad)

    def test_select_restricts_rules(self):
        source = textwrap.dedent(
            """
            import time

            def run():
                print(time.time())
            """
        )
        config = LintConfig(select=frozenset({"R8"}))
        violations = lint_source(source, config=config)
        assert rules_hit(violations) == {"R8"}

    def test_config_from_ini_and_exemption(self, tmp_path):
        ini = tmp_path / "repro-lint.ini"
        ini.write_text(
            textwrap.dedent(
                """
                [repro-lint]
                exclude = generated/*.py

                [repro-lint.exempt]
                R1 = src/repro/observability/progress.py
                """
            ),
            encoding="utf-8",
        )
        config = LintConfig.from_ini(ini)
        assert config.select is None
        assert config.is_excluded("generated/out.py")
        # Suffix-tolerant: absolute invocation paths still match the glob.
        assert config.is_exempt("R1", "src/repro/observability/progress.py")
        assert config.is_exempt("R1", "/abs/repo/src/repro/observability/progress.py")
        assert not config.is_exempt("R1", "src/repro/simulation/engine.py")
        assert not config.is_exempt("R8", "src/repro/observability/progress.py")

    def test_discover_finds_repo_config(self):
        config = LintConfig.discover(REPO_ROOT / "src" / "repro")
        assert "R1" in config.exempt

    def test_lint_paths_walks_sorted_and_counts(self, tmp_path):
        (tmp_path / "b.py").write_text("print('x')\n", encoding="utf-8")
        (tmp_path / "a.py").write_text("VALUE = 1\n", encoding="utf-8")
        files = list(iter_python_files([tmp_path]))
        assert files == sorted(files)
        violations, checked = lint_paths([tmp_path])
        assert checked == 2
        assert rules_hit(violations) == {"R8"}

    def test_report_json_schema(self):
        violations = [
            Violation(rule="R8", path="a.py", line=1, col=0, message="print"),
            Violation(
                rule="R1",
                path="a.py",
                line=2,
                col=0,
                message="clock",
                suppressed=True,
                reason="store policy",
            ),
        ]
        report = report_json(violations, files_checked=3)
        assert report["version"] == 1
        assert report["files_checked"] == 3
        assert report["unsuppressed"] == 1
        assert report["suppressed"] == 1
        assert report["counts"] == {"R8": 1}
        entries = report["violations"]
        assert len(entries) == 2
        assert set(entries[0]) == {
            "rule",
            "path",
            "line",
            "col",
            "message",
            "suppressed",
            "reason",
        }
        json.dumps(report)  # must be serialisable as-is

    def test_violation_format_mentions_location_and_reason(self):
        violation = Violation(
            rule="R3", path="x.py", line=7, col=4, message="set order"
        )
        assert violation.format() == "x.py:7:4: R3 set order"
        suppressed = Violation(
            rule="R3",
            path="x.py",
            line=7,
            col=4,
            message="set order",
            suppressed=True,
            reason="why",
        )
        assert "(suppressed: why)" in suppressed.format()


# --------------------------------------------------------------------- #
# Meta-test: the shipped tree is lint-clean                              #
# --------------------------------------------------------------------- #


class TestTreeIsClean:
    def test_src_repro_has_no_unsuppressed_violations(self):
        config = LintConfig.discover(REPO_ROOT / "src" / "repro")
        violations, checked = lint_paths([REPO_ROOT / "src" / "repro"], config)
        assert checked > 50
        unsuppressed = [v for v in violations if not v.suppressed]
        assert unsuppressed == [], "\n".join(v.format() for v in unsuppressed)

    def test_every_suppression_carries_a_reason(self):
        config = LintConfig.discover(REPO_ROOT / "src" / "repro")
        violations, _ = lint_paths([REPO_ROOT / "src" / "repro"], config)
        for violation in violations:
            if violation.suppressed:
                assert violation.reason.strip(), violation.format()


@pytest.mark.parametrize("steps", ["tools/run_checks.sh", ".github/workflows/ci.yml"])
def test_check_steps_run_only_existing_scripts(steps):
    """A deleted script cannot leave a check step behind that runs it."""

    text = (REPO_ROOT / steps).read_text(encoding="utf-8")
    scripts = set(re.findall(r"\b(?:benchmarks|tools)/[\w./-]+\.py\b", text))
    assert scripts, f"{steps} names no script"
    missing = sorted(path for path in scripts if not (REPO_ROOT / path).is_file())
    assert missing == [], f"{steps} runs missing scripts: {missing}"


def test_documented_env_knobs_are_read():
    """Every ``REPRO_*`` name the checks, CI and docs use is read by some code.

    A name counts as read when a Python file under ``src/`` or ``tools/``
    spells it as a string literal (``os.environ.get("REPRO_JOBS")``), so a
    deleted or renamed knob cannot linger in the documentation.
    """

    documents = ("tools/run_checks.sh", ".github/workflows/ci.yml", "README.md", "docs/architecture.md")
    documented = set()
    for doc in documents:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        documented |= set(re.findall(r"\bREPRO_[A-Z_]+", text))
    assert documented, "no REPRO_* name documented"
    code = "\n".join(
        path.read_text(encoding="utf-8")
        for root in ("src", "tools")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
    )
    unread = sorted(name for name in documented if not re.search(f"[\"']{name}[\"']", code))
    assert unread == [], f"documented but never read: {unread}"


# --------------------------------------------------------------------- #
# CLI: the CI gate, demonstrated end to end                              #
# --------------------------------------------------------------------- #


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CLI), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=120,
    )


class TestCli:
    def test_seeded_violation_fails_the_gate(self, tmp_path):
        bad = tmp_path / "seeded.py"
        bad.write_text(
            "import time\n\ndef seed():\n    return time.time()\n",
            encoding="utf-8",
        )
        proc = run_cli(str(bad))
        assert proc.returncode == 1
        assert "R1" in proc.stdout

    def test_clean_file_passes(self, tmp_path):
        good = tmp_path / "clean.py"
        good.write_text("VALUE = 1\n", encoding="utf-8")
        proc = run_cli(str(good))
        assert proc.returncode == 0

    def test_json_output_is_parseable(self, tmp_path):
        bad = tmp_path / "seeded.py"
        bad.write_text("print('hello')\n", encoding="utf-8")
        proc = run_cli("--json", str(bad))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["version"] == 1
        assert report["counts"] == {"R8": 1}

    def test_missing_path_is_usage_error(self, tmp_path):
        proc = run_cli(str(tmp_path / "nope.py"))
        assert proc.returncode == 2

    def test_list_rules_prints_catalogue(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("R1", "R3", "R8"):
            assert f"{rule_id}:" in proc.stdout

    def test_full_tree_gate_passes(self):
        proc = run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
