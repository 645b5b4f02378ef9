"""The built-in rule catalogue.

Each rule encodes one invariant the reproduction actually depends on, and
each was motivated by a bug class this repo has already paid for (the
``rationale`` strings name the PR).  Rules are deliberately *syntactic*:
they match what the AST can prove, route judgment calls through
``# repro-lint: disable=<rule> -- <reason>`` suppressions, and prefer a
false negative over drowning the tree in noise — the regression tests
remain the backstop for what static analysis cannot see.

Adding a rule: subclass :class:`~repro.lint.framework.LintRule`, set
``rule_id``/``title``/``rationale``, implement ``visit_*`` hooks calling
``self.report(node, message)``, and decorate with ``@register_rule``.
"""

from __future__ import annotations

import ast
import re
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .framework import FileContext, LintRule, Violation, register_rule

__all__ = [
    "AmbientNondeterminismRule",
    "UnstableHashRule",
    "UnorderedIterationRule",
    "UnpicklableTrialRule",
    "UnguardedTraceEmitRule",
    "TunableContractRule",
    "FrozenMutationRule",
    "NoPrintRule",
    "HashUniqueRule",
    "UndeclaredImportRule",
    "SimulationLayeringRule",
    "FrozenSetIdsRule",
    "SingleEstimatorRule",
]


def _call_name(rule: LintRule, node: ast.Call) -> Optional[str]:
    return rule.ctx.dotted_name(node.func)


@register_rule
class AmbientNondeterminismRule(LintRule):
    """R1: no ambient entropy — clocks, pids, uuids, global RNG."""

    rule_id = "R1"
    title = "ambient nondeterminism (clock / pid / uuid / global RNG)"
    rationale = (
        "Runs must be pure functions of (labels, trial): all randomness flows "
        "through repro.simulation.rng.RandomSource and all timing through the "
        "observability clock shims.  One time.time() feeding a seed breaks the "
        "parallel-equals-serial bit-identity PR 4 guarantees."
    )

    #: Exact canonical call names that read ambient state.
    BANNED_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "os.getpid",
            "os.urandom",
            "os.getrandom",
            "uuid.uuid1",
            "uuid.uuid4",
        }
    )
    #: Module prefixes banned wholesale (every attribute draws global state).
    BANNED_PREFIXES = ("random.", "secrets.")
    #: numpy.random members that are *seeded* constructions, not global draws.
    NUMPY_ALLOWED = frozenset(
        {
            "numpy.random.SeedSequence",
            "numpy.random.Generator",
            "numpy.random.BitGenerator",
            "numpy.random.default_rng",  # bare (no-arg) calls are re-checked below
            "numpy.random.PCG64",
            "numpy.random.PCG64DXSM",
            "numpy.random.Philox",
            "numpy.random.SFC64",
            "numpy.random.MT19937",
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(self, node)
        if name is not None:
            if name in self.BANNED_CALLS:
                self.report(node, f"call to {name}() reads ambient state")
            elif name.startswith(self.BANNED_PREFIXES):
                self.report(
                    node,
                    f"module-level RNG {name}() is process-global; draw from a "
                    "repro.simulation.rng.RandomSource substream instead",
                )
            elif name.startswith("numpy.random."):
                if name not in self.NUMPY_ALLOWED:
                    self.report(
                        node,
                        f"{name}() uses numpy's global RNG; draw from a "
                        "RandomSource substream instead",
                    )
                elif name == "numpy.random.default_rng" and not node.args:
                    self.report(
                        node,
                        "bare default_rng() seeds from the OS; pass an explicit "
                        "seed or SeedSequence",
                    )
        self.generic_visit(node)


@register_rule
class UnstableHashRule(LintRule):
    """R2: no builtin hash()/id() feeding keys, seeds, or ordering."""

    rule_id = "R2"
    title = "builtin hash()/id() (process-salted / address-dependent)"
    rationale = (
        "str hashes are salted per process (PYTHONHASHSEED) and id() is an "
        "address, so neither may feed seeds, cache keys, or orderings that "
        "must agree across worker processes.  PR 1 fixed exactly this by "
        "moving rng stream hashing to CRC-32 (_stable_label_hash)."
    )

    #: hash() delegation inside __hash__ is the normal in-process idiom.
    ALLOWED_IN = frozenset({"__hash__"})

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(self, node)
        if name in ("hash", "id"):
            enclosing = {
                getattr(fn, "name", None) for fn in self.function_stack
            }
            if not (enclosing & self.ALLOWED_IN):
                self.report(
                    node,
                    f"builtin {name}() is not process-stable; use the CRC-32 "
                    "helpers (repro.simulation.rng._stable_label_hash) or an "
                    "explicit key",
                )
        self.generic_visit(node)


class _SetTracker(ast.NodeVisitor):
    """Collect names bound to set-typed expressions within one scope."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self.set_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and _is_set_expr(node.value, self.set_names):
            if isinstance(node.target, ast.Name):
                self.set_names.add(node.target.id)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scopes are analysed separately

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    return False


@register_rule
class UnorderedIterationRule(LintRule):
    """R3: no order-sensitive iteration over set/frozenset values."""

    rule_id = "R3"
    title = "order-sensitive iteration over a set/frozenset"
    rationale = (
        "set iteration order depends on element hashes, which are salted per "
        "process for str and layout-dependent in general, so a set feeding "
        "records, schedules, or cache keys must pass through sorted() first.  "
        "PR 6 removed frozenset ordering from both engines' hot paths for "
        "exactly this reason."
    )

    #: Call heads whose argument order is observable in the result.
    ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "iter", "enumerate"})
    #: Order-insensitive reducers — sorted() is the sanctioned fix and the
    #: others fold commutatively; none are flagged.

    def _check_scope(self, scope: ast.AST, body: Sequence[ast.stmt]) -> None:
        tracker = _SetTracker()
        for stmt in body:
            tracker.visit(stmt)
        set_names = tracker.set_names
        for stmt in body:
            for node in _walk_same_scope(stmt):
                self._check_node(node, set_names)

    def _check_node(self, node: ast.AST, set_names: Set[str]) -> None:
        if isinstance(node, ast.For):
            if _is_set_expr(node.iter, set_names):
                self.report(node.iter, "for-loop over a set has no stable order; wrap in sorted()")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # SetComp over a set is order-insensitive and stays allowed.
            for comp in node.generators:
                if _is_set_expr(comp.iter, set_names):
                    self.report(
                        comp.iter,
                        "comprehension over a set has no stable order; wrap in sorted()",
                    )
        elif isinstance(node, ast.Call):
            name = self.ctx.dotted_name(node.func)
            if name in self.ORDER_SENSITIVE_CALLS and node.args:
                if _is_set_expr(node.args[0], set_names):
                    self.report(
                        node,
                        f"{name}() materialises set order; wrap the set in sorted()",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and _is_set_expr(node.args[0], set_names)
            ):
                self.report(node, "str.join over a set has no stable order; wrap in sorted()")

    def visit_Module(self, node: ast.Module) -> None:
        self._check_scope(node, node.body)
        for fn in ast.walk(node):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_scope(fn, fn.body)


def _walk_same_scope(stmt: ast.stmt) -> Iterator[ast.AST]:
    """ast.walk that does not descend into nested function definitions."""

    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


@register_rule
class UnpicklableTrialRule(LintRule):
    """R4: trial functions handed to the parallel runner must be top-level."""

    rule_id = "R4"
    title = "closure/lambda handed to the parallel trial runner"
    rationale = (
        "run_sweep ships trial functions to worker processes by pickled "
        "reference (module + qualname), so a lambda or nested function fails "
        "only at fan-out time — and only when jobs > 1, which is how such "
        "bugs slip past a serial test run.  PR 4 made every exp_*.py _trial "
        "top-level for exactly this reason."
    )

    #: Call heads whose first/`trial_fn` argument crosses a process boundary.
    SINKS = frozenset({"TrialSpec", "TrialSpec.point"})

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._nested_fns: Set[str] = set()
        for outer in ast.walk(ctx.tree):
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(outer):
                    if inner is not outer and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._nested_fns.add(inner.name)

    def visit_Call(self, node: ast.Call) -> None:
        parts = (self.ctx.dotted_name(node.func) or "").split(".")
        if parts[-1] in self.SINKS or ".".join(parts[-2:]) in self.SINKS:
            candidate: Optional[ast.expr] = None
            if node.args:
                candidate = node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "trial_fn":
                    candidate = keyword.value
            if candidate is not None:
                self._check_fn_arg(candidate)
        self.generic_visit(node)

    def _check_fn_arg(self, candidate: ast.expr) -> None:
        if isinstance(candidate, ast.Lambda):
            self.report(candidate, "lambda cannot cross the worker process boundary")
        elif isinstance(candidate, ast.Name) and candidate.id in self._nested_fns:
            self.report(
                candidate,
                f"nested function {candidate.id!r} is not picklable; define the "
                "trial function at module top level",
            )
        elif (
            isinstance(candidate, ast.Call)
            and self.ctx.dotted_name(candidate.func) in ("functools.partial", "partial")
            and candidate.args
        ):
            self._check_fn_arg(candidate.args[0])


@register_rule
class UnguardedTraceEmitRule(LintRule):
    """R5: every recorder emit sits behind a ``recorder.enabled`` check."""

    rule_id = "R5"
    title = "recorder.record() without a recorder.enabled guard"
    rationale = (
        "The telemetry layer's contract (PR 8) is near-zero cost when off: "
        "emit sites read already-computed values behind one `.enabled` check, "
        "which is also what keeps traced runs bit-identical to untraced.  An "
        "unguarded record() builds event payloads on every hot-path phase."
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._if_guards: List[Tuple[str, bool]] = []  # (test source, in-body)
        self._early_guards: Dict[int, List[Tuple[str, int]]] = {}  # fn id -> (base, line)

    def handle_function(self, node: ast.AST) -> None:
        guards: List[Tuple[str, int]] = []
        for stmt in getattr(node, "body", []):
            for inner in _walk_same_scope(stmt):
                if not isinstance(inner, ast.If):
                    continue
                test = inner.test
                if (
                    isinstance(test, ast.UnaryOp)
                    and isinstance(test.op, ast.Not)
                    and isinstance(test.operand, ast.Attribute)
                    and test.operand.attr == "enabled"
                    and any(isinstance(s, (ast.Return, ast.Continue, ast.Raise)) for s in inner.body)
                ):
                    guards.append((ast.unparse(test.operand.value), inner.lineno))
        # repro-lint: disable=R2 -- AST-node identity key within one in-process walk; never serialised or ordered
        self._early_guards[id(node)] = guards

    def visit_If(self, node: ast.If) -> None:
        test_src = ast.unparse(node.test)
        self._if_guards.append((test_src, True))
        for stmt in node.body:
            self.visit(stmt)
        self._if_guards.pop()
        self._if_guards.append((test_src, False))
        for stmt in node.orelse:
            self.visit(stmt)
        self._if_guards.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "record":
            base_src = ast.unparse(func.value)
            if "recorder" in base_src.lower() and not self._is_guarded(node, base_src):
                self.report(
                    node,
                    f"{base_src}.record(...) must sit behind an "
                    f"`if {base_src}.enabled:` guard",
                )
        self.generic_visit(node)

    def _is_guarded(self, node: ast.Call, base_src: str) -> bool:
        needle = f"{base_src}.enabled"
        for test_src, in_body in self._if_guards:
            if in_body and needle in test_src:
                return True
        if self.function_stack:
            # repro-lint: disable=R2 -- AST-node identity key within one in-process walk; never serialised or ordered
            guards = self._early_guards.get(id(self.function_stack[-1]), ())
            for guard_base, guard_line in guards:
                if guard_base == base_src and guard_line < node.lineno:
                    return True
        return False


@register_rule
class TunableContractRule(LintRule):
    """R6: ``tunable`` ParamSpec declarations match real instance state."""

    rule_id = "R6"
    title = "tunable ParamSpec declaration out of sync with the class"
    rationale = (
        "The tournament optimiser (PR 7) drives with_parameters() purely off "
        "the class-level `tunable` declaration; a spec naming a non-existent "
        "attribute only fails deep inside a sweep.  Declarations must be "
        "literal tuples whose names are backed by __init__ state or a "
        "_set_parameter override."
    )

    def handle_class(self, node: ast.ClassDef) -> None:
        declaration = self._tunable_declaration(node)
        method_names = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if declaration is None:
            for hook in ("_set_parameter", "_validate_parameters"):
                if hook in method_names and "tunable_parameters" not in method_names:
                    self.report(
                        node,
                        f"{node.name} overrides {hook}() but declares no "
                        "`tunable` parameters (dead hook, or a missing declaration)",
                    )
            return
        value, names = declaration
        if isinstance(value, ast.List):
            self.report(value, "declare `tunable` as a tuple, not a mutable list")
        if "_set_parameter" in method_names or "tunable_parameters" in method_names:
            return  # derived-state classes route assignment themselves
        backing = self._self_assigned_names(node) | self._init_params(node)
        for name_node, name in names:
            if name is None:
                self.report(
                    name_node,
                    "ParamSpec name must be a string literal so the linter "
                    "(and the optimiser) can see it",
                )
            elif name not in backing:
                self.report(
                    name_node,
                    f"tunable parameter {name!r} has no backing attribute: "
                    f"assign self.{name} in __init__ or override _set_parameter",
                )
        seen: Set[str] = set()
        for name_node, name in names:
            if name is not None:
                if name in seen:
                    self.report(name_node, f"duplicate tunable parameter {name!r}")
                seen.add(name)

    @staticmethod
    def _tunable_declaration(
        node: ast.ClassDef,
    ) -> Optional[Tuple[ast.expr, List[Tuple[ast.expr, Optional[str]]]]]:
        for stmt in node.body:
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == "tunable" for t in stmt.targets):
                    value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == "tunable":
                    value = stmt.value
            if value is None:
                continue
            names: List[Tuple[ast.expr, Optional[str]]] = []
            elements = value.elts if isinstance(value, (ast.Tuple, ast.List)) else []
            for element in elements:
                if not (
                    isinstance(element, ast.Call)
                    and isinstance(element.func, ast.Name)
                    and element.func.id == "ParamSpec"
                ):
                    continue
                name: Optional[ast.expr] = element.args[0] if element.args else None
                for keyword in element.keywords:
                    if keyword.arg == "name":
                        name = keyword.value
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    names.append((element, name.value))
                else:
                    names.append((element, None))
            return value, names
        return None

    @staticmethod
    def _self_assigned_names(node: ast.ClassDef) -> Set[str]:
        assigned: Set[str] = set()
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(stmt):
                targets: List[ast.expr] = []
                if isinstance(inner, ast.Assign):
                    targets = inner.targets
                elif isinstance(inner, (ast.AnnAssign, ast.AugAssign)):
                    targets = [inner.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        assigned.add(target.attr)
        return assigned

    @staticmethod
    def _init_params(node: ast.ClassDef) -> Set[str]:
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                args = stmt.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                return set(names) - {"self"}
        return set()


@register_rule
class FrozenMutationRule(LintRule):
    """R7: no frozen-dataclass mutation outside construction."""

    rule_id = "R7"
    title = "object.__setattr__ outside __init__/__post_init__"
    rationale = (
        "Frozen dataclasses are shared across threads, cached by identity, "
        "and hashed into cache keys; mutating one after construction "
        "invalidates all three.  Lazy caches on frozen instances are the one "
        "sanctioned exception and must carry a suppression explaining why "
        "the cached value is a pure function of the frozen fields."
    )

    ALLOWED_IN = frozenset({"__init__", "__post_init__", "__setstate__", "__new__"})

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.dotted_name(node.func) == "object.__setattr__":
            enclosing = {getattr(fn, "name", None) for fn in self.function_stack}
            if not (enclosing & self.ALLOWED_IN):
                where = self.current_function_name or "<module>"
                self.report(
                    node,
                    f"object.__setattr__ in {where}() mutates a frozen instance "
                    "after construction",
                )
        self.generic_visit(node)


@register_rule
class NoPrintRule(LintRule):
    """R8: no stdout print() in library code."""

    rule_id = "R8"
    title = "print() to stdout in library code"
    rationale = (
        "Generated documents (EXPERIMENTS.md, LEADERBOARD.md) must stay "
        "byte-identical, and several tools compose output on stdout; stray "
        "library prints corrupt both.  Diagnostics go to stderr "
        "(file=sys.stderr) or through the observability renderers."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.dotted_name(node.func) == "print":
            to_stderr = any(
                keyword.arg == "file" and ast.unparse(keyword.value).endswith("stderr")
                for keyword in node.keywords
            )
            if not to_stderr:
                self.report(
                    node,
                    "print() writes to stdout; route diagnostics to stderr "
                    "(file=sys.stderr) or an observability renderer",
                )
        self.generic_visit(node)


@register_rule
class HashUniqueRule(LintRule):
    """R9: no hash-path ``np.unique`` and no ``np.isin``; use ``setops``."""

    rule_id = "R9"
    title = "hash-path np.unique / np.isin (use repro.simulation.setops)"
    rationale = (
        "numpy 2.4 answers np.unique() without a return_* flag from a hash "
        "table, 15-60x slower than sort-then-mask for 10^3 or more ints "
        "(numpy 2.4.6: 1k 803 us vs 17 us, 10k 1.7 ms vs 96 us, 100k 25 ms vs "
        "1.0 ms, 1M 889 ms vs 14 ms), and np.isin runs that path on its second "
        "argument.  It was the largest single cost of the multi-hop engine.  "
        "Use unique_sorted / isin_sorted from repro.simulation.setops, the "
        "one module exempt from this rule."
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(self, node)
        if name == "numpy.isin":
            self.report(
                node,
                "np.isin() uniques its second argument on numpy's hash path; "
                "use setops.isin_sorted(values, setops.unique_sorted(members))",
            )
        elif name == "numpy.unique" and not any(
            (keyword.arg or "").startswith("return_") for keyword in node.keywords
        ):
            self.report(
                node,
                "np.unique() without a return_* flag takes numpy's hash path; "
                "use setops.unique_sorted()",
            )
        self.generic_visit(node)


@register_rule
class UndeclaredImportRule(LintRule):
    """R10: library code imports only the standard library, numpy and repro."""

    rule_id = "R10"
    title = "import of a package setup.py does not declare"
    rationale = (
        "setup.py's install_requires is numpy alone, and CI installs nothing "
        "else, so any other third-party import either fails on a clean install "
        "or, behind a try/except ImportError, silently switches to another code "
        "path.  The offset power-law fit once lazily imported scipy.optimize: "
        "without scipy it fell back to a different estimator and E1/E5 printed "
        "other exponents, and with scipy the import alone added 43 MiB RSS."
    )

    #: The non-stdlib top-level packages library code may import.
    DECLARED = frozenset({"numpy", "repro"})

    def visit_Import(self, node: ast.Import) -> None:
        for item in node.names:
            self._check(node, item.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not node.level and node.module is not None:
            self._check(node, node.module)

    def _check(self, node: ast.stmt, module: str) -> None:
        root = module.split(".")[0]
        if root not in sys.stdlib_module_names and root not in self.DECLARED:
            self.report(
                node,
                f"import of {module!r}: library code may import only the standard "
                "library, numpy and repro (setup.py install_requires)",
            )


@register_rule
class SimulationLayeringRule(LintRule):
    """R11: ``repro.simulation`` imports only stdlib, numpy and itself."""

    rule_id = "R11"
    title = "repro.simulation importing from another repro package"
    rationale = (
        "The simulation substrate sits under the protocol, trace and "
        "experiment layers.  Both engines once imported the trace layer to "
        "emit their own per-phase 'engine' event, a second copy of the "
        "driver's 'phase' record; an engine now reports its code path on the "
        "PhaseResult and the driver records the phase once.  Keeping the "
        "package's imports to the standard library, numpy and "
        "repro.simulation stops telemetry (or protocol logic) growing back "
        "into the engines."
    )

    def visit_Import(self, node: ast.Import) -> None:
        for item in node.names:
            self._check(node, item.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 1:
            return  # a sibling module: the package has no subpackages
        module = node.module or ""
        if node.level:
            # ``from ..x import y`` in repro/simulation/ resolves against repro.
            module = f"repro.{module}" if module else "repro"
        if module == "repro":
            for item in node.names:
                self._check(node, f"repro.{item.name}")
        else:
            self._check(node, module)

    def _check(self, node: ast.stmt, module: str) -> None:
        if "/repro/simulation/" not in "/" + self.ctx.path.replace("\\", "/"):
            return
        if module.split(".")[0] == "repro" and module.split(".")[:2] != ["repro", "simulation"]:
            self.report(
                node,
                f"import of {module!r}: modules under repro/simulation may "
                "import only the standard library, numpy and repro.simulation",
            )


@register_rule
class FrozenSetIdsRule(LintRule):
    """R12: no frozenset id groups under ``repro.simulation`` / ``repro.adversary``."""

    rule_id = "R12"
    title = "frozenset built or annotated in repro.simulation / repro.adversary"
    rationale = (
        "A group of device ids has one form in the simulator and the "
        "adversaries: a sorted int64 array (repro.simulation.setops).  A "
        "frozenset copy of the same ids once ran beside it: a mobile jammer's "
        "disk was built as a frozenset, copied twice, and turned back into an "
        "array by the engine every phase.  A function that needs O(1) "
        "membership says why in a suppression; it is reported once, at its def."
    )

    MENTION = re.compile(r"\b(?:frozenset|FrozenSet)\b")

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._flagged: Set[int] = set()  # lines already reported

    def run(self) -> List[Violation]:
        path = "/" + self.ctx.path.replace("\\", "/")
        if "/repro/simulation/" not in path and "/repro/adversary/" not in path:
            return []
        return super().run()

    def handle_function(self, node: ast.AST) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        annotations = [arg.annotation for arg in every if arg is not None] + [node.returns]
        if any(self._mentions(annotation) for annotation in annotations):
            self._flag(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._mentions(node.annotation):
            self._flag(self.function_stack[-1] if self.function_stack else node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.dotted_name(node.func) == "frozenset":
            self._flag(self.function_stack[-1] if self.function_stack else node)
        self.generic_visit(node)

    def _mentions(self, annotation: Optional[ast.expr]) -> bool:
        # Unparsing covers names, attributes and string annotations alike.
        return annotation is not None and bool(self.MENTION.search(ast.unparse(annotation)))

    def _flag(self, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        if line not in self._flagged:
            self._flagged.add(line)
            name = getattr(node, "name", None)
            where = f"{name}()" if name else "this line"
            self.report(
                node,
                f"{where} builds or annotates a frozenset: id groups under repro/simulation "
                "and repro/adversary are sorted int64 arrays (repro.simulation.setops)",
            )


@register_rule
class SingleEstimatorRule(LintRule):
    """R13: least-squares fitting calls live only in ``repro/analysis/fitting.py``."""

    rule_id = "R13"
    title = "least-squares fit outside repro/analysis/fitting.py"
    rationale = (
        "Theorem 1's cost exponent is the reproduction's headline number, and "
        "five experiments once fitted it three different ways: trial 0 only, "
        "per-point means with an offset pinned to the first point, and a "
        "separate log-log polyfit with its own interval.  The same seed panel "
        "read 0.478-0.659 through one path and 0.587-0.667 through another.  "
        "Every cost exponent now comes from fitting.fit_cost_exponent; keeping "
        "the fitting primitives in that one module stops a second estimator "
        "growing back into an experiment.  scipy's fitters (curve_fit, "
        "scipy.linalg.lstsq) need no entry: R10 keeps scipy out of library code."
    )

    BANNED_CALLS = frozenset(
        {
            "numpy.polyfit",
            "numpy.polynomial.polynomial.polyfit",
            "numpy.linalg.lstsq",
        }
    )

    def run(self) -> List[Violation]:
        if ("/" + self.ctx.path.replace("\\", "/")).endswith("/repro/analysis/fitting.py"):
            return []
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(self, node)
        if name in self.BANNED_CALLS:
            self.report(
                node,
                f"{name}() fits outside repro/analysis/fitting.py; cost exponents come "
                "from fit_cost_exponent and latency exponents from fit_power_law",
            )
        self.generic_visit(node)
