"""The project rules (RL001–RL009).

Each rule encodes a bug class this repository has actually shipped (and
fixed) or an architectural invariant the ROADMAP depends on.  The rule
docstrings name the incident; the messages tell the author what to do
instead.  Justified exceptions carry inline suppressions whose mandatory
reasons double as site-local documentation.
"""

from __future__ import annotations

import ast
import fnmatch
import os
from typing import Dict, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.registry import Rule, register_rule
from repro.lint.reporting import Violation
from repro.lint.walker import FileContext, LintRun


#: Home of the ``legacy_*`` oracles (RL002 exempts them, RL006 pairs them).
_ORACLE_DIR = "tests/oracles/"


def _root_name(expr: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain (``a.b[c].d`` → a)."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _is_register_op_decorator(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Name):
        return target.id == "register_op"
    return isinstance(target, ast.Attribute) and target.attr == "register_op"


# ---------------------------------------------------------------------------
# RL001 — dtype policy
# ---------------------------------------------------------------------------
@register_rule
class DtypePolicyRule(Rule):
    """No hardcoded float64 outside the engine policy module.

    PR 4's bug class: backward closures and feature constructors that
    hardcoded ``np.float64`` silently promoted every downstream array,
    defeating the float32 engine policy and doubling memory bandwidth.
    The only place float64 may be named is ``repro/autograd/engine.py``
    (the policy itself); everything else asks the engine
    (``get_default_dtype()``) or declares a justified suppression.
    """

    code = "RL001"
    name = "dtype-policy"
    summary = (
        "hardcoded np.float64 / dtype=float outside repro/autograd/engine.py"
    )
    node_types = (ast.Attribute, ast.keyword, ast.Call)

    _MESSAGE = (
        "hardcoded float64 defeats the engine dtype policy (PR 4 promotion "
        "bug class); use repro.autograd.engine.get_default_dtype() / "
        "SCORE_DTYPE, or suppress with the reason the width is required"
    )

    def _exempt(self, node: ast.AST, ctx: FileContext) -> bool:
        return ctx.path.endswith("repro/autograd/engine.py")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        if isinstance(node, ast.Attribute):
            if node.attr == "float64" and ctx.is_numpy_attr(node, "float64"):
                if self._exempt(node, ctx):
                    return
                # dtype *checks* (`x.dtype == np.float64`) inspect, they
                # don't construct; comparisons are allowed.
                parent = ctx.parents.get(node)
                if isinstance(parent, ast.Compare):
                    return
                yield self.violation(node, ctx, self._MESSAGE)
        elif isinstance(node, ast.keyword):
            if (
                node.arg == "dtype"
                and isinstance(node.value, ast.Name)
                and node.value.id == "float"
                and not self._exempt(node.value, ctx)
            ):
                yield self.violation(
                    node.value,
                    ctx,
                    "dtype=float is platform-spelled float64; " + self._MESSAGE,
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "astype"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "float"
                and not self._exempt(node, ctx)
            ):
                yield self.violation(
                    node, ctx, "astype(float) promotes to float64; " + self._MESSAGE
                )


# ---------------------------------------------------------------------------
# RL002 — no scatter-add outside the legacy reference kernels
# ---------------------------------------------------------------------------
@register_rule
class ScatterAddRule(Rule):
    """``np.add.at`` / ``ufunc.at`` only inside ``legacy_*`` oracles.

    PR 4 replaced the buffered-scatter kernels with sort-based
    ``reduceat``/``bincount`` reductions for a 2.2x train step; the
    scatter form survives solely as the ``legacy_*`` oracles in
    ``tests/oracles/`` the equivalence suites compare against.  New
    scatter calls reintroduce the slow path.
    """

    code = "RL002"
    name = "no-scatter-add"
    summary = "ufunc.at scatter kernels outside legacy_* oracles"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "at"):
            return
        ufunc = func.value
        if not (
            isinstance(ufunc, ast.Attribute)
            and isinstance(ufunc.value, ast.Name)
            and ufunc.value.id in ctx.numpy_aliases
        ):
            return
        if ctx.path.startswith(_ORACLE_DIR) and ctx.in_legacy_function(node):
            return
        yield self.violation(
            node,
            ctx,
            f"np.{ufunc.attr}.at scatter kernel outside a legacy_* oracle "
            f"in {_ORACLE_DIR}; "
            "use the sort-based kernels in repro.autograd.segment "
            "(segment_sum / _segment_sum_array) superseding it since PR 4",
        )


# ---------------------------------------------------------------------------
# RL003 — no id()-keyed caches
# ---------------------------------------------------------------------------
@register_rule
class IdKeyedCacheRule(Rule):
    """Any ``id(...)`` call must justify the keyed object's lifetime.

    PR 5's bug class: ``schema_vectors_for`` cached by ``id(ontology)``;
    the ontology was garbage collected, CPython recycled the id for a new
    ontology, and the cache served stale vectors for the wrong object.
    Static analysis cannot prove lifetimes, so every ``id()`` use is
    flagged: either key by a content fingerprint, or suppress with the
    reason the object provably outlives the key (e.g. the cache's value
    dict holds a strong reference).
    """

    code = "RL003"
    name = "no-id-keyed-cache"
    summary = "id() used as a key/identity (recycled-id aliasing hazard)"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.Call)
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "id"
            and len(node.args) == 1
            and not node.keywords
        ):
            yield self.violation(
                node,
                ctx,
                "id() keys alias once the object is collected and its id "
                "recycled (the schema_vectors_for stale-cache bug); key by a "
                "content fingerprint or suppress with the lifetime guarantee",
            )


# ---------------------------------------------------------------------------
# RL004 — seeding discipline
# ---------------------------------------------------------------------------
@register_rule
class SeedingDisciplineRule(Rule):
    """RNG construction and global-stream sampling only via repro.utils.seeding.

    Determinism contract: every stream derives from an explicit seed
    through ``derive_seed``/``seeded_rng``/``worker_rng`` so parallel
    ranks decorrelate and reruns reproduce bitwise (PR 5's trailing-zero
    entropy collision lived exactly here).  Bare ``np.random.*`` sampling
    reads hidden global state; ``np.random.default_rng`` scattered through
    the codebase leaves no audit chokepoint.
    """

    code = "RL004"
    name = "seeding-discipline"
    summary = "np.random construction/sampling outside repro.utils.seeding"
    node_types = (ast.Call,)

    _CONSTRUCTORS = {"default_rng", "seed", "RandomState", "SeedSequence"}
    _SAMPLERS = {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
        "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
        "multinomial", "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "permutation", "permuted", "poisson", "power", "rand", "randint",
        "randn", "random", "random_integers", "random_sample", "ranf",
        "rayleigh", "sample", "set_state", "shuffle", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "standard_t", "triangular", "uniform", "vonmises", "wald",
        "weibull", "zipf",
    }

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.Call)
        if ctx.path.endswith("repro/utils/seeding.py"):
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        module = func.value
        if not (
            isinstance(module, ast.Attribute)
            and module.attr == "random"
            and isinstance(module.value, ast.Name)
            and module.value.id in ctx.numpy_aliases
        ):
            return
        if func.attr in self._CONSTRUCTORS:
            yield self.violation(
                node,
                ctx,
                f"np.random.{func.attr} outside repro.utils.seeding; build "
                "streams through seeded_rng/worker_rng/derive_seed so every "
                "RNG is auditable and rank-decorrelated",
            )
        elif func.attr in self._SAMPLERS:
            yield self.violation(
                node,
                ctx,
                f"bare np.random.{func.attr} samples hidden global state; "
                "pass an explicit Generator from repro.utils.seeding",
            )


# ---------------------------------------------------------------------------
# RL005 — fork safety of worker-pool operations
# ---------------------------------------------------------------------------
@register_rule
class ForkSafetyRule(Rule):
    """Worker-pool ops must be module-level, closure-free and side-effect
    free on module state.

    ``repro.parallel`` dispatches ops by *name* to forked children; the
    function object must therefore exist identically in every process
    (module-level def, importable before the fork) and must not mutate
    module globals — with ``workers=1`` the very same op runs inline in
    the parent, where such mutations corrupt shared state that forked
    runs would never see.
    """

    code = "RL005"
    name = "fork-safety"
    summary = "closure/lambda ops or module-global mutation in worker code"
    node_types = (ast.Call, ast.FunctionDef)

    _MUTATORS = {
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "setdefault", "update",
    }

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        if isinstance(node, ast.Call):
            # register_op("x")(lambda ...) — unreproducible across forks.
            if (
                isinstance(node.func, ast.Call)
                and _is_register_op_decorator(node.func)
                and any(isinstance(arg, ast.Lambda) for arg in node.args)
            ):
                yield self.violation(
                    node,
                    ctx,
                    "lambda registered as a worker op; ops must be "
                    "module-level defs so forked children resolve the same "
                    "function by name",
                )
            return
        assert isinstance(node, ast.FunctionDef)
        if not any(
            _is_register_op_decorator(d) for d in node.decorator_list
        ):
            return
        if any(True for _ in ctx.enclosing_functions(node)):
            yield self.violation(
                node,
                ctx,
                f"worker op {node.name!r} is a nested closure; captured "
                "frame state diverges between the parent and forked "
                "children — move it to module level",
            )
            return
        yield from self._check_op_body(node, ctx)

    def _check_op_body(
        self, op: ast.FunctionDef, ctx: FileContext
    ) -> Iterator[Violation]:
        local_names: Set[str] = {arg.arg for arg in op.args.args}
        local_names.update(arg.arg for arg in op.args.kwonlyargs)
        if op.args.vararg:
            local_names.add(op.args.vararg.arg)
        if op.args.kwarg:
            local_names.add(op.args.kwarg.arg)
        for inner in ast.walk(op):
            if isinstance(inner, ast.Name) and isinstance(
                inner.ctx, ast.Store
            ):
                local_names.add(inner.id)
        for inner in ast.walk(op):
            if isinstance(inner, ast.Global):
                yield self.violation(
                    inner,
                    ctx,
                    f"worker op {op.name!r} rebinds module global(s) "
                    f"{', '.join(inner.names)}; inline (workers=1) runs "
                    "mutate the parent's module state — thread state "
                    "through the op's `state` dict or the payload",
                )
            elif isinstance(inner, (ast.Assign, ast.AugAssign)):
                targets = (
                    inner.targets
                    if isinstance(inner, ast.Assign)
                    else [inner.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = _root_name(target)
                        if (
                            root is not None
                            and root in ctx.module_globals
                            and root not in local_names
                        ):
                            yield self.violation(
                                inner,
                                ctx,
                                f"worker op {op.name!r} writes into module "
                                f"global {root!r}; per-process caches must "
                                "live in the op's `state` dict",
                            )
            elif isinstance(inner, ast.Call) and isinstance(
                inner.func, ast.Attribute
            ):
                if inner.func.attr in self._MUTATORS:
                    root = _root_name(inner.func.value)
                    if (
                        root is not None
                        and root in ctx.module_globals
                        and root not in local_names
                    ):
                        yield self.violation(
                            inner,
                            ctx,
                            f"worker op {op.name!r} mutates module global "
                            f"{root!r} via .{inner.func.attr}(); "
                            "per-process caches must live in the op's "
                            "`state` dict",
                        )


# ---------------------------------------------------------------------------
# RL006 — every legacy_* oracle keeps its parity suite
# ---------------------------------------------------------------------------
@register_rule
class LegacyParityRule(Rule):
    """Each module-level ``legacy_*`` function under ``tests/oracles/``
    must be exercised by a ``tests/test_*equivalence*`` module.

    The ``legacy_*`` oracles are the ground truth the fast kernels in
    ``src`` are proven against; an oracle whose parity suite silently
    disappears is dead weight that *looks* like a safety net.  This rule
    is cross-file: it collects ``legacy_*`` defs during the walk and
    resolves references against the equivalence test modules (loading
    them from disk when the walk did not include them).
    """

    code = "RL006"
    name = "legacy-parity-pairing"
    summary = "legacy_* oracle without a test_*equivalence* suite"
    node_types = (ast.FunctionDef,)

    _TEST_GLOB = "test_*equivalence*.py"

    def __init__(self) -> None:
        self._legacy_defs: List[Tuple[str, ast.FunctionDef, str]] = []

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.FunctionDef)
        if not node.name.startswith("legacy_"):
            return
        if not ctx.path.startswith(_ORACLE_DIR):
            return
        if any(True for _ in ctx.enclosing_functions(node)):
            return
        self._legacy_defs.append((ctx.path, node, node.name))
        return
        yield  # pragma: no cover - makes this a generator

    def _equivalence_contexts(self, run: LintRun) -> List[FileContext]:
        contexts = [
            ctx
            for path, ctx in run.contexts.items()
            if fnmatch.fnmatch(os.path.basename(path), self._TEST_GLOB)
        ]
        tests_dir = os.path.join(run.root, "tests")
        if os.path.isdir(tests_dir):
            for name in sorted(os.listdir(tests_dir)):
                if fnmatch.fnmatch(name, self._TEST_GLOB):
                    ctx = run.load_extra_file(os.path.join(tests_dir, name))
                    if ctx is not None and ctx not in contexts:
                        contexts.append(ctx)
        return contexts

    def finalize(self, run: LintRun) -> Iterator[Violation]:
        if not self._legacy_defs:
            return
        referenced: Set[str] = set()
        for ctx in self._equivalence_contexts(run):
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    if node.value.isidentifier():
                        referenced.add(node.value)
        for path, node, name in self._legacy_defs:
            if name not in referenced:
                ctx = run.contexts[path]
                yield self.violation(
                    node,
                    ctx,
                    f"oracle {name!r} is not exercised by any "
                    "tests/test_*equivalence* module; a legacy kernel "
                    "without its parity suite is an unverified safety net",
                )


# ---------------------------------------------------------------------------
# RL007 — backward closures must be gated on _needs_graph
# ---------------------------------------------------------------------------
@register_rule
class GradHygieneRule(Rule):
    """Autograd ops building backward closures must guard on the grad mode.

    PR 4's ``no_grad()`` contract: eval and serving forwards allocate
    *zero* autograd bookkeeping.  An op that constructs
    ``Tensor(..., backward_fn=...)`` without consulting ``_needs_graph``
    (or ``is_grad_enabled``) silently re-enables closure allocation on
    the inference path — invisible until someone profiles serving.
    """

    code = "RL007"
    name = "no-grad-hygiene"
    summary = "Tensor(..., backward_fn=...) without a _needs_graph guard"
    node_types = (ast.FunctionDef,)

    _GUARDS = {"_needs_graph", "is_grad_enabled"}

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.FunctionDef)
        if "repro/autograd/" not in ctx.path:
            return
        builds_graph = False
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            if not (
                isinstance(inner.func, ast.Name)
                and inner.func.id == "Tensor"
                and any(kw.arg == "backward_fn" for kw in inner.keywords)
            ):
                continue
            # Attribute the construction to its *nearest* enclosing
            # function so nested helpers are checked once, not twice.
            nearest = next(ctx.enclosing_functions(inner), None)
            if nearest is node:
                builds_graph = True
                break
        if not builds_graph:
            return
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in self._GUARDS:
                return
            if isinstance(inner, ast.Attribute) and inner.attr in self._GUARDS:
                return
        yield self.violation(
            node,
            ctx,
            f"{node.name!r} builds a backward closure without guarding on "
            "_needs_graph/is_grad_enabled; no_grad() inference would "
            "allocate graph bookkeeping (PR 4 hygiene contract)",
        )


# ---------------------------------------------------------------------------
# RL008 — instrumentation clock discipline
# ---------------------------------------------------------------------------
@register_rule
class InstrumentationClockRule(Rule):
    """No hand-rolled wall-clock instrumentation outside ``repro.obs``.

    PR 7's consolidation: scattered ``time.perf_counter()`` pairs across
    the benchmark scripts each reinvented timing, reporting and reset
    semantics, and none of their numbers reached ``/metrics``.  Library
    code under ``src/repro`` times through :func:`repro.obs.span` (which
    owns the one sanctioned ``perf_counter`` call site), so every
    measurement lands in the shared registry with nested attribution.
    ``time.monotonic`` stays legal — the scheduler's size-or-deadline
    coalescing uses it for control flow, not measurement.
    """

    code = "RL008"
    name = "obs-clock-discipline"
    summary = (
        "direct time.time()/perf_counter() instrumentation in src/repro "
        "outside repro.obs"
    )
    node_types = (ast.Call,)

    _BANNED = {
        "time",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }

    def begin_file(self, ctx: FileContext) -> None:
        # Names bound to the time module / its banned members in this file.
        self._time_aliases: Set[str] = set()
        self._from_time: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        self._time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._BANNED:
                        self._from_time.add(alias.asname or alias.name)

    def _message(self, call: str) -> str:
        return (
            f"{call} is hand-rolled instrumentation; time through "
            "repro.obs.span(name) so the measurement reaches the metrics "
            "registry (RL008 clock discipline)"
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.Call)
        if not ctx.path.startswith("src/repro/") or ctx.path.startswith(
            "src/repro/obs/"
        ):
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._BANNED
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_aliases
        ):
            yield self.violation(
                node, ctx, self._message(f"{func.value.id}.{func.attr}()")
            )
        elif isinstance(func, ast.Name) and func.id in self._from_time:
            yield self.violation(node, ctx, self._message(f"{func.id}()"))


# ---------------------------------------------------------------------------
# RL009 — no silently swallowed exceptions
# ---------------------------------------------------------------------------
@register_rule
class SilentSwallowRule(Rule):
    """No ``except ...: pass`` (or bare ``except:``) discarding the error.

    The fault-tolerance PR's bug class: a worker pool that swallows a
    queue error during teardown is tolerable, but the same pattern around
    dispatch or result collection turns a crashed worker into a silent
    hang — the failure the chaos suite exists to surface.  Library code
    under ``src/repro`` must handle, translate, count, or re-raise; a
    handler that does literally nothing needs an inline suppression whose
    mandatory reason documents why dropping the error is safe *here*.
    """

    code = "RL009"
    name = "no-silent-swallow"
    summary = (
        "except clause in src/repro that discards the exception "
        "(pass-only body or bare except without re-raise)"
    )
    node_types = (ast.ExceptHandler,)

    @staticmethod
    def _is_noop(statement: ast.stmt) -> bool:
        if isinstance(statement, ast.Pass):
            return True
        return (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis
        )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(child, ast.Raise)
            for statement in handler.body
            for child in ast.walk(statement)
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        assert isinstance(node, ast.ExceptHandler)
        if not ctx.path.startswith("src/repro/"):
            return
        if all(self._is_noop(statement) for statement in node.body):
            yield self.violation(
                node,
                ctx,
                "except clause silently swallows the exception; handle it, "
                "count it into the metrics registry, or suppress with the "
                "reason dropping it is safe (RL009 no-silent-swallow)",
            )
            return
        if node.type is None and not self._reraises(node):
            yield self.violation(
                node,
                ctx,
                "bare except: catches SystemExit/KeyboardInterrupt and hides "
                "the error type; catch a concrete exception or re-raise "
                "(RL009 no-silent-swallow)",
            )


# Dict of code -> rule class is assembled by the registry; importing this
# module is what populates it (see repro.lint.registry.all_rules).
RULES: Dict[str, Type[Rule]] = {
    rule.code: rule
    for rule in (
        DtypePolicyRule,
        ScatterAddRule,
        IdKeyedCacheRule,
        SeedingDisciplineRule,
        ForkSafetyRule,
        LegacyParityRule,
        GradHygieneRule,
        InstrumentationClockRule,
        SilentSwallowRule,
    )
}
