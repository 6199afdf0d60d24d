"""AST-based determinism & concurrency linter.

Project-specific rules that encode the repository's determinism contract
(see ``docs/internals.md``, "Static analysis & sanitizers"):

- ``REPRO001`` (unseeded-rng): stochastic choices must flow through the
  seed tree.  Flags the stdlib ``random`` module and NumPy's *global*
  legacy RNG (``np.random.rand`` and friends), plus ``np.random.
  default_rng()`` called without a seed, everywhere except
  ``repro/util/rng.py``.
- ``REPRO002`` (seed-sequence): ``np.random.SeedSequence`` may only be
  touched inside ``repro.util.rng``; everyone else derives sub-seeds via
  ``derive_seed`` / ``keyed_rng`` / ``SeedSequenceTree`` so the seed
  derivation scheme has exactly one implementation.
- ``REPRO003`` (wall-clock): operator/compute code must not read the wall
  clock (``time.time`` / ``time.perf_counter`` / ``time.monotonic``) —
  timing is either the contention-independent ``time.thread_time`` or an
  injected :class:`~repro.galois.timers.StatTimer` clock.  Files that
  legitimately measure end-to-end wall-clock (the experiment harness)
  opt out with a file pragma.
- ``REPRO004`` (unordered-iter): synchronization/combiner code must not
  iterate sets or dict views of host/node ids — set order varies across
  processes and dict insertion order varies with message arrival, so any
  order-dependent fold downstream silently diverges across hosts.  Only
  applies under ``gluon/``, ``dgraph/``, ``cluster/``,
  ``core/combiners.py`` and ``w2v/distributed.py``.
- ``REPRO005`` (doall-closure): operators handed to ``do_all`` must not
  mutate closure state except through the sanctioned channels —
  accumulators/worklists (:mod:`repro.galois.accumulators`), or
  single-writer cells indexed by the operator's own parameter.

The interprocedural ``do_all`` effect rules (``REPRO111/112``) live in
:mod:`repro.analysis.dataflow` and run with ``--dataflow``; they report
through the same reporters and suppression machinery as the local rules
above.

Suppression: append ``# repro: noqa[REPRO003]`` (or bare
``# repro: noqa`` for all rules) to the offending line, or opt a whole
file out of specific rules with ``# repro: allow-file[REPRO003]`` on any
line.  Suppressions should carry a justification comment.  Only real
comment tokens count — pragma-shaped text inside strings or docstrings
(like the ones in this paragraph) is inert.  ``--report-unused-noqa``
flags pragmas that no longer suppress anything (``REPRO900``).

Run as ``python -m repro.analysis [paths...]``; exits 0 when clean, 1
with findings, 2 on usage or syntax errors.
"""

from __future__ import annotations

import argparse
import ast
from dataclasses import dataclass, replace
import io
import json
from pathlib import Path, PurePath
import re
import sys
import tokenize
from typing import Iterable, Sequence

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "LOCAL_RULE_IDS",
    "lint_source",
    "render_text",
    "render_json",
    "main",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int  # 1-based in finalized findings (text and JSON agree)
    message: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": RULES[self.rule].name if self.rule in RULES else self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        name = RULES[self.rule].name if self.rule in RULES else "?"
        return f"{self.path}:{self.line}:{self.col}: {self.rule}[{name}] {self.message}"


@dataclass(frozen=True)
class Rule:
    """Identity and one-line documentation of a lint rule."""

    id: str
    name: str
    summary: str


RULES: dict[str, Rule] = {
    "REPRO001": Rule(
        "REPRO001",
        "unseeded-rng",
        "stdlib random / NumPy global RNG / unseeded default_rng outside repro.util.rng",
    ),
    "REPRO002": Rule(
        "REPRO002",
        "seed-sequence",
        "direct np.random.SeedSequence use outside repro.util.rng "
        "(use derive_seed/keyed_rng/SeedSequenceTree)",
    ),
    "REPRO003": Rule(
        "REPRO003",
        "wall-clock",
        "wall-clock read in compute code (use time.thread_time or an injected StatTimer clock)",
    ),
    "REPRO004": Rule(
        "REPRO004",
        "unordered-iter",
        "iteration over a set or dict view in sync/combiner code (order is not "
        "deterministic across hosts; wrap in sorted())",
    ),
    "REPRO005": Rule(
        "REPRO005",
        "doall-closure",
        "do_all operator mutates closure state outside accumulators/worklists "
        "or param-indexed single-writer cells",
    ),
    # Interprocedural dataflow rules (repro.analysis.dataflow, --dataflow).
    "REPRO111": Rule(
        "REPRO111",
        "doall-write-overlap",
        "do_all operator may write shared storage at a non-item-derived index "
        "(cross-chunk write-write overlap; static DoAllRaceSanitizer)",
    ),
    "REPRO112": Rule(
        "REPRO112",
        "doall-read-overlap",
        "do_all operator reads shared storage the same loop writes, outside "
        "its own item (cross-chunk read-write overlap)",
    ),
    "REPRO900": Rule(
        "REPRO900",
        "unused-suppression",
        "# repro: noqa[...] / allow-file[...] pragma that no longer "
        "suppresses anything (--report-unused-noqa)",
    ),
}

#: Rules produced by the file-local lint passes in this module (the
#: dataflow rules live in repro.analysis.dataflow; REPRO900 is meta).
LOCAL_RULE_IDS = frozenset({f"REPRO00{i}" for i in range(1, 6)})

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")
_ALLOW_FILE_RE = re.compile(r"#\s*repro:\s*allow-file\[([A-Za-z0-9_,\s]+)\]")

#: NumPy legacy global-RNG entry points (module-level ``np.random.<fn>``).
_NP_GLOBAL_FNS = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "beta",
        "binomial",
        "poisson",
        "exponential",
        "gamma",
        "rayleigh",
        "get_state",
        "set_state",
    }
)

#: Wall-clock readers in the ``time`` module.  ``thread_time`` and
#: ``process_time`` are deliberately absent: they are the sanctioned
#: contention-independent clocks for operator timing.
_WALLCLOCK_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
    }
)

#: Constructors whose instances an operator may mutate from a closure:
#: thread-safe reducibles and worklists with single-writer discipline.
#: The dataflow summaries never descend into a method called on one.
_SANCTIONED_CTORS = frozenset(
    {
        "GAccumulator",
        "ChunkedWorklist",
        "Worklist",
        "DoAllRaceSanitizer",
    }
)

#: Mutating container method names an operator may not call on closure names.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "clear",
        "pop",
        "popitem",
        "setdefault",
        "update",
        "add",
        "discard",
        "push",
    }
)


# ----------------------------------------------------------------------
# Path scoping
# ----------------------------------------------------------------------
def _posix(path: str | PurePath) -> str:
    return "/" + PurePath(path).as_posix().lstrip("/")


def _is_rng_module(path: str) -> bool:
    return _posix(path).endswith("/util/rng.py")


def _in_sync_scope(path: str) -> bool:
    p = _posix(path)
    if any(seg in p for seg in ("/gluon/", "/dgraph/", "/cluster/")):
        return True
    return p.endswith("/core/combiners.py") or p.endswith("/w2v/distributed.py")


# ----------------------------------------------------------------------
# Import alias resolution
# ----------------------------------------------------------------------
class _Imports(ast.NodeVisitor):
    """Collects local names bound to the modules the rules care about."""

    def __init__(self) -> None:
        self.numpy: set[str] = set()  # names bound to the numpy module
        self.np_random: set[str] = set()  # names bound to numpy.random
        self.time: set[str] = set()  # names bound to the time module
        self.from_time: dict[str, str] = {}  # local name -> time.<fn>
        self.seed_sequence: set[str] = set()  # names bound to SeedSequence

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                if alias.asname and alias.name == "numpy.random":
                    self.np_random.add(local)
                else:
                    self.numpy.add(local)
            elif alias.name == "time":
                self.time.add(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.np_random.add(alias.asname or alias.name)
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name == "SeedSequence":
                    self.seed_sequence.add(alias.asname or alias.name)
        elif node.module == "time":
            for alias in node.names:
                self.from_time[alias.asname or alias.name] = f"time.{alias.name}"


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _np_random_member(expr: ast.expr, imports: _Imports) -> str | None:
    """The member name if ``expr`` is ``<numpy>.random.<member>`` (or an
    alias of ``numpy.random`` dotted with ``<member>``)."""
    dotted = _dotted(expr)
    if dotted is None:
        return None
    parts = dotted.split(".")
    if len(parts) == 3 and parts[0] in imports.numpy and parts[1] == "random":
        return parts[2]
    if len(parts) == 2 and parts[0] in imports.np_random:
        return parts[1]
    return None


# ----------------------------------------------------------------------
# Rule checkers
# ----------------------------------------------------------------------
def _check_rng(tree: ast.AST, imports: _Imports, path: str) -> list[Finding]:
    """REPRO001 + REPRO002."""
    if _is_rng_module(path):
        return []
    findings: list[Finding] = []

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    findings.append(
                        Finding(
                            "REPRO001",
                            path,
                            node.lineno,
                            node.col_offset,
                            "stdlib random is process-global and unseeded here; "
                            "draw from repro.util.rng instead",
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                findings.append(
                    Finding(
                        "REPRO001",
                        path,
                        node.lineno,
                        node.col_offset,
                        "stdlib random is process-global and unseeded here; "
                        "draw from repro.util.rng instead",
                    )
                )
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name == "SeedSequence":
                        findings.append(
                            Finding(
                                "REPRO002",
                                path,
                                node.lineno,
                                node.col_offset,
                                "import of numpy.random.SeedSequence outside "
                                "repro.util.rng; use derive_seed/keyed_rng",
                            )
                        )
        elif isinstance(node, ast.Attribute):
            member = _np_random_member(node, imports)
            if member == "SeedSequence":
                findings.append(
                    Finding(
                        "REPRO002",
                        path,
                        node.lineno,
                        node.col_offset,
                        "direct np.random.SeedSequence use outside repro.util.rng; "
                        "use derive_seed(*key) or keyed_rng(*key)",
                    )
                )
            elif member in _NP_GLOBAL_FNS:
                findings.append(
                    Finding(
                        "REPRO001",
                        path,
                        node.lineno,
                        node.col_offset,
                        f"np.random.{member} uses NumPy's global RNG; pass an "
                        "explicit seeded Generator (repro.util.rng)",
                    )
                )
        elif isinstance(node, ast.Call):
            member = _np_random_member(node.func, imports)
            if member == "default_rng" and not node.args and not node.keywords:
                findings.append(
                    Finding(
                        "REPRO001",
                        path,
                        node.lineno,
                        node.col_offset,
                        "np.random.default_rng() without a seed is entropy-seeded; "
                        "derive the seed from the run's seed tree",
                    )
                )
    return findings


def _check_wallclock(tree: ast.AST, imports: _Imports, path: str) -> list[Finding]:
    """REPRO003."""
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) == 2 and parts[0] in imports.time and parts[1] in _WALLCLOCK_FNS:
                findings.append(
                    Finding(
                        "REPRO003",
                        path,
                        node.lineno,
                        node.col_offset,
                        f"time.{parts[1]} reads the wall clock; operator/compute "
                        "timing must use time.thread_time or an injected "
                        "StatTimer clock",
                    )
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_FNS:
                    findings.append(
                        Finding(
                            "REPRO003",
                            path,
                            node.lineno,
                            node.col_offset,
                            f"from time import {alias.name} pulls a wall clock into "
                            "compute code; use time.thread_time or an injected "
                            "StatTimer clock",
                        )
                    )
    return findings


def _check_unordered_iter(tree: ast.AST, path: str) -> list[Finding]:
    """REPRO004 (only in sync/combiner scope)."""
    if not _in_sync_scope(path):
        return []
    findings: list[Finding] = []

    def iter_sites(node: ast.AST) -> Iterable[ast.expr]:
        if isinstance(node, ast.For):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter

    for node in ast.walk(tree):
        for it in iter_sites(node):
            reason: str | None = None
            if isinstance(it, (ast.Set, ast.SetComp)):
                reason = "a set expression"
            elif isinstance(it, ast.Call):
                if isinstance(it.func, ast.Name) and it.func.id in ("set", "frozenset"):
                    reason = f"{it.func.id}(...)"
                elif isinstance(it.func, ast.Attribute) and it.func.attr in (
                    "keys",
                    "values",
                    "items",
                ):
                    reason = f".{it.func.attr}() of a dict"
            if reason is not None:
                findings.append(
                    Finding(
                        "REPRO004",
                        path,
                        it.lineno,
                        it.col_offset,
                        f"iterating {reason}: set order is nondeterministic and dict "
                        "insertion order varies with message arrival across hosts; "
                        "iterate sorted(...) instead",
                    )
                )
    return findings


class _FuncIndex(ast.NodeVisitor):
    """Maps function names to their defs, and collects names constructed
    from sanctioned (accumulator/worklist) constructors."""

    def __init__(self) -> None:
        self.defs: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] = {}
        self.sanctioned_names: set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.defs.setdefault(node.name, []).append(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        ctor: str | None = None
        if isinstance(node.value, ast.Call):
            if isinstance(node.value.func, ast.Name):
                ctor = node.value.func.id
            elif isinstance(node.value.func, ast.Attribute):
                ctor = node.value.func.attr
        if ctor in _SANCTIONED_CTORS:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.sanctioned_names.add(target.id)
        self.generic_visit(node)


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Names bound inside ``func`` (params + assignment/loop/with targets)."""
    args = func.args
    names = {
        a.arg
        for a in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
    }
    if isinstance(func, ast.Lambda):
        return names
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            names.add(node.name)
    return names


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    args = func.args
    return {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}


def _check_operator_body(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    index: _FuncIndex,
    path: str,
    call_line: int,
) -> list[Finding]:
    findings: list[Finding] = []
    local = _local_names(func)
    params = _param_names(func)

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                "REPRO005",
                path,
                node.lineno,
                node.col_offset,
                f"do_all operator (used at line {call_line}) {what}; route shared "
                "state through accumulators/worklists or param-indexed "
                "single-writer cells",
            )
        )

    def closure_name(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name) and expr.id not in local:
            return expr.id
        return None

    def index_ok(slice_expr: ast.expr) -> bool:
        """A store index is single-writer when it derives from the
        operator's own scope and involves at least one variable (a
        constant index would make every invocation write one cell)."""
        names = [n.id for n in ast.walk(slice_expr) if isinstance(n, ast.Name)]
        if not names:
            return False
        return all(n in local or n in params for n in names)

    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                flag(node, f"declares {type(node).__name__.lower()} state and rebinds it")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        base = closure_name(target.value)
                        if base is not None and base not in index.sanctioned_names:
                            if not index_ok(target.slice):
                                flag(
                                    node,
                                    f"writes closure container {base!r} at an index "
                                    "not derived from the operator's parameters",
                                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATOR_METHODS:
                    base = closure_name(node.func.value)
                    if base is not None and base not in index.sanctioned_names:
                        flag(
                            node,
                            f"calls mutating method .{node.func.attr}() on closure "
                            f"name {base!r}",
                        )
    return findings


def _check_doall_closures(tree: ast.AST, path: str) -> list[Finding]:
    """REPRO005."""
    index = _FuncIndex()
    index.visit(tree)
    findings: list[Finding] = []
    seen: set[int] = set()

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "do_all":
            continue
        operator: ast.expr | None = None
        if len(node.args) >= 2:
            operator = node.args[1]
        for kw in node.keywords:
            if kw.arg == "operator":
                operator = kw.value
        if operator is None:
            continue
        if isinstance(operator, ast.Lambda):
            findings.extend(_check_operator_body(operator, index, path, node.lineno))
        elif isinstance(operator, ast.Name):
            for func in index.defs.get(operator.id, []):
                if id(func) in seen:
                    continue
                seen.add(id(func))
                findings.extend(_check_operator_body(func, index, path, node.lineno))
    return findings


# ----------------------------------------------------------------------
# Suppression handling & entry points
# ----------------------------------------------------------------------
def _rule_ids(raw: str) -> set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


@dataclass(frozen=True)
class _Pragma:
    kind: str  # "noqa" or "allow-file"
    line: int
    col: int  # 0-based column of the comment token
    rules: frozenset[str] | None  # None = all rules (bare noqa)


def _collect_pragmas(source: str) -> list[_Pragma]:
    """Suppression pragmas from *comment tokens* only.

    Tokenizing (rather than regex-scanning raw lines) keeps pragma-shaped
    text inside docstrings and string literals from acting as a live
    suppression — this module's own docstring documents the pragma syntax
    and must not thereby suppress anything.
    """
    pragmas: list[_Pragma] = []

    def scan(text: str, line: int, col: int) -> None:
        allow = _ALLOW_FILE_RE.search(text)
        if allow:
            pragmas.append(
                _Pragma("allow-file", line, col, frozenset(_rule_ids(allow.group(1))))
            )
        noqa = _NOQA_RE.search(text)
        if noqa:
            rules = frozenset(_rule_ids(noqa.group(1))) if noqa.group(1) else None
            pragmas.append(_Pragma("noqa", line, col, rules))

    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                scan(tok.string, tok.start[0], tok.start[1])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unterminated constructs etc.: fall back to a raw line scan so a
        # broken file never silently loses its suppressions.
        pragmas.clear()
        for lineno, text in enumerate(source.splitlines(), start=1):
            scan(text, lineno, 0)
    return pragmas


def _apply_suppressions(findings: list[Finding], source: str) -> list[Finding]:
    file_allowed: set[str] = set()
    noqa_by_line: dict[int, set[str] | None] = {}  # None = all rules
    for pragma in _collect_pragmas(source):
        if pragma.kind == "allow-file":
            file_allowed |= set(pragma.rules or ())
        else:
            existing = noqa_by_line.get(pragma.line, set())
            if pragma.rules is None or existing is None:
                noqa_by_line[pragma.line] = None  # bare noqa wins: all rules
            else:
                noqa_by_line[pragma.line] = existing | set(pragma.rules)

    kept: list[Finding] = []
    for f in findings:
        if f.rule in file_allowed:
            continue
        rules = noqa_by_line.get(f.line, "missing")
        if rules is None or (isinstance(rules, set) and f.rule in rules):
            continue
        kept.append(f)
    return kept


def _finalize_findings(
    findings: list[Finding], source: str, select: Iterable[str] | None = None
) -> list[Finding]:
    """Shared post-processing for every pass: shift raw ``col_offset``
    columns to 1-based, filter by ``select``, apply suppressions, sort."""
    findings = [replace(f, col=f.col + 1) for f in findings]
    if select is not None:
        wanted = set(select)
        findings = [f for f in findings if f.rule in wanted]
    findings = _apply_suppressions(findings, source)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _raw_lint_findings(source: str, path: str = "<string>") -> list[Finding]:
    """The file-local rule findings, unsuppressed, with raw 0-based columns."""
    tree = ast.parse(source, filename=path)
    imports = _Imports()
    imports.visit(tree)
    findings: list[Finding] = []
    findings += _check_rng(tree, imports, path)
    findings += _check_wallclock(tree, imports, path)
    findings += _check_unordered_iter(tree, path)
    findings += _check_doall_closures(tree, path)
    return findings


def lint_source(
    source: str, path: str = "<string>", select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint one module's source; returns suppression-filtered findings."""
    return _finalize_findings(_raw_lint_findings(source, path), source, select)


def _collect_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
        else:
            raise FileNotFoundError(f"not a python file or directory: {p}")
    return files


def _unused_suppressions(
    sources: dict[str, str],
    raw_by_file: dict[str, list[Finding]],
    checked_rules: frozenset[str] | set[str],
) -> list[Finding]:
    """REPRO900 findings for pragmas that no longer suppress anything.

    ``raw_by_file`` must hold *unsuppressed* findings from every pass that
    actually ran; ``checked_rules`` names those passes' rules.  A pragma
    mentioning only rules outside ``checked_rules`` is left alone — this
    run cannot tell whether it is stale.  REPRO900 findings are exempt
    from suppression on purpose: a stale bare ``# repro: noqa`` would
    otherwise suppress its own staleness report.
    """
    findings: list[Finding] = []
    for path, source in sources.items():
        raw = raw_by_file.get(path, [])
        rules_by_line: dict[int, set[str]] = {}
        rules_in_file: set[str] = set()
        for f in raw:
            rules_by_line.setdefault(f.line, set()).add(f.rule)
            rules_in_file.add(f.rule)
        for pragma in _collect_pragmas(source):
            if pragma.kind == "noqa":
                hit_rules = rules_by_line.get(pragma.line, set())
                if pragma.rules is None:
                    if hit_rules:
                        continue
                    detail = "bare '# repro: noqa' suppresses nothing on this line"
                else:
                    relevant = pragma.rules & checked_rules
                    if not relevant:
                        continue
                    stale = sorted(relevant - hit_rules)
                    if not stale:
                        continue
                    detail = (
                        f"noqa[{', '.join(stale)}] suppresses nothing on this line"
                    )
            else:  # allow-file
                relevant = (pragma.rules or frozenset()) & checked_rules
                if not relevant:
                    continue
                stale = sorted(relevant - rules_in_file)
                if not stale:
                    continue
                detail = (
                    f"allow-file[{', '.join(stale)}] suppresses nothing in this file"
                )
            findings.append(
                Finding(
                    "REPRO900",
                    path,
                    pragma.line,
                    pragma.col + 1,
                    f"{detail}; remove the stale pragma",
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro.analysis: clean"
    lines = [f.render() for f in findings]
    lines.append(f"repro.analysis: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return json.dumps(
        {
            "findings": [f.as_dict() for f in findings],
            "counts": dict(sorted(counts.items())),
            "total": len(findings),
        },
        indent=2,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism & concurrency linter for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to enable (default: all)",
    )
    parser.add_argument(
        "--dataflow",
        action="store_true",
        help="also run the interprocedural do_all passes (REPRO111/112)",
    )
    parser.add_argument(
        "--report-unused-noqa",
        action="store_true",
        help="flag noqa/allow-file pragmas that no longer suppress anything "
        "(REPRO900, judged against the passes that ran)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.name:20s} {rule.summary}")
        return 0

    select = _rule_ids(args.select) if args.select else None
    if select:
        unknown = select - set(RULES)
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
    try:
        files = _collect_files(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sources = {str(f): f.read_text(encoding="utf-8") for f in files}
    raw_by_file: dict[str, list[Finding]] = {}
    try:
        for path, source in sources.items():
            raw_by_file[path] = _raw_lint_findings(source, path)
        if args.dataflow:
            from . import dataflow as _dataflow

            for f in _dataflow.analyze_files(files):
                raw_by_file.setdefault(f.path, []).append(f)
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path, source in sources.items():
        findings.extend(_finalize_findings(raw_by_file.get(path, []), source, select))
    if args.report_unused_noqa:
        checked = set(LOCAL_RULE_IDS)
        if args.dataflow:
            from .dataflow import DATAFLOW_RULE_IDS

            checked |= DATAFLOW_RULE_IDS
        findings.extend(_unused_suppressions(sources, raw_by_file, checked))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    print(render_json(findings) if args.format == "json" else render_text(findings))
    return 1 if findings else 0
