"""Interprocedural dataflow rules on top of the lint driver.

Three rule families, all driven by the call graph
(:mod:`repro.analysis.callgraph`) and per-function summaries
(:mod:`repro.analysis.summaries`):

**Seed flow** — the reproduction contract derives every RNG from the run
seed through ``derive_seed``/``keyed_rng`` key tuples.

- ``REPRO101`` *seed-collision*: two distinct call sites whose key
  tuples instantiate (through the call graph, including parameter
  defaults) to the same fully-constant key.  The two "independent"
  streams are bit-identical.
- ``REPRO102`` *seed-underkeyed*: a seed key built in a function that
  has a per-host/per-round style parameter (``host``, ``round``,
  ``rank``, ``worker``, ``shard``, ``replica``, ``epoch``, ``chunk``,
  ``part``) which the key never references — every value of that
  parameter sees the same stream.

**do_all effects** — the static counterpart of ``DoAllRaceSanitizer``.

- ``REPRO111`` *doall-write-overlap*: an operator (or anything it calls,
  summaries compose transitively) writes shared storage at an index not
  derived from its item parameter: two chunks may write the same cell.
- ``REPRO112`` *doall-read-overlap*: an operator reads shared storage
  that the same loop also writes, and the read is not confined to the
  operator's own item: a chunk may observe another chunk's
  partially-applied writes.

**Gluon sync protocol** — the static counterpart of
``GluonSyncChecker``, scoped to *clients* of the protocol.  The protocol
engines themselves are exempt: ``repro/gluon/sync.py`` (the one fold
kernel) and ``repro/dgraph/async_engine.py`` (the training engine, the
kernel's caller: it owns no fold arithmetic, but its delta capture and
its read-my-writes landing legally read and write mirrors outside
``set_many`` flagging — its
staleness is bounded dynamically by
``GluonSyncChecker.note_async_step``), plus the analysis package.

- ``REPRO121`` *gluon-unflagged-write*: a write to a ``FieldSync``
  mirror (``field.arrays[...]``) in barrier-reaching code with no
  ``set_many``/``BitVector.set`` flagging in the function or its direct
  callers — the row is in no touched set the fold reduces, so the delta
  is dropped.
- ``REPRO122`` *gluon-stale-read*: a mirror read outside the
  ``master_block_slice`` confinement and outside a flagged context — it
  may observe pre-sync staleness beyond PullModel's confined-staleness
  contract.

Findings are raw here (0-based columns, unsuppressed); the lint driver
finalizes them with the shared suppression/column machinery so
``# repro: noqa[...]`` and ``allow-file`` work unchanged.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
import re
from typing import Optional, Sequence

from .callgraph import Program
from .lint import Finding, _is_rng_module
from .summaries import SeedSite, SummaryBuilder

__all__ = ["DATAFLOW_RULE_IDS", "analyze_files"]

DATAFLOW_RULE_IDS = frozenset(
    {"REPRO101", "REPRO102", "REPRO111", "REPRO112", "REPRO121", "REPRO122"}
)

_HOSTISH_RE = re.compile(
    r"(host|round|rank|worker|shard|replica|epoch|chunk|part)", re.IGNORECASE
)
# Extent/count parameters (num_hosts, epochs, rounds_per_epoch) name *how
# many* of something there are, not *which one* this is — a single stream
# drawn in canonical order over the extent is the correct pattern there.
_COUNTISH_RE = re.compile(r"(^(num|n|max|min|total)_|_per_|s$)", re.IGNORECASE)


def _identity_params(params) -> list:
    return [p for p in params if _HOSTISH_RE.search(p) and not _COUNTISH_RE.search(p)]

_MAX_KEY_INSTANCES = 64
_INSTANTIATE_DEPTH = 4


def _posix(path: str) -> str:
    return "/" + PurePath(path).as_posix().lstrip("/")


def _is_analysis_module(path: str) -> bool:
    return "/analysis/" in _posix(path)


def _is_sync_engine(path: str) -> bool:
    # Both implement the protocol REPRO121/122 police its *clients* for:
    # the fold kernel, and the training engine, whose delta capture and
    # landing read/write mirrors legally by construction (bounded
    # dynamically via GluonSyncChecker.note_async_step, not statically).
    p = _posix(path)
    return p.endswith("/gluon/sync.py") or p.endswith("/dgraph/async_engine.py")


# ----------------------------------------------------------------------
# Seed flow (REPRO101 / REPRO102)
# ----------------------------------------------------------------------
def _fmt_key(atoms) -> str:
    return "(" + ", ".join(repr(a[1]) for a in atoms) + ")"


def _param_default(finfo, name: str) -> Optional[ast.expr]:
    args = finfo.node.args
    positional = [*args.posonlyargs, *args.args]
    defaults = list(args.defaults)
    for arg, default in zip(reversed(positional), reversed(defaults)):
        if arg.arg == name:
            return default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == name and default is not None:
            return default
    return None


def _instantiate_keys(site: SeedSite, sb: SummaryBuilder):
    """All fully-substituted key tuples reachable by walking callers up."""
    program = sb.program
    results: list = []

    def rec(atoms, fn_qname, depth, seen):
        if len(results) >= _MAX_KEY_INSTANCES:
            return
        open_params = [a[1] for a in atoms if a[0] == "param"]
        if not open_params:
            results.append(tuple(atoms))
            return
        if depth <= 0:
            return
        finfo = program.functions.get(fn_qname)
        substituted_any = False
        for caller_fi, call in sb.caller_sites(fn_qname):
            if caller_fi.qname in seen:
                continue
            sub = []
            ok = True
            for a in atoms:
                if a[0] != "param":
                    sub.append(a)
                    continue
                actual = call.bound_exprs.get(a[1])
                if actual is None and finfo is not None:
                    actual = _param_default(finfo, a[1])
                    if actual is not None:
                        sub.append(sb.atom_of(actual, finfo))
                        continue
                if actual is None:
                    ok = False
                    break
                sub.append(sb.atom_of(actual, caller_fi))
            if ok:
                substituted_any = True
                rec(sub, caller_fi.qname, depth - 1, seen | {caller_fi.qname})
        if not substituted_any and finfo is not None:
            # No caller in the analyzed set: defaults are still a real
            # instantiation (the function is an entry point).
            sub = []
            for a in atoms:
                if a[0] != "param":
                    sub.append(a)
                    continue
                default = _param_default(finfo, a[1])
                if default is None:
                    return
                sub.append(sb.atom_of(default, finfo))
            rec(sub, fn_qname, 0, seen)

    rec(list(site.atoms), site.fn, _INSTANTIATE_DEPTH, {site.fn})
    return results


def _seed_pass(program: Program, sb: SummaryBuilder) -> list:
    findings: list = []
    sites: list = []
    for finfo in list(program.functions.values()):
        path = finfo.module.path
        if _is_rng_module(path) or _is_analysis_module(path):
            continue
        sites.extend(sb.summary(finfo).seeds)

    # REPRO102: the key ignores an available per-host/per-round parameter.
    for site in sites:
        finfo = program.functions.get(site.fn)
        if finfo is None:
            continue
        hostish = _identity_params(finfo.params)
        if not hostish or site.ref_tags & set(hostish):
            continue
        findings.append(
            Finding(
                "REPRO102",
                site.path,
                site.line,
                site.col,
                f"seed key ignores the per-{'/'.join(hostish)} parameter(s) of "
                f"{finfo.name}(); every value sees the same RNG stream — add the "
                "distinguishing component to the key",
            )
        )

    # REPRO101: two distinct sites instantiate to the same constant key.
    by_key: dict = {}
    for site in sites:
        for atoms in _instantiate_keys(site, sb):
            if all(a[0] == "const" for a in atoms):
                by_key.setdefault(atoms, {})[(site.path, site.line)] = site
    for atoms, site_map in sorted(by_key.items(), key=lambda kv: repr(kv[0])):
        if len(site_map) < 2:
            continue
        ordered = [site_map[k] for k in sorted(site_map)]
        first = ordered[0]
        for site in ordered[1:]:
            findings.append(
                Finding(
                    "REPRO101",
                    site.path,
                    site.line,
                    site.col,
                    f"seed key {_fmt_key(atoms)} duplicates the key built at "
                    f"{first.path}:{first.line}; the two streams are bit-identical "
                    "(correlated randomness)",
                )
            )
    return findings


# ----------------------------------------------------------------------
# do_all effect overlaps (REPRO111 / REPRO112)
# ----------------------------------------------------------------------
def _item_confined(effect, item: str) -> bool:
    if item in effect.select:
        return True
    if effect.index is None:
        return False
    return item in effect.index and "other" not in effect.index


def _doall_pass(program: Program, sb: SummaryBuilder) -> list:
    findings: list = []
    seen_ops: set = set()
    for finfo in list(program.functions.values()):
        if _is_analysis_module(finfo.module.path):
            continue
        for op_fi, call in sb.summary(finfo).doall_ops:
            if op_fi.qname in seen_ops:
                continue
            seen_ops.add(op_fi.qname)
            params = op_fi.params
            if not params:
                continue
            item = params[0]
            effects = sb.closure_effects(op_fi)
            shared = [
                e
                for e in effects
                if e.root[0] in ("closure", "self", "global", "param")
                and not (e.root[0] == "param" and e.root[1] == item)
            ]
            writes = [e for e in shared if e.mode == "w"]
            reads = [e for e in shared if e.mode == "r"]
            write_keys = set()
            flagged = set()
            for w in writes:
                write_keys.add((w.root, w.attrs))
                if _item_confined(w, item):
                    continue
                loc = ("REPRO111", w.path, w.line, w.col)
                if loc in flagged:
                    continue
                flagged.add(loc)
                findings.append(
                    Finding(
                        "REPRO111",
                        w.path,
                        w.line,
                        w.col,
                        f"do_all operator {op_fi.name!r} (used at "
                        f"{finfo.module.path}:{call.lineno}) may write "
                        f"{w.describe()} at an index not derived from its item "
                        f"parameter {item!r}; two chunks can write the same cell "
                        "(static counterpart of DoAllRaceSanitizer)",
                    )
                )
                flagged.add((w.root, w.attrs))
            for r in reads:
                key = (r.root, r.attrs)
                if key not in write_keys or key in flagged:
                    continue
                if _item_confined(r, item):
                    continue
                loc = ("REPRO112", r.path, r.line, r.col)
                if loc in flagged:
                    continue
                flagged.add(loc)
                findings.append(
                    Finding(
                        "REPRO112",
                        r.path,
                        r.line,
                        r.col,
                        f"do_all operator {op_fi.name!r} (used at "
                        f"{finfo.module.path}:{call.lineno}) reads {r.describe()} "
                        "which the same loop also writes, outside its own item "
                        f"{item!r}; a chunk may observe another chunk's "
                        "partially-applied writes",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Gluon sync protocol (REPRO121 / REPRO122)
# ----------------------------------------------------------------------
def _gluon_pass(program: Program, sb: SummaryBuilder) -> list:
    findings: list = []
    callers = sb.callers_map()
    for finfo in list(program.functions.values()):
        path = finfo.module.path
        if _is_analysis_module(path) or _is_sync_engine(path) or _is_rng_module(path):
            continue
        effects = sb.closure_effects(finfo)
        mirror_w = [e for e in effects if e.mode == "w" and e.gluon == "arrays"]
        mirror_r = [e for e in effects if e.mode == "r" and e.gluon == "arrays"]
        if not mirror_w and not mirror_r:
            continue
        has_flags = sb.closure_flags(finfo)
        barrier = sb.closure_barrier(finfo)
        caller_flags = caller_barrier = False
        for caller_q in sorted(callers.get(finfo.qname, ())):
            caller_fi = program.functions.get(caller_q)
            if caller_fi is None:
                continue
            caller_flags = caller_flags or sb.closure_flags(caller_fi)
            caller_barrier = caller_barrier or sb.closure_barrier(caller_fi)
        if not (barrier or caller_barrier):
            continue  # never reaches a round barrier we can see
        flagged_ctx = has_flags or caller_flags
        if not flagged_ctx:
            for e in mirror_w:
                findings.append(
                    Finding(
                        "REPRO121",
                        e.path,
                        e.line,
                        e.col,
                        f"write to mirror {e.describe()} reaches a round barrier "
                        "with no set_many/BitVector.set flagging in scope; the "
                        "row is in no touched set, so the fold drops this delta "
                        "(static counterpart of GluonSyncChecker)",
                    )
                )
        for e in mirror_r:
            tags = e.select | (e.index or frozenset())
            if "master" in tags:
                continue  # confined to the master block: always fresh
            if flagged_ctx:
                continue
            findings.append(
                Finding(
                    "REPRO122",
                    e.path,
                    e.line,
                    e.col,
                    f"read of mirror {e.describe()} outside master_block_slice "
                    "confinement and outside a flagged sync round; it may observe "
                    "pre-sync staleness beyond PullModel's contract",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def analyze_files(files: Sequence) -> list:
    """Raw dataflow findings (0-based columns, unsuppressed) for ``files``."""
    program = Program.build(files)
    sb = SummaryBuilder(program)
    findings = _seed_pass(program, sb)
    findings += _doall_pass(program, sb)
    findings += _gluon_pass(program, sb)
    unique: dict = {}
    for f in findings:
        unique.setdefault((f.rule, f.path, f.line, f.col, f.message), f)
    return list(unique.values())
