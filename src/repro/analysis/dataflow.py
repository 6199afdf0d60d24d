"""Interprocedural ``do_all`` effect rules on top of the lint driver.

The static counterpart of ``DoAllRaceSanitizer``, driven by the call
graph (:mod:`repro.analysis.callgraph`) and per-function effect summaries
(:mod:`repro.analysis.summaries`):

- ``REPRO111`` *doall-write-overlap*: an operator (or anything it calls,
  summaries compose transitively) writes shared storage at an index not
  derived from its item parameter: two chunks may write the same cell.
- ``REPRO112`` *doall-read-overlap*: an operator reads shared storage
  that the same loop also writes, and the read is not confined to the
  operator's own item: a chunk may observe another chunk's
  partially-applied writes.

They report races no run shows: a helper's scratch buffer shared by
every chunk yields the same bits on a serial executor and on a pool that
happens not to interleave, so neither the runtime sanitizer nor an
output pin sees it.

Findings are raw here (0-based columns, unsuppressed); the lint driver
finalizes them with the shared suppression/column machinery so
``# repro: noqa[...]`` and ``allow-file`` work unchanged.
"""

from __future__ import annotations

from typing import Sequence

from .callgraph import Program
from .lint import Finding, _posix
from .summaries import SummaryBuilder

__all__ = ["DATAFLOW_RULE_IDS", "analyze_files"]

DATAFLOW_RULE_IDS = frozenset({"REPRO111", "REPRO112"})


def _is_analysis_module(path: str) -> bool:
    return "/analysis/" in _posix(path)


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


def analyze_files(files: Sequence) -> list:
    """Raw dataflow findings (0-based columns, unsuppressed) for ``files``."""
    program = Program.build(files)
    return _doall_pass(program, SummaryBuilder(program))
