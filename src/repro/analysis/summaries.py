"""Per-function summaries for the interprocedural dataflow analyzer.

For every function indexed by :mod:`repro.analysis.callgraph` this module
extracts a summary of what the function *does* to data that outlives a
single call:

- **Effects** — reads and writes of subscripted/attributed storage,
  abstracted to ``(root, attrs, select, index)`` where ``root`` names the
  owning object (a parameter, ``self``, a closed-over local, a module
  global), ``attrs`` is the attribute path, ``select`` collects the tags
  of intermediate subscripts (``works[host]`` → ``{host}``), and
  ``index`` the tags of the final subscript (``None`` means the whole
  object).  Tags name the parameters an index expression is derived
  from, plus the special tags ``"const"`` (literal-only) and ``"other"``
  (data the analysis cannot attribute).
- **Call sites and ``do_all`` operators** — resolved edges with argument
  bindings, so effects compose transitively (depth-limited).

Functions carrying ``@declare_effects`` are *not* descended into: their
declaration is the summary (see :mod:`repro.analysis.effects`).  Neither
are methods called on a sanctioned receiver (an accumulator, a worklist):
their single-writer discipline is the contract, so a reducer's own cells
are never reported as the operator's writes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
import re
from typing import Optional

from .callgraph import FunctionInfo, Program, dotted_name, type_basename
from .lint import _SANCTIONED_CTORS

__all__ = ["Effect", "CallSite", "Summary", "SummaryBuilder"]

_MAX_DEPTH = 3
_MAX_EFFECTS = 400

_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "remove",
    "discard",
    "update",
    "setdefault",
    "push",
    "clear",
}

_DECLARED_SPEC_RE = re.compile(r"^(?:(self)\.)?(\w+)(?:\[(\w+)\])?$")


@dataclass(frozen=True)
class Effect:
    mode: str  # "r" or "w"
    root: tuple  # (kind, name); kind in {"param","self","closure","global","var"}
    attrs: tuple
    select: frozenset
    index: Optional[frozenset]  # None == the whole object
    path: str
    line: int
    col: int

    def describe(self) -> str:
        kind, name = self.root
        if kind == "self":
            base = "self"
        elif kind == "global":
            base = name.split(":", 1)[-1]
        else:
            base = name
        return base + "".join(f".{a}" for a in self.attrs)


@dataclass
class CallSite:
    callees: list
    bindings_abs: dict  # callee param name -> Effect-shaped abstraction or None
    binding_tags: dict  # callee param name -> frozenset of caller tags
    recv_abs: Optional["Abstraction"]
    recv_is_self: bool
    line: int
    col: int


@dataclass(frozen=True)
class Abstraction:
    root: tuple
    attrs: tuple
    select: frozenset


@dataclass
class Summary:
    effects: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    doall_ops: list = field(default_factory=list)  # (op FunctionInfo, call node)


def _shallow_nodes(fn_node):
    """Every AST node in a function body (a lambda's is one expression),
    excluding nested defs/lambdas."""
    body = fn_node.body
    stack = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class SummaryBuilder:
    """Builds and memoizes per-function and transitive summaries."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._summaries: dict = {}
        self._name_tags: dict = {}
        self._locals: dict = {}
        self._derivs: dict = {}
        self._closure_cache: dict = {}
        self._lambda_counter = 0

    # ------------------------------------------------------------------
    # Tag and abstraction machinery
    # ------------------------------------------------------------------
    def name_tags(self, finfo: FunctionInfo) -> dict:
        cached = self._name_tags.get(finfo.qname)
        if cached is not None:
            return cached
        self._name_tags[finfo.qname] = tags = {}
        for p in finfo.params:
            tags[p] = frozenset({p})
        for _ in range(2):
            for node in _shallow_nodes(finfo.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        tags[target.id] = self._value_tags(node.value, finfo)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    if node.value is not None:
                        tags[node.target.id] = self._value_tags(node.value, finfo)
                elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                    prior = tags.get(node.target.id, frozenset())
                    tags[node.target.id] = prior | self.tags_of_expr(node.value, finfo)
        return tags

    def _value_tags(self, value, finfo: FunctionInfo) -> frozenset:
        # x = slice(a, b) is an anchored chunk window: like a slice
        # expression, its identity is its anchor (see tags_of_expr).
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "slice"
            and value.args
        ):
            return self.tags_of_expr(value.args[0], finfo)
        return self.tags_of_expr(value, finfo)

    def local_names(self, finfo: FunctionInfo) -> set:
        """Every name bound inside ``finfo`` (params + any Store target)."""
        cached = self._locals.get(finfo.qname)
        if cached is not None:
            return cached
        names = set(finfo.params) | set(finfo.children)
        node = finfo.node
        if not isinstance(node, ast.Lambda):
            for sub in _shallow_nodes(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
        self._locals[finfo.qname] = names
        return names

    def tags_of_expr(self, expr, finfo: FunctionInfo) -> frozenset:
        # A slice is identified by its anchor: ``out[start:end]`` with an
        # item-derived ``start`` is a chunk-private window even when the
        # stop bound mixes in loop extents (mirrors how the runtime
        # sanitizer treats per-chunk slice ranges as disjoint).
        if isinstance(expr, ast.Slice):
            anchor = expr.lower if expr.lower is not None else expr.upper
            if anchor is None:
                return frozenset({"other"})
            return self.tags_of_expr(anchor, finfo)
        tags = set()
        saw_symbol = False
        # name_tags() seeds its cache entry before filling it, so this
        # re-entrant call terminates (returning the partial map mid-build).
        local_tags = self.name_tags(finfo)
        params = set(finfo.params)
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                saw_symbol = True
                if node.id in params:
                    tags.add(node.id)
                elif node.id in local_tags:
                    tags |= local_tags[node.id]
                elif node.id in finfo.module.constants:
                    tags.add("const")
                else:
                    tags.add("other")
            elif isinstance(node, ast.Attribute):
                saw_symbol = True
                if not isinstance(node.value, ast.Name) or node.value.id not in params:
                    tags.add("other")
        if not saw_symbol:
            tags.add("const")
        return frozenset(tags)

    def _local_derivations(self, finfo: FunctionInfo) -> dict:
        """name -> Abstraction for locals assigned from trackable storage."""
        cached = self._derivs.get(finfo.qname)
        if cached is not None:
            return cached
        self._derivs[finfo.qname] = derivs = {}
        for _ in range(2):
            for node in _shallow_nodes(finfo.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        ab = self.abstract_expr(node.value, finfo)
                        if ab is not None and ab.root[0] in ("param", "self", "closure", "global"):
                            derivs[target.id] = ab
        return derivs

    def abstract_target(self, expr, finfo: FunctionInfo):
        """(Abstraction, index_tags) for a store target; index is the tags
        of the outermost subscript, or None for whole-object stores."""
        index = None
        node = expr
        if isinstance(node, ast.Subscript):
            index = self.tags_of_expr(node.slice, finfo)
            node = node.value
        ab = self.abstract_expr(node, finfo)
        return ab, index

    def abstract_expr(self, expr, finfo: FunctionInfo):
        """Abstraction of a value/receiver expression (subscripts -> select)."""
        attrs = []
        select = set()
        node = expr
        while True:
            if isinstance(node, ast.Subscript):
                select |= self.tags_of_expr(node.slice, finfo)
                node = node.value
            elif isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            else:
                break
        attrs.reverse()
        root = self._root_of(node, finfo)
        if root is None:
            return None
        base_root, base_attrs, base_select = root
        return Abstraction(
            root=base_root,
            attrs=base_attrs + tuple(attrs),
            select=frozenset(base_select) | frozenset(select),
        )

    def _root_of(self, node, finfo: FunctionInfo):
        """Resolve the base of an access chain -> (root, attrs, select)."""
        if not isinstance(node, ast.Name):
            return None
        name = node.id
        if name in ("self", "cls") and finfo.cls is not None:
            return ("self", "self"), (), frozenset()
        if name in finfo.params:
            return ("param", name), (), frozenset()
        derivs = self._local_derivations(finfo)
        if name in derivs:
            d = derivs[name]
            return d.root, d.attrs, d.select
        # Assigned locally but with no trackable derivation?
        if name in self.local_names(finfo):
            return ("var", name), (), frozenset()
        # Enclosing function scopes (closure capture).
        scope = finfo.parent
        while scope is not None:
            if name in scope.params or name in self.local_names(scope):
                pd = self._local_derivations(scope).get(name)
                if pd is not None:
                    return pd.root, pd.attrs, pd.select
                if name in scope.params:
                    return ("param", name), (), frozenset()
                return ("closure", name), (), frozenset()
            scope = scope.parent
        mod = finfo.module
        if name in mod.functions or name in mod.classes or name in mod.imports:
            return None  # functions/classes/modules are not data roots
        if name in mod.constants:
            return None
        # Unknown: module-level mutable state or a builtin.
        return ("global", f"{mod.name}:{name}"), (), frozenset()

    # ------------------------------------------------------------------
    # Direct summaries
    # ------------------------------------------------------------------
    def summary(self, finfo: FunctionInfo) -> Summary:
        cached = self._summaries.get(finfo.qname)
        if cached is not None:
            return cached
        self._summaries[finfo.qname] = s = Summary()
        path = finfo.module.path
        sanctioned_locals = self._sanctioned_locals(finfo)

        # A load like ``f.arrays[h][rows]`` should produce one effect for the
        # full chain, not one per nested subscript: record only maximal chains.
        inner_values = set()
        for node in _shallow_nodes(finfo.node):
            if isinstance(node, (ast.Subscript, ast.Attribute)):
                inner_values.add(id(node.value))

        for node in _shallow_nodes(finfo.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._record_store(s, target, finfo, path)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._record_store(s, node.target, finfo, path)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                if id(node) in inner_values:
                    continue
                ab, index = self.abstract_target(node, finfo)
                if ab is not None and ab.root[0] != "var":
                    s.effects.append(
                        Effect(
                            "r",
                            ab.root,
                            ab.attrs,
                            ab.select,
                            index,
                            path,
                            node.lineno,
                            node.col_offset,
                        )
                    )
            elif isinstance(node, ast.Call):
                self._record_call(s, node, finfo, path, sanctioned_locals)

        s.effects = s.effects[:_MAX_EFFECTS]
        return s

    def _sanctioned_locals(self, finfo: FunctionInfo) -> set:
        """Names bound to a sanctioned constructor here or in an enclosing
        scope (closed-over accumulators count too)."""
        out = set()
        scope = finfo
        while scope is not None:
            for node in _shallow_nodes(scope.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(value, ast.Call)
                        and (dotted_name(value.func) or "").rsplit(".", 1)[-1] in _SANCTIONED_CTORS
                    ):
                        out.add(target.id)
            scope = scope.parent
        return out

    def _record_store(self, s, target, finfo, path) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(s, elt, finfo, path)
            return
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        ab, index = self.abstract_target(target, finfo)
        if ab is None:
            return
        s.effects.append(
            Effect(
                "w",
                ab.root,
                ab.attrs,
                ab.select,
                index,
                path,
                target.lineno,
                target.col_offset,
            )
        )

    def _record_call(self, s, call: ast.Call, finfo, path, sanctioned_locals) -> None:
        func = call.func
        fname = dotted_name(func) or ""
        last = fname.rsplit(".", 1)[-1]

        # np.copyto(dst, src) ---------------------------------------
        if last == "copyto" and len(call.args) >= 2:
            ab, index = self.abstract_target(call.args[0], finfo)
            if ab is not None:
                s.effects.append(
                    Effect(
                        "w", ab.root, ab.attrs, ab.select, index, path, call.lineno,
                        call.col_offset,
                    )
                )
            ab2, index2 = self.abstract_target(call.args[1], finfo)
            if ab2 is not None and ab2.root[0] != "var":
                s.effects.append(
                    Effect(
                        "r", ab2.root, ab2.attrs, ab2.select, index2, path, call.lineno,
                        call.col_offset,
                    )
                )

        # Mutator methods; sanctioned receivers end the walk here --------
        if isinstance(func, ast.Attribute):
            recv = func.value
            recv_name = recv.id if isinstance(recv, ast.Name) else None
            if (
                recv_name in sanctioned_locals
                or type_basename(self.program.expr_type(recv, finfo)) in _SANCTIONED_CTORS
            ):
                return
            if func.attr in _MUTATOR_METHODS:
                ab = self.abstract_expr(recv, finfo)
                if ab is not None and ab.root[0] != "var":
                    s.effects.append(
                        Effect(
                            "w", ab.root, ab.attrs, ab.select, None, path, call.lineno,
                            call.col_offset,
                        )
                    )

        # do_all operators -------------------------------------------
        if last == "do_all":
            op_expr = None
            if len(call.args) >= 2:
                op_expr = call.args[1]
            else:
                for kw in call.keywords:
                    if kw.arg == "operator":
                        op_expr = kw.value
            op_fi = self._operator_function(op_expr, finfo)
            if op_fi is not None:
                s.doall_ops.append((op_fi, call))

        # Resolved call edges ----------------------------------------
        callees, recv = self.program.resolve_call(finfo, call)
        if callees:
            callee = callees[0]
            skip_self = recv is not None
            bound = self.program.bind_args(callee, call, skip_self=skip_self)
            recv_abs = None
            recv_is_self = False
            if recv is not None:
                if isinstance(recv, ast.Name) and recv.id in ("self", "cls"):
                    recv_is_self = True
                else:
                    recv_abs = self.abstract_expr(recv, finfo)
            s.calls.append(
                CallSite(
                    callees=callees,
                    bindings_abs={k: self.abstract_expr(v, finfo) for k, v in bound.items()},
                    binding_tags={k: self.tags_of_expr(v, finfo) for k, v in bound.items()},
                    recv_abs=recv_abs,
                    recv_is_self=recv_is_self,
                    line=call.lineno,
                    col=call.col_offset,
                )
            )

    def _operator_function(self, op_expr, finfo: FunctionInfo):
        if op_expr is None:
            return None
        if isinstance(op_expr, ast.Name):
            target = self.program.resolve_name(finfo, op_expr.id)
            if isinstance(target, FunctionInfo):
                return target
            return None
        if isinstance(op_expr, ast.Lambda):
            self._lambda_counter += 1
            qname = f"{finfo.qname}.<lambda#{self._lambda_counter}:{op_expr.lineno}>"
            lam = FunctionInfo(
                qname=qname,
                name="<lambda>",
                module=finfo.module,
                node=op_expr,
                cls=finfo.cls,
                parent=finfo,
            )
            self.program.functions[qname] = lam
            return lam
        return None

    # ------------------------------------------------------------------
    # Transitive (closure) summaries
    # ------------------------------------------------------------------
    def closure_effects(self, finfo: FunctionInfo, depth: int = _MAX_DEPTH, _stack=frozenset()):
        key = (finfo.qname, depth)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        if finfo.declared_effects is not None:
            out = self._declared_effect_list(finfo)
            self._closure_cache[key] = out
            return out
        s = self.summary(finfo)
        out = list(s.effects)
        if depth > 0:
            for call in s.calls:
                for callee in call.callees:
                    if callee.qname in _stack or callee.qname == finfo.qname:
                        continue
                    for eff in self.closure_effects(callee, depth - 1, _stack | {finfo.qname}):
                        composed = self._compose(eff, call, finfo)
                        if composed is not None:
                            out.append(composed)
        out = out[:_MAX_EFFECTS]
        self._closure_cache[key] = out
        return out

    def _declared_effect_list(self, finfo: FunctionInfo):
        out = []
        spec = finfo.declared_effects
        node = finfo.node
        path = finfo.module.path
        for mode, specs in (("r", spec["reads"]), ("w", spec["writes"])):
            for text in specs:
                m = _DECLARED_SPEC_RE.match(text)
                if m is None:
                    continue
                is_self, name, bracket = m.groups()
                if is_self:
                    root, attrs = ("self", "self"), (name,)
                else:
                    root, attrs = ("param", name), ()
                if bracket is None:
                    index = None
                elif bracket in finfo.params:
                    index = frozenset({bracket})
                else:
                    index = frozenset({"other"})
                out.append(
                    Effect(
                        mode, root, attrs, frozenset(), index, path,
                        getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
                    )
                )
        return out

    def _compose(self, eff: Effect, call: CallSite, caller: FunctionInfo) -> Optional[Effect]:
        kind, name = eff.root
        if kind == "param":
            ab = call.bindings_abs.get(name)
            if ab is None:
                return None
            return replace(
                eff,
                root=ab.root,
                attrs=ab.attrs + eff.attrs,
                select=ab.select | self._remap_tags(eff.select, call),
                index=self._remap_tags(eff.index, call),
                path=caller.module.path,
                line=call.line,
                col=call.col,
            )
        if kind == "self":
            if call.recv_is_self:
                # self -> self: keep the callee's location so suppressions
                # can sit next to the defect.
                return replace(eff, index=self._remap_tags(eff.index, call),
                               select=self._remap_tags(eff.select, call) or frozenset())
            if call.recv_abs is not None:
                ab = call.recv_abs
                return replace(
                    eff,
                    root=ab.root,
                    attrs=ab.attrs + eff.attrs,
                    select=ab.select | self._remap_tags(eff.select, call),
                    index=self._remap_tags(eff.index, call),
                    path=caller.module.path,
                    line=call.line,
                    col=call.col,
                )
            return None
        if kind == "global":
            return eff
        if kind == "closure":
            # Valid at the caller only if the callee is nested inside it
            # (the closed-over name is still in scope).
            scope = None
            for callee in call.callees:
                scope = callee.parent
                while scope is not None and scope.qname != caller.qname:
                    scope = scope.parent
                if scope is not None:
                    break
            return eff if scope is not None else None
        return None  # var roots are callee-local objects

    def _remap_tags(self, tags, call: CallSite):
        if tags is None:
            return None
        out = set()
        for tag in tags:
            if tag in ("const", "other"):
                out.add(tag)
            elif tag in call.binding_tags:
                out |= call.binding_tags[tag]
            else:
                out.add("other")
        return frozenset(out)
