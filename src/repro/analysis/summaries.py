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
  from, plus the special tags ``"const"`` (literal-only), ``"other"``
  (data the analysis cannot attribute), and ``"master"`` (derived from a
  ``master_block_slice`` call — the confined-read contract).
- **Seed sites** — calls into :mod:`repro.util.rng` (``derive_seed``,
  ``keyed_rng``) with each key argument abstracted to a
  constant, a parameter reference, or an opaque atom.
- **Flags / barriers** — whether the function marks written rows for the
  synchronizer (``set_many``, or ``set`` on a ``BitVector``) and whether
  it reaches a round barrier (``fold``/``sync_value``).
- **Call sites and ``do_all`` operators** — resolved edges with argument
  bindings, so effects compose transitively (depth-limited).

Functions carrying ``@declare_effects`` are *not* descended into: their
declaration is the summary (see :mod:`repro.analysis.effects`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
import re
from typing import Optional

from .callgraph import FunctionInfo, Program, dotted_name, type_basename

__all__ = ["Effect", "SeedSite", "CallSite", "Summary", "SummaryBuilder"]

_MAX_DEPTH = 3
_MAX_EFFECTS = 400

_SEED_FUNCS = {"derive_seed", "keyed_rng"}
_BARRIER_FUNCS = {"fold", "sync_value"}
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
# Receivers whose mutation is chunk-safe by design (mirrors the list in
# repro.analysis.lint for REPRO005).
_SANCTIONED_TYPES = {
    "GAccumulator",
    "ChunkedWorklist",
    "Worklist",
    "DoAllRaceSanitizer",
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
    gluon: Optional[str] = None  # "arrays" when a FieldSync replica is touched
    via: str = ""  # qname of the function that performs the access

    def describe(self) -> str:
        kind, name = self.root
        if kind == "self":
            base = "self"
        elif kind == "global":
            base = name.split(":", 1)[-1]
        else:
            base = name
        return base + "".join(f".{a}" for a in self.attrs)


@dataclass(frozen=True)
class SeedSite:
    fn: str
    atoms: tuple  # ("const", v) | ("param", name) | ("opaque", ...)
    ref_tags: frozenset  # tags referenced anywhere in the key expression
    path: str
    line: int
    col: int


@dataclass
class CallSite:
    caller: str
    callees: list
    bound_exprs: dict  # callee param name -> actual AST expression
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
    gluon: Optional[str] = None


@dataclass
class Summary:
    finfo: FunctionInfo
    effects: list = field(default_factory=list)
    seeds: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    doall_ops: list = field(default_factory=list)  # (op FunctionInfo, call node)
    has_flags: bool = False
    has_barrier: bool = False


def _shallow_nodes(fn_node):
    """Every AST node in a function body, excluding nested defs/lambdas."""
    stack = list(fn_node.body)
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
        self._callers: Optional[dict] = None

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
            if isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if name.rsplit(".", 1)[-1] == "master_block_slice":
                    tags.add("master")
            elif isinstance(node, ast.Name):
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
                        ab = self._abstract(node.value, finfo, allow_index=False)
                        if ab is not None and ab.root[0] in ("param", "self", "closure", "global"):
                            derivs[target.id] = ab
        return derivs

    def abstract_expr(self, expr, finfo: FunctionInfo):
        """Abstraction of a value/receiver expression (subscripts -> select)."""
        return self._abstract(expr, finfo, allow_index=False)

    def abstract_target(self, expr, finfo: FunctionInfo):
        """(Abstraction, index_tags) for a store target; index is the tags
        of the outermost subscript, or None for whole-object stores."""
        index = None
        node = expr
        if isinstance(node, ast.Subscript):
            index = self.tags_of_expr(node.slice, finfo)
            node = node.value
        ab = self._abstract(node, finfo, allow_index=False)
        return ab, index

    def _abstract(self, expr, finfo: FunctionInfo, *, allow_index: bool, depth: int = 0):
        if depth > 8:
            return None
        attrs = []
        select = set()
        gluon = None
        node = expr
        while True:
            if isinstance(node, ast.Subscript):
                select |= self.tags_of_expr(node.slice, finfo)
                node = node.value
            elif isinstance(node, ast.Attribute):
                if node.attr == "arrays" and gluon is None:
                    owner_t = self.program.expr_type(node.value, finfo)
                    if type_basename(owner_t) == "FieldSync":
                        gluon = "arrays"
                attrs.append(node.attr)
                node = node.value
            else:
                break
        attrs.reverse()
        root = self._root_of(node, finfo)
        if root is None:
            return None
        base_root, base_attrs, base_select, base_gluon = root
        return Abstraction(
            root=base_root,
            attrs=base_attrs + tuple(attrs),
            select=frozenset(base_select) | frozenset(select),
            gluon=gluon or base_gluon,
        )

    def _root_of(self, node, finfo: FunctionInfo):
        """Resolve the base of an access chain -> (root, attrs, select, gluon)."""
        if not isinstance(node, ast.Name):
            return None
        name = node.id
        if name in ("self", "cls") and finfo.cls is not None:
            return ("self", "self"), (), frozenset(), None
        if name in finfo.params:
            return ("param", name), (), frozenset(), None
        derivs = self._local_derivations(finfo)
        if name in derivs:
            d = derivs[name]
            return d.root, d.attrs, d.select, d.gluon
        # Assigned locally but with no trackable derivation?
        if name in self.local_names(finfo):
            return ("var", name), (), frozenset(), None
        # Enclosing function scopes (closure capture).
        scope = finfo.parent
        while scope is not None:
            if name in scope.params or name in self.local_names(scope):
                pd = self._local_derivations(scope).get(name)
                if pd is not None:
                    return pd.root, pd.attrs, pd.select, pd.gluon
                if name in scope.params:
                    return ("param", name), (), frozenset(), None
                return ("closure", name), (), frozenset(), None
            scope = scope.parent
        mod = finfo.module
        if name in mod.functions or name in mod.classes or name in mod.imports:
            return None  # functions/classes/modules are not data roots
        if name in mod.constants:
            return None
        # Unknown: module-level mutable state or a builtin.
        return ("global", f"{mod.name}:{name}"), (), frozenset(), None

    # ------------------------------------------------------------------
    # Direct summaries
    # ------------------------------------------------------------------
    def summary(self, finfo: FunctionInfo) -> Summary:
        cached = self._summaries.get(finfo.qname)
        if cached is not None:
            return cached
        self._summaries[finfo.qname] = s = Summary(finfo=finfo)
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
                            gluon=ab.gluon,
                            via=finfo.qname,
                        )
                    )
            elif isinstance(node, ast.Call):
                self._record_call(s, node, finfo, path, sanctioned_locals)

        s.effects = s.effects[:_MAX_EFFECTS]
        return s

    def _sanctioned_locals(self, finfo: FunctionInfo) -> set:
        out = set()
        for node in _shallow_nodes(finfo.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if (
                    isinstance(target, ast.Name)
                    and isinstance(value, ast.Call)
                    and (dotted_name(value.func) or "").rsplit(".", 1)[-1] in _SANCTIONED_TYPES
                ):
                    out.add(target.id)
        # Closed-over sanctioned accumulators count too.
        scope = finfo.parent
        while scope is not None:
            out |= self._sanctioned_locals_shallow(scope)
            scope = scope.parent
        return out

    def _sanctioned_locals_shallow(self, finfo: FunctionInfo) -> set:
        out = set()
        for node in _shallow_nodes(finfo.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if (
                    isinstance(target, ast.Name)
                    and isinstance(value, ast.Call)
                    and (dotted_name(value.func) or "").rsplit(".", 1)[-1] in _SANCTIONED_TYPES
                ):
                    out.add(target.id)
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
                gluon=ab.gluon,
                via=finfo.qname,
            )
        )

    def _record_call(self, s, call: ast.Call, finfo, path, sanctioned_locals) -> None:
        func = call.func
        fname = dotted_name(func) or ""
        last = fname.rsplit(".", 1)[-1]

        # Seed sites -------------------------------------------------
        if last in _SEED_FUNCS:
            self._record_seed(s, call, finfo, path)

        # Barriers ---------------------------------------------------
        if last in _BARRIER_FUNCS:
            s.has_barrier = True

        # np.copyto(dst, src) ---------------------------------------
        if last == "copyto" and len(call.args) >= 2:
            ab, index = self.abstract_target(call.args[0], finfo)
            if ab is not None:
                s.effects.append(
                    Effect(
                        "w", ab.root, ab.attrs, ab.select, index, path, call.lineno,
                        call.col_offset, gluon=ab.gluon, via=finfo.qname,
                    )
                )
            ab2, index2 = self.abstract_target(call.args[1], finfo)
            if ab2 is not None and ab2.root[0] != "var":
                s.effects.append(
                    Effect(
                        "r", ab2.root, ab2.attrs, ab2.select, index2, path, call.lineno,
                        call.col_offset, gluon=ab2.gluon, via=finfo.qname,
                    )
                )

        # Flag-setting and mutator methods --------------------------
        if isinstance(func, ast.Attribute):
            recv = func.value
            if func.attr == "set_many":
                s.has_flags = True
            elif func.attr == "set":
                recv_t = self.program.expr_type(recv, finfo)
                if type_basename(recv_t) == "BitVector":
                    s.has_flags = True
            if func.attr in _MUTATOR_METHODS:
                recv_name = recv.id if isinstance(recv, ast.Name) else None
                recv_t = self.program.expr_type(recv, finfo)
                sanctioned = recv_name in sanctioned_locals or type_basename(recv_t) in _SANCTIONED_TYPES
                if not sanctioned:
                    ab = self.abstract_expr(recv, finfo)
                    if ab is not None and ab.root[0] != "var":
                        s.effects.append(
                            Effect(
                                "w", ab.root, ab.attrs, ab.select, None, path, call.lineno,
                                call.col_offset, gluon=ab.gluon, via=finfo.qname,
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
                    caller=finfo.qname,
                    callees=callees,
                    bound_exprs=bound,
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

    def _record_seed(self, s, call: ast.Call, finfo, path) -> None:
        args = list(call.args)
        if any(isinstance(a, ast.Starred) for a in args):
            return
        atoms = tuple(self.atom_of(a, finfo) for a in args)
        ref_tags = frozenset().union(*(self.tags_of_expr(a, finfo) for a in args)) if args else frozenset()
        s.seeds.append(
            SeedSite(
                fn=finfo.qname,
                atoms=atoms,
                ref_tags=ref_tags,
                path=path,
                line=call.lineno,
                col=call.col_offset,
            )
        )

    def atom_of(self, arg, finfo):
        """Abstract one seed-key argument: const, param reference, or opaque."""
        try:
            value = ast.literal_eval(arg)
            if isinstance(value, (int, str)):
                return ("const", value)
        except (ValueError, SyntaxError, TypeError):
            pass
        node = arg
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "str")
            and len(node.args) == 1
        ):
            node = node.args[0]
        if isinstance(node, ast.Name):
            if node.id in finfo.params:
                return ("param", node.id)
            if node.id in finfo.module.constants:
                return ("const", finfo.module.constants[node.id])
        return (
            "opaque",
            finfo.qname,
            getattr(arg, "lineno", 0),
            getattr(arg, "col_offset", 0),
        )

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
                gluon = None
                if not is_self:
                    ann = None
                    for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
                        if a.arg == name:
                            ann = a.annotation
                    tref = self.program.resolve_annotation(ann, finfo.module)
                    if type_basename(tref) == "FieldSync":
                        gluon = "arrays"
                out.append(
                    Effect(
                        mode, root, attrs, frozenset(), index, path,
                        getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
                        gluon=gluon, via=finfo.qname,
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
                gluon=eff.gluon or ab.gluon,
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
                    gluon=eff.gluon or ab.gluon,
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
            if tag in ("const", "other", "master"):
                out.add(tag)
            elif tag in call.binding_tags:
                out |= call.binding_tags[tag]
            else:
                out.add("other")
        return frozenset(out)

    def closure_flags(self, finfo: FunctionInfo, depth: int = _MAX_DEPTH, _stack=frozenset()) -> bool:
        s = self.summary(finfo)
        if s.has_flags:
            return True
        if depth <= 0 or finfo.declared_effects is not None:
            return False
        for call in s.calls:
            for callee in call.callees:
                if callee.qname in _stack or callee.qname == finfo.qname:
                    continue
                if self.closure_flags(callee, depth - 1, _stack | {finfo.qname}):
                    return True
        return False

    def closure_barrier(self, finfo: FunctionInfo, depth: int = _MAX_DEPTH, _stack=frozenset()) -> bool:
        s = self.summary(finfo)
        if s.has_barrier:
            return True
        if depth <= 0 or finfo.declared_effects is not None:
            return False
        for call in s.calls:
            for callee in call.callees:
                if callee.qname in _stack or callee.qname == finfo.qname:
                    continue
                if self.closure_barrier(callee, depth - 1, _stack | {finfo.qname}):
                    return True
        return False

    def callers_map(self) -> dict:
        """qname -> set of caller qnames (call edges + do_all operator edges)."""
        if self._callers is not None:
            return self._callers
        self._callers = callers = {}
        for finfo in list(self.program.functions.values()):
            s = self.summary(finfo)
            for call in s.calls:
                for callee in call.callees:
                    callers.setdefault(callee.qname, set()).add(finfo.qname)
            for op_fi, _call in s.doall_ops:
                callers.setdefault(op_fi.qname, set()).add(finfo.qname)
        return callers

    def caller_sites(self, qname: str):
        """All (caller FunctionInfo, CallSite) pairs targeting ``qname``."""
        out = []
        for finfo in list(self.program.functions.values()):
            s = self.summary(finfo)
            for call in s.calls:
                if any(c.qname == qname for c in call.callees):
                    out.append((finfo, call))
        return out
