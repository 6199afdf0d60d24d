"""Whole-package call graph and lightweight type environment.

This is the indexing layer under :mod:`repro.analysis.dataflow`.  It
parses every file in the analyzed tree once and answers three questions
for the rule passes:

1. *What does this name refer to?* — imports, module-level defs, nested
   defs, and class methods are indexed into a single namespace of
   qualified names (``repro.w2v.steps.RoundWork.apply``).
2. *What does this call resolve to?* — ``Name`` calls resolve through
   enclosing scopes and imports; ``self.m(...)`` through the receiver's
   class and bases; ``obj.m(...)`` through a best-effort type
   environment built from annotations, constructor calls, and a few
   container idioms (dict/list literals and comprehensions).
3. *What type does this expression have?* — a deliberately small
   nominal lattice: ``("cls", qname)``, ``("dictof", T)``,
   ``("listof", T)``.  Types the program does not define (``np.ndarray``,
   or classes outside the analyzed file set) stay nominal: the dotted
   annotation text is kept so rules can still match on the class *name*
   (``GAccumulator``) without resolving the class body.

Everything here is approximate by design.  The analyzer trades soundness
at the edges (unresolvable calls simply produce no edge) for zero false
noise from the dynamic features it cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "dotted_name",
    "type_basename",
]

# TypeRef: ("cls", qname) | ("dictof", TypeRef) | ("listof", TypeRef)
TypeRef = tuple

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

_MAX_TYPE_DEPTH = 6


def dotted_name(node: ast.expr) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to a dotted string, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def type_basename(tref: Optional[TypeRef]) -> Optional[str]:
    """Last dotted segment of a nominal class type (``FieldSync``), else None."""
    if tref and tref[0] == "cls":
        return tref[1].rsplit(".", 1)[-1]
    return None


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    is_package: bool = False
    imports: dict = field(default_factory=dict)  # alias -> dotted target
    constants: set = field(default_factory=set)  # names bound to an int|str|float literal
    functions: dict = field(default_factory=dict)  # top-level name -> FunctionInfo
    classes: dict = field(default_factory=dict)  # top-level name -> ClassInfo

    @property
    def package(self) -> str:
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


@dataclass
class ClassInfo:
    qname: str
    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: tuple = ()  # raw dotted base names
    methods: dict = field(default_factory=dict)  # name -> FunctionInfo
    attr_types: dict = field(default_factory=dict)  # attr -> TypeRef


@dataclass
class FunctionInfo:
    qname: str
    name: str
    module: ModuleInfo
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    cls: Optional[ClassInfo] = None
    parent: Optional["FunctionInfo"] = None
    children: dict = field(default_factory=dict)  # nested def name -> FunctionInfo
    declared_effects: Optional[dict] = None  # {"reads": (...), "writes": (...)}

    @property
    def arg_names(self) -> list:
        a = self.node.args
        return [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)]

    @property
    def params(self) -> list:
        """Argument names excluding a leading self/cls on methods."""
        names = self.arg_names
        if self.cls is not None and names and names[0] in ("self", "cls"):
            return names[1:]
        return names


def _module_name_for(path: Path) -> str:
    parts = list(path.resolve().with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    else:
        keep = [parts[-1]]
        parent = path.resolve().parent
        while (parent / "__init__.py").exists():
            keep.insert(0, parent.name)
            parent = parent.parent
        parts = keep
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _parse_declared_effects(node) -> Optional[dict]:
    """Read a ``@declare_effects(reads=..., writes=...)`` decorator off the AST."""
    for deco in getattr(node, "decorator_list", []):
        if not isinstance(deco, ast.Call):
            continue
        name = dotted_name(deco.func) or ""
        if name.rsplit(".", 1)[-1] != "declare_effects":
            continue
        spec = {"reads": (), "writes": ()}
        for kw in deco.keywords:
            if kw.arg not in spec or not isinstance(kw.value, (ast.Tuple, ast.List)):
                continue
            items = []
            for elt in kw.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    items.append(elt.value)
            spec[kw.arg] = tuple(items)
        return spec
    return None


class Program:
    """Index of every module in the analyzed file set."""

    def __init__(self) -> None:
        self.modules: dict = {}  # module name -> ModuleInfo
        self.functions: dict = {}  # qname -> FunctionInfo
        self.classes: dict = {}  # qname -> ClassInfo
        self._declared_by_name: dict = {}  # bare name -> [FunctionInfo with effects]
        self._env_cache: dict = {}
        self._attr_types_done: set = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files) -> "Program":
        """Parse and index ``files`` (iterable of paths to .py files)."""
        program = cls()
        for path in files:
            path = Path(path)
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            mod = ModuleInfo(
                name=_module_name_for(path),
                path=str(path),
                tree=tree,
                is_package=path.name == "__init__.py",
            )
            program.modules[mod.name] = mod
            program._index_module(mod)
        # Attribute types need the full function index, so resolve lazily
        # via class_attr_types(); nothing else to do up front.
        return program

    def _index_module(self, mod: ModuleInfo) -> None:
        for node in mod.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mod.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    pkg_parts = mod.package.split(".") if mod.package else []
                    if node.level > 1:
                        pkg_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                    base = ".".join(pkg_parts + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    mod.imports[alias.asname or alias.name] = f"{base}.{alias.name}" if base else alias.name
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
                    value = value.operand
                if (
                    isinstance(target, ast.Name)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, (int, float, str))
                ):
                    mod.constants.add(target.id)

        self._index_body(mod, mod.tree.body, prefix=mod.name, cls=None, parent=None)

    def _index_body(self, mod, body, prefix, cls, parent) -> None:
        for node in body:
            if isinstance(node, _FUNC_NODES):
                self._index_function(mod, node, prefix, cls, parent)
            elif isinstance(node, ast.ClassDef) and parent is None and cls is None:
                # A generic base ``Base[T]`` is ``Base`` for method lookup.
                bases = [b.value if isinstance(b, ast.Subscript) else b for b in node.bases]
                cinfo = ClassInfo(
                    qname=f"{prefix}.{node.name}",
                    name=node.name,
                    module=mod,
                    node=node,
                    bases=tuple(filter(None, map(dotted_name, bases))),
                )
                mod.classes[node.name] = cinfo
                self.classes[cinfo.qname] = cinfo
                self._index_body(mod, node.body, prefix=cinfo.qname, cls=cinfo, parent=None)

    def _index_function(self, mod, node, prefix, cls, parent) -> FunctionInfo:
        finfo = FunctionInfo(
            qname=f"{prefix}.{node.name}",
            name=node.name,
            module=mod,
            node=node,
            cls=cls,
            parent=parent,
            declared_effects=_parse_declared_effects(node),
        )
        self.functions[finfo.qname] = finfo
        if parent is not None:
            parent.children[node.name] = finfo
        elif cls is not None:
            cls.methods[node.name] = finfo
        else:
            mod.functions[node.name] = finfo
        if finfo.declared_effects is not None:
            self._declared_by_name.setdefault(node.name, []).append(finfo)
        # Index nested defs (operators passed to do_all live here).
        for child in _shallow_defs(node.body):
            self._index_function(mod, child, prefix=finfo.qname, cls=cls, parent=finfo)
        return finfo

    # ------------------------------------------------------------------
    # Name and call resolution
    # ------------------------------------------------------------------
    def expand_alias(self, mod: ModuleInfo, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        target = mod.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def resolve_name(self, finfo: FunctionInfo, name: str):
        """Resolve a bare name used inside ``finfo``.

        Returns a FunctionInfo, ClassInfo, ModuleInfo, or a dotted string
        for imports pointing outside the analyzed set, or None.
        """
        scope = finfo
        while scope is not None:
            if name in scope.children:
                return scope.children[name]
            scope = scope.parent
        mod = finfo.module
        if name in mod.functions:
            return mod.functions[name]
        if name in mod.classes:
            return mod.classes[name]
        if name in mod.imports:
            dotted = mod.imports[name]
            return (
                self.functions.get(dotted)
                or self.classes.get(dotted)
                or self.modules.get(dotted)
                or dotted
            )
        return None

    def lookup_method(self, cinfo: ClassInfo, name: str, _seen=None) -> Optional[FunctionInfo]:
        if _seen is None:
            _seen = set()
        if cinfo.qname in _seen:
            return None
        _seen.add(cinfo.qname)
        if name in cinfo.methods:
            return cinfo.methods[name]
        for base in cinfo.bases:
            target = self.expand_alias(cinfo.module, base)
            base_cls = self.classes.get(target)
            if base_cls is None:
                # Base defined in the same module under its bare name.
                base_cls = cinfo.module.classes.get(base)
            if base_cls is not None:
                found = self.lookup_method(base_cls, name, _seen)
                if found is not None:
                    return found
        return None

    def resolve_call(self, finfo: FunctionInfo, call: ast.Call):
        """Resolve a call to target FunctionInfos.

        Returns ``(callees, receiver_expr)`` where ``receiver_expr`` is
        the ``obj`` of an ``obj.m(...)`` call (None for plain calls), and
        ``callees`` is a (possibly empty) list of FunctionInfo.
        """
        func = call.func
        if isinstance(func, ast.Name):
            target = self.resolve_name(finfo, func.id)
            if isinstance(target, FunctionInfo):
                return [target], None
            if isinstance(target, ClassInfo):
                return [], None  # constructor: fresh object, no tracked effects
            return [], None
        if not isinstance(func, ast.Attribute):
            return [], None
        recv = func.value
        dotted = dotted_name(func)
        if dotted is not None:
            expanded = self.expand_alias(finfo.module, dotted)
            hit = self.functions.get(expanded)
            if hit is not None and hit.cls is None:
                return [hit], None
        # self.m(...) / cls.m(...)
        if isinstance(recv, ast.Name) and recv.id in ("self", "cls") and finfo.cls is not None:
            method = self.lookup_method(finfo.cls, func.attr)
            if method is not None:
                return [method], recv
            return [], recv
        # typed receiver
        tref = self.expr_type(recv, finfo)
        base = type_basename(tref)
        if base is not None:
            cinfo = self.classes.get(tref[1])
            if cinfo is None:
                for cand in self.classes.values():
                    if cand.name == base:
                        cinfo = cand
                        break
            if cinfo is not None:
                method = self.lookup_method(cinfo, func.attr)
                if method is not None:
                    return [method], recv
        # last resort: a unique effect-declaring method of that name
        declared = self._declared_by_name.get(func.attr, [])
        if len(declared) == 1:
            return list(declared), recv
        return [], recv

    def bind_args(self, callee: FunctionInfo, call: ast.Call, *, skip_self: bool):
        """Map callee parameter names to actual-argument AST expressions."""
        names = callee.arg_names
        if skip_self and names and names[0] in ("self", "cls"):
            names = names[1:]
        bound = {}
        for i, actual in enumerate(call.args):
            if isinstance(actual, ast.Starred):
                break
            if i < len(names):
                bound[names[i]] = actual
        for kw in call.keywords:
            if kw.arg is not None:
                bound[kw.arg] = kw.value
        return bound

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def resolve_annotation(self, ann, mod: ModuleInfo, depth: int = 0) -> Optional[TypeRef]:
        if ann is None or depth > _MAX_TYPE_DEPTH:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            # X | None -> X
            for side in (ann.left, ann.right):
                if not (isinstance(side, ast.Constant) and side.value is None):
                    return self.resolve_annotation(side, mod, depth + 1)
            return None
        if isinstance(ann, ast.Subscript):
            base = dotted_name(ann.value)
            base_last = (base or "").rsplit(".", 1)[-1]
            inner = ann.slice
            if base_last in ("Optional",):
                return self.resolve_annotation(inner, mod, depth + 1)
            if base_last in ("list", "List", "Sequence", "tuple", "Tuple"):
                elt = inner.elts[0] if isinstance(inner, ast.Tuple) and inner.elts else inner
                sub = self.resolve_annotation(elt, mod, depth + 1)
                return ("listof", sub) if sub else None
            if base_last in ("dict", "Dict", "Mapping", "MutableMapping"):
                if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                    sub = self.resolve_annotation(inner.elts[1], mod, depth + 1)
                    return ("dictof", sub) if sub else None
            return None
        dotted = dotted_name(ann)
        if dotted is None:
            return None
        expanded = self.expand_alias(mod, dotted)
        if expanded in self.classes:
            return ("cls", expanded)
        last = expanded.rsplit(".", 1)[-1]
        if last and last[0].isupper():
            return ("cls", expanded)  # nominal: class outside the analyzed set
        return None

    def local_env(self, finfo: FunctionInfo) -> dict:
        """name -> TypeRef for locals of ``finfo`` (approximate, memoized)."""
        cached = self._env_cache.get(finfo.qname)
        if cached is not None:
            return cached
        self._env_cache[finfo.qname] = env = {}
        args = finfo.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            tref = self.resolve_annotation(arg.annotation, finfo.module)
            if tref is not None:
                env[arg.arg] = tref
        # Two passes so later assignments can see earlier inferred types.
        for _ in range(2):
            for stmt in _shallow_stmts(finfo.node):
                self._infer_stmt(stmt, finfo, env)
        return env

    def _infer_stmt(self, stmt, finfo, env) -> None:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            tref = self.resolve_annotation(stmt.annotation, finfo.module)
            if tref is not None:
                env[stmt.target.id] = tref
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                tref = self.expr_type(stmt.value, finfo, env)
                if tref is not None:
                    env[target.id] = tref
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._infer_loop_target(stmt.target, stmt.iter, finfo, env)

    def _infer_loop_target(self, target, iter_expr, finfo, env) -> None:
        iter_t = self.expr_type(iter_expr, finfo, env)
        if isinstance(target, ast.Name):
            if iter_t is not None and iter_t[0] == "listof":
                env[target.id] = iter_t[1]
        elif isinstance(target, ast.Tuple) and isinstance(iter_expr, (ast.Tuple, ast.List)):
            # for (a, b, c) in ((x1, y1, z1), (x2, y2, z2)):
            rows = [r for r in iter_expr.elts if isinstance(r, ast.Tuple)]
            if rows and all(len(r.elts) == len(target.elts) for r in rows):
                for pos, name_node in enumerate(target.elts):
                    if not isinstance(name_node, ast.Name):
                        continue
                    col_types = {self.expr_type(r.elts[pos], finfo, env) for r in rows}
                    col_types.discard(None)
                    if len(col_types) == 1:
                        env[name_node.id] = col_types.pop()

    def expr_type(self, expr, finfo: FunctionInfo, env: Optional[dict] = None, depth: int = 0):
        if expr is None or depth > _MAX_TYPE_DEPTH:
            return None
        if env is None:
            env = self.local_env(finfo)
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            scope = finfo.parent
            while scope is not None:
                outer = self._env_cache.get(scope.qname)
                if outer is None and depth == 0:
                    outer = self.local_env(scope)
                if outer and expr.id in outer:
                    return outer[expr.id]
                scope = scope.parent
            return None
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self" and finfo.cls is not None:
                return self.class_attr_types(finfo.cls).get(expr.attr)
            base_t = self.expr_type(expr.value, finfo, env, depth + 1)
            if base_t is not None and base_t[0] == "cls":
                cinfo = self.classes.get(base_t[1])
                if cinfo is not None:
                    return self.class_attr_types(cinfo).get(expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            base_t = self.expr_type(expr.value, finfo, env, depth + 1)
            if base_t is not None and base_t[0] in ("dictof", "listof"):
                return base_t[1]
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                target = self.resolve_name(finfo, func.id)
                if isinstance(target, ClassInfo):
                    return ("cls", target.qname)
                if isinstance(target, FunctionInfo):
                    return self.resolve_annotation(target.node.returns, target.module)
                if isinstance(target, str):
                    last = target.rsplit(".", 1)[-1]
                    if last and last[0].isupper():
                        return ("cls", target)
                return None
            dotted = dotted_name(func)
            if dotted is not None:
                expanded = self.expand_alias(finfo.module, dotted)
                if expanded in self.classes:
                    return ("cls", expanded)
                hit = self.functions.get(expanded)
                if hit is not None:
                    return self.resolve_annotation(hit.node.returns, hit.module)
                last = expanded.rsplit(".", 1)[-1]
                if last and last[0].isupper():
                    return ("cls", expanded)
            callees, _recv = self.resolve_call(finfo, expr)
            if len(callees) == 1 and not isinstance(callees[0].node, ast.Lambda):
                target = callees[0]
                return self.resolve_annotation(target.node.returns, target.module)
            return None
        if isinstance(expr, ast.Dict):
            vals = {self.expr_type(v, finfo, env, depth + 1) for v in expr.values if v is not None}
            vals.discard(None)
            if len(vals) == 1:
                return ("dictof", vals.pop())
            return None
        if isinstance(expr, ast.List):
            vals = {self.expr_type(v, finfo, env, depth + 1) for v in expr.elts}
            vals.discard(None)
            if len(vals) == 1:
                return ("listof", vals.pop())
            return None
        if isinstance(expr, ast.ListComp):
            sub = self.expr_type(expr.elt, finfo, env, depth + 1)
            return ("listof", sub) if sub else None
        if isinstance(expr, ast.DictComp):
            sub = self.expr_type(expr.value, finfo, env, depth + 1)
            return ("dictof", sub) if sub else None
        if isinstance(expr, ast.IfExp):
            return self.expr_type(expr.body, finfo, env, depth + 1)
        return None

    def class_attr_types(self, cinfo: ClassInfo) -> dict:
        """self.X types, from dataclass fields and __init__ assignments."""
        if cinfo.qname in self._attr_types_done:
            return cinfo.attr_types
        self._attr_types_done.add(cinfo.qname)
        for stmt in cinfo.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                tref = self.resolve_annotation(stmt.annotation, cinfo.module)
                if tref is not None:
                    cinfo.attr_types.setdefault(stmt.target.id, tref)
        init = cinfo.methods.get("__init__")
        if init is not None:
            env = self.local_env(init)
            for stmt in _shallow_stmts(init.node):
                target = None
                value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    target, value = stmt.target, stmt.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    tref = None
                    if isinstance(stmt, ast.AnnAssign):
                        tref = self.resolve_annotation(stmt.annotation, cinfo.module)
                    if tref is None:
                        tref = self.expr_type(value, init, env)
                    if tref is not None:
                        cinfo.attr_types.setdefault(target.attr, tref)
        return cinfo.attr_types


def _shallow_defs(body):
    """Immediate function defs in a body, descending into compound
    statements but not into nested defs/classes/lambdas."""
    out = []
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNC_NODES):
            out.append(node)
            continue
        if isinstance(node, (ast.ClassDef, ast.Lambda)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                stack.append(child)
    return out


def _shallow_stmts(node):
    """All statements in a function body, not descending into nested defs
    (a lambda's body is an expression: none)."""
    out = []
    stack = list(node.body) if isinstance(node.body, list) else []
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (*_FUNC_NODES, ast.ClassDef)):
            continue
        if isinstance(stmt, ast.stmt):
            out.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                stack.append(child)
    return out
