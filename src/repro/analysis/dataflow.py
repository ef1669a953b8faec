"""Whole-program dataflow layer: module IR, project model, incremental cache.

The per-file AST rules (DESIGN.md §10) police invariants a single module
can prove about itself.  The invariants the reproduction's credibility
actually rests on are *interprocedural*: oracle values must never steer
sampling decisions even when laundered through a helper-function return,
RNG objects must trace back to seeded construction, bus events must have
subscribers, and results must flow through the concurrency-safe
``ResultCache``.  This module provides the substrate those analyses
(DESIGN.md §14) run on:

* a **serialisable mini-IR** per module — ordered assignment/return/call
  facts with statically-spelled names preserved — extracted once per
  file and independent of the ``ast`` objects, so it can be cached on
  disk and shipped between worker processes;
* a :class:`Project` — every module's IR plus the import graph, with
  memo slots the symbol-table/call-graph/taint layers attach to;
* :class:`ProjectRule` — the whole-program analogue of
  :class:`~repro.analysis.core.Rule`; ``closure``-scoped rules see one
  module (plus anything reachable through its imports) and are
  incrementally cacheable, ``global``-scoped rules see the whole
  project every run;
* an **incremental analysis cache** keyed on per-file content hashes:
  unchanged files reuse their extracted IR, and a module's
  closure-scoped findings are reused when nothing in its transitive
  import closure changed — the dependency-graph invalidation that makes
  a one-file edit re-analyze a handful of modules instead of the tree;
* a **multiprocess fan-out** over files (mirroring the
  ``repro.experiments.parallel`` worker patterns) for cold runs.
"""

from __future__ import annotations

import ast
import concurrent.futures
import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .core import (
    Finding,
    Rule,
    Severity,
    iter_python_files,
    lint_source,
    parse_suppressions,
)

__all__ = [
    "AnalysisCache",
    "AnalysisStats",
    "ClassIR",
    "FuncIR",
    "ModuleIR",
    "Project",
    "ProjectRule",
    "SAssign",
    "SExpr",
    "SReturn",
    "VAttr",
    "VCall",
    "VConst",
    "VName",
    "VOp",
    "VTuple",
    "analyze_project",
    "extract_module",
    "iter_calls",
    "module_name_for",
]

#: Bump when the IR shape or extraction semantics change; stale cache
#: files from older versions are discarded wholesale.
IR_VERSION = 1

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"


# ----------------------------------------------------------------------
# Value expressions: a serialisable skeleton of the AST expression tree.


@dataclass(frozen=True)
class VConst:
    """A literal; ``kind`` is the literal's type name (``int``, ``str``...)."""

    kind: str


@dataclass(frozen=True)
class VName:
    """A local/global name read."""

    name: str


@dataclass(frozen=True)
class VAttr:
    """Attribute load ``base.attr``."""

    base: "ValueExpr"
    attr: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VCall:
    """A call site.

    ``name`` is the statically-spelled dotted callee (``ctx.trace``,
    ``np.random.default_rng``) when one exists; ``func`` keeps the
    evaluated callee expression for method calls on computed values.
    """

    name: Optional[str]
    func: Optional["ValueExpr"]
    args: Tuple["ValueExpr", ...]
    kwargs: Tuple[Tuple[Optional[str], "ValueExpr"], ...]
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VTuple:
    """Tuple/list display (element structure preserved for unpacking)."""

    items: Tuple["ValueExpr", ...]


@dataclass(frozen=True)
class VOp:
    """Any combining expression — taint is the union of the operands."""

    operands: Tuple["ValueExpr", ...]


ValueExpr = Union[VConst, VName, VAttr, VCall, VTuple, VOp]


# ----------------------------------------------------------------------
# Statements (ordered, per function).


@dataclass(frozen=True)
class SAssign:
    """``targets = value``; each target is a name, tuple tree, or opaque."""

    targets: Tuple["TargetSpec", ...]
    value: ValueExpr
    line: int


@dataclass(frozen=True)
class SReturn:
    """``return value``."""

    value: Optional[ValueExpr]
    line: int


@dataclass(frozen=True)
class SExpr:
    """A bare expression statement (usually a call)."""

    value: ValueExpr
    line: int


Stmt = Union[SAssign, SReturn, SExpr]

#: Assignment target: ("name", x) | ("tuple", (specs...)) | ("opaque",).
TargetSpec = Tuple[Any, ...]


@dataclass(frozen=True)
class FuncIR:
    """One function's extracted dataflow facts."""

    qname: str
    name: str
    params: Tuple[str, ...]
    body: Tuple[Stmt, ...]
    line: int
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        """True when the function is defined inside a class."""
        return self.class_name is not None


@dataclass(frozen=True)
class ClassIR:
    """One class: base-name spellings and defined method names."""

    name: str
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    line: int


@dataclass(frozen=True)
class ModuleIR:
    """Everything the whole-program analyses need to know about one file."""

    path: str
    module: str
    content_hash: str
    imports: Tuple[Tuple[str, str], ...]
    functions: Tuple[FuncIR, ...]
    classes: Tuple[ClassIR, ...]
    suppressions: Tuple[Tuple[int, FrozenSet[str]], ...]
    file_suppressions: FrozenSet[str]
    parse_error: Optional[str] = None

    def import_map(self) -> Dict[str, str]:
        """Alias -> absolute dotted target."""
        return dict(self.imports)

    def function(self, qname: str) -> Optional[FuncIR]:
        """Look up one function by qualified name."""
        for fn in self.functions:
            if fn.qname == qname:
                return fn
        return None

    def is_suppressed(self, line: int, rule_id: str, end_line: int = 0) -> bool:
        """Mirror of :meth:`ModuleContext.is_suppressed` over cached IR."""
        if "*" in self.file_suppressions or rule_id in self.file_suppressions:
            return True
        table = dict(self.suppressions)
        for candidate in (line, end_line or line):
            ids = table.get(candidate)
            if ids is not None and ("*" in ids or rule_id in ids):
                return True
        return False


# ----------------------------------------------------------------------
# Extraction: AST -> IR.


def module_name_for(path: str) -> str:
    """Dotted module name, anchored at the last ``repro`` path component.

    Files outside a ``repro`` tree (test fixtures, scratch files) get a
    stem-based name so the project model still works on them.
    """
    pure = PurePath(PurePath(path).as_posix())
    parts = pure.parts
    anchor = None
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            anchor = i
            break
    if anchor is None:
        return pure.stem
    tail = [p for p in parts[anchor:]]
    tail[-1] = PurePath(tail[-1]).stem
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


def _spelled_name(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Extractor:
    """Translates one module's AST into the serialisable IR."""

    def __init__(self, path: str, module: str) -> None:
        self.path = path
        self.module = module
        self.functions: List[FuncIR] = []
        self.classes: List[ClassIR] = []
        self.imports: List[Tuple[str, str]] = []

    # -- expressions ----------------------------------------------------

    def expr(self, node: Optional[ast.AST]) -> ValueExpr:
        """Translate one expression node (never returns None)."""
        if node is None:
            return VConst("none")
        if isinstance(node, ast.Constant):
            return VConst(type(node.value).__name__)
        if isinstance(node, ast.Name):
            return VName(node.id)
        if isinstance(node, ast.Attribute):
            return VAttr(
                self.expr(node.value), node.attr, node.lineno, node.col_offset
            )
        if isinstance(node, ast.Call):
            args = tuple(self.expr(a) for a in node.args)
            kwargs = tuple(
                (kw.arg, self.expr(kw.value)) for kw in node.keywords
            )
            return VCall(
                _spelled_name(node.func),
                self.expr(node.func),
                args,
                kwargs,
                node.lineno,
                node.col_offset,
            )
        if isinstance(node, (ast.Tuple, ast.List)):
            return VTuple(tuple(self.expr(e) for e in node.elts))
        if isinstance(node, ast.Starred):
            return self.expr(node.value)
        if isinstance(node, ast.BinOp):
            return VOp((self.expr(node.left), self.expr(node.right)))
        if isinstance(node, ast.BoolOp):
            return VOp(tuple(self.expr(v) for v in node.values))
        if isinstance(node, ast.UnaryOp):
            return VOp((self.expr(node.operand),))
        if isinstance(node, ast.Compare):
            return VOp(
                (self.expr(node.left),)
                + tuple(self.expr(c) for c in node.comparators)
            )
        if isinstance(node, ast.IfExp):
            return VOp((self.expr(node.body), self.expr(node.orelse)))
        if isinstance(node, ast.Subscript):
            return VOp((self.expr(node.value),))
        if isinstance(node, ast.JoinedStr):
            return VConst("str")
        if isinstance(node, (ast.Dict,)):
            parts: List[ValueExpr] = []
            for key, value in zip(node.keys, node.values):
                if key is not None:
                    parts.append(self.expr(key))
                parts.append(self.expr(value))
            return VOp(tuple(parts))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            parts = [self.expr(node.elt)]
            for gen in node.generators:
                parts.append(self.expr(gen.iter))
            return VOp(tuple(parts))
        if isinstance(node, ast.DictComp):
            parts = [self.expr(node.key), self.expr(node.value)]
            for gen in node.generators:
                parts.append(self.expr(gen.iter))
            return VOp(tuple(parts))
        if isinstance(node, ast.Lambda):
            return VConst("lambda")
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.expr(node.value)  # type: ignore[arg-type]
        if isinstance(node, ast.Yield):
            return self.expr(node.value) if node.value else VConst("none")
        if isinstance(node, ast.Set):
            # Kept distinguishable: set literals are not JSON-able, and
            # the cache-safety family needs to spot them in payloads.
            return VCall(
                "<set-literal>",
                None,
                tuple(self.expr(e) for e in node.elts),
                (),
                node.lineno,
                node.col_offset,
            )
        if isinstance(node, ast.NamedExpr):
            return self.expr(node.value)
        if isinstance(node, ast.Slice):
            return VConst("slice")
        return VConst("other")

    # -- targets --------------------------------------------------------

    def target(self, node: ast.AST) -> TargetSpec:
        """Translate an assignment target."""
        if isinstance(node, ast.Name):
            return ("name", node.id)
        if isinstance(node, (ast.Tuple, ast.List)):
            return ("tuple", tuple(self.target(e) for e in node.elts))
        if isinstance(node, ast.Starred):
            return self.target(node.value)
        return ("opaque",)

    # -- statements -----------------------------------------------------

    def stmts(self, body: Sequence[ast.stmt]) -> List[Stmt]:
        """Flatten a statement list (control flow included) in order."""
        out: List[Stmt] = []
        for node in body:
            out.extend(self.stmt(node))
        return out

    def stmt(self, node: ast.stmt) -> List[Stmt]:
        """Translate one statement (nested defs handled separately)."""
        out: List[Stmt] = []
        if isinstance(node, ast.Assign):
            out.append(
                SAssign(
                    tuple(self.target(t) for t in node.targets),
                    self.expr(node.value),
                    node.lineno,
                )
            )
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                out.append(
                    SAssign(
                        (self.target(node.target),),
                        self.expr(node.value),
                        node.lineno,
                    )
                )
        elif isinstance(node, ast.AugAssign):
            target = self.target(node.target)
            read: ValueExpr = (
                VName(target[1]) if target[0] == "name" else VConst("other")
            )
            out.append(
                SAssign(
                    (target,),
                    VOp((read, self.expr(node.value))),
                    node.lineno,
                )
            )
        elif isinstance(node, ast.Return):
            out.append(SReturn(self.expr(node.value), node.lineno))
        elif isinstance(node, ast.Expr):
            out.append(SExpr(self.expr(node.value), node.lineno))
        elif isinstance(node, (ast.If,)):
            out.append(SExpr(self.expr(node.test), node.lineno))
            out.extend(self.stmts(node.body))
            out.extend(self.stmts(node.orelse))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            out.append(
                SAssign(
                    (self.target(node.target),),
                    VOp((self.expr(node.iter),)),
                    node.lineno,
                )
            )
            out.extend(self.stmts(node.body))
            out.extend(self.stmts(node.orelse))
        elif isinstance(node, (ast.While,)):
            out.append(SExpr(self.expr(node.test), node.lineno))
            out.extend(self.stmts(node.body))
            out.extend(self.stmts(node.orelse))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    out.append(
                        SAssign(
                            (self.target(item.optional_vars),),
                            self.expr(item.context_expr),
                            node.lineno,
                        )
                    )
                else:
                    out.append(SExpr(self.expr(item.context_expr), node.lineno))
            out.extend(self.stmts(node.body))
        elif isinstance(node, ast.Try):
            out.extend(self.stmts(node.body))
            for handler in node.handlers:
                out.extend(self.stmts(handler.body))
            out.extend(self.stmts(node.orelse))
            out.extend(self.stmts(node.finalbody))
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                out.append(SExpr(self.expr(node.exc), node.lineno))
        elif isinstance(node, ast.Assert):
            out.append(SExpr(self.expr(node.test), node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # Function-local imports still bind names the module's call
            # sites resolve through (lazy imports are an idiom here).
            self.visit_import(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def (progress-bus closures, local helpers): extract
            # it as its own function so its call sites stay visible.
            self.visit_function(node, None)
        elif isinstance(node, ast.Delete):
            pass
        return out

    # -- imports / defs -------------------------------------------------

    def visit_import(self, node: ast.stmt) -> None:
        """Record alias -> absolute dotted target."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self.imports.append((name, target))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = self.module.split(".")
                # level 1 = current package: drop the module basename.
                keep = len(parts) - node.level
                prefix = ".".join(parts[:keep]) if keep > 0 else ""
                base = f"{prefix}.{base}" if base and prefix else (prefix or base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                self.imports.append((name, target))

    def visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        class_name: Optional[str],
    ) -> None:
        """Extract one function (methods carry their class name)."""
        args = node.args
        params = tuple(
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
        )
        prefix = f"{class_name}." if class_name else ""
        qname = f"{self.module}.{prefix}{node.name}"
        self.functions.append(
            FuncIR(
                qname=qname,
                name=node.name,
                params=params,
                body=tuple(self.stmts(node.body)),
                line=node.lineno,
                class_name=class_name,
            )
        )

    def run(self, tree: ast.Module) -> None:
        """Walk the module: imports, classes, functions, top-level body."""
        top: List[ast.stmt] = []
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.visit_import(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.visit_function(node, None)
            elif isinstance(node, ast.ClassDef):
                methods: List[str] = []
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        methods.append(item.name)
                        self.visit_function(item, node.name)
                    elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                        top.append(item)
                self.classes.append(
                    ClassIR(
                        name=node.name,
                        bases=tuple(
                            b
                            for b in (
                                _spelled_name(base) for base in node.bases
                            )
                            if b is not None
                        ),
                        methods=tuple(methods),
                        line=node.lineno,
                    )
                )
            else:
                # Imports inside try/if blocks still matter for resolution.
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        self.visit_import(sub)
                top.append(node)
        self.functions.append(
            FuncIR(
                qname=f"{self.module}.{MODULE_BODY}",
                name=MODULE_BODY,
                params=(),
                body=tuple(self.stmts(top)),
                line=1,
            )
        )


def extract_module(path: str, source: Optional[str] = None) -> ModuleIR:
    """Parse *path* (or *source*) and extract its IR."""
    if source is None:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    posix = PurePath(path).as_posix()
    module = module_name_for(posix)
    content_hash = hashlib.sha256(source.encode()).hexdigest()
    suppressions, file_suppressions = parse_suppressions(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return ModuleIR(
            path=posix,
            module=module,
            content_hash=content_hash,
            imports=(),
            functions=(),
            classes=(),
            suppressions=tuple(sorted(suppressions.items())),
            file_suppressions=file_suppressions,
            parse_error=str(exc.msg),
        )
    extractor = _Extractor(posix, module)
    extractor.run(tree)
    return ModuleIR(
        path=posix,
        module=module,
        content_hash=content_hash,
        imports=tuple(extractor.imports),
        functions=tuple(extractor.functions),
        classes=tuple(extractor.classes),
        suppressions=tuple(sorted(suppressions.items())),
        file_suppressions=file_suppressions,
    )


def iter_calls(expr: ValueExpr) -> Iterator[VCall]:
    """Yield every call node inside *expr* (depth-first, self included)."""
    stack: List[ValueExpr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, VCall):
            yield node
            if node.func is not None:
                stack.append(node.func)
            stack.extend(node.args)
            stack.extend(v for _, v in node.kwargs)
        elif isinstance(node, VAttr):
            stack.append(node.base)
        elif isinstance(node, VTuple):
            stack.extend(node.items)
        elif isinstance(node, VOp):
            stack.extend(node.operands)


# ----------------------------------------------------------------------
# The project model.


@dataclass
class AnalysisStats:
    """Counters describing one whole-program analysis run."""

    modules_total: int = 0
    #: Modules whose IR was (re-)extracted this run (cache misses).
    modules_extracted: int = 0
    #: Modules whose closure-scoped findings were recomputed.
    modules_analyzed: int = 0
    #: Modules served entirely from the findings cache.
    findings_cached: int = 0
    jobs: int = 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-able counter snapshot."""
        return {
            "modules_total": self.modules_total,
            "modules_extracted": self.modules_extracted,
            "modules_analyzed": self.modules_analyzed,
            "findings_cached": self.findings_cached,
            "jobs": self.jobs,
        }


class Project:
    """Every module's IR plus derived structures the analyses memoise."""

    def __init__(self, modules: Sequence[ModuleIR]) -> None:
        self.modules: List[ModuleIR] = sorted(modules, key=lambda m: m.path)
        self.by_module: Dict[str, ModuleIR] = {
            m.module: m for m in self.modules
        }
        self.by_path: Dict[str, ModuleIR] = {m.path: m for m in self.modules}
        #: Memo slots used by the symbol-table / call-graph / taint layers.
        self.memo: Dict[str, Any] = {}

    def functions(self) -> Iterator[FuncIR]:
        """Every function of every module."""
        for mir in self.modules:
            yield from mir.functions

    def dependencies(self, mir: ModuleIR) -> Set[str]:
        """Project-internal modules *mir* imports (direct)."""
        deps: Set[str] = set()
        for _, target in mir.imports:
            probe = target
            while probe:
                if probe in self.by_module and probe != mir.module:
                    deps.add(probe)
                    break
                probe = probe.rpartition(".")[0]
        return deps

    def import_closure(self, mir: ModuleIR) -> Set[str]:
        """Transitive import closure of *mir* (module names, self included)."""
        seen: Set[str] = {mir.module}
        frontier = [mir]
        while frontier:
            current = frontier.pop()
            for dep in self.dependencies(current):
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(self.by_module[dep])
        return seen

    def closure_key(self, mir: ModuleIR, salt: str = "") -> str:
        """Hash of the module's closure content — the findings-cache key."""
        material = [salt]
        for name in sorted(self.import_closure(mir)):
            material.append(f"{name}:{self.by_module[name].content_hash}")
        return hashlib.sha256("\n".join(material).encode()).hexdigest()


class ProjectRule:
    """Base class for one whole-program check.

    ``scope`` controls incrementality: ``"closure"`` rules derive a
    module's findings from that module plus its transitive import
    closure (cacheable per closure hash); ``"global"`` rules need the
    entire project every run (e.g. "is this event type subscribed
    *anywhere*?").
    """

    rule_id: str = "XXX100"
    severity: Severity = Severity.ERROR
    summary: str = ""
    scope: str = "closure"

    def check_module(self, project: Project, mir: ModuleIR) -> Iterator[Finding]:
        """Yield findings for one module (closure-scoped rules)."""
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield findings for the whole project (global-scoped rules)."""
        return iter(())

    def finding(
        self,
        mir: ModuleIR,
        line: int,
        col: int,
        message: str,
        end_line: int = 0,
    ) -> Finding:
        """Build a finding at an IR-recorded location."""
        return Finding(
            path=mir.path,
            line=max(line, 1),
            col=col + 1,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            end_line=end_line,
        )


# ----------------------------------------------------------------------
# Incremental cache.


class AnalysisCache:
    """On-disk cache: per-file IR keyed on content hash, plus findings
    keyed on import-closure hashes.

    One pickle file holds everything; it is rewritten atomically
    (unique tmp + ``os.replace``, the :class:`ResultCache` publication
    pattern) so concurrent lint runs can share a cache directory without
    torn reads.  A version stamp discards caches from older IR shapes.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._ir: Dict[str, ModuleIR] = {}
        self._findings: Dict[str, Tuple[str, Tuple[Finding, ...]]] = {}
        self._loaded_ok = False
        self._load()

    def _load(self) -> None:
        try:
            with self.path.open("rb") as fh:
                payload = pickle.load(fh)
            if payload.get("version") == IR_VERSION:
                self._ir = payload["ir"]
                self._findings = payload["findings"]
                self._loaded_ok = True
        except (OSError, pickle.PickleError, KeyError, EOFError,
                AttributeError, ImportError):
            self._ir = {}
            self._findings = {}

    def save(self) -> None:
        """Atomically publish the cache file."""
        payload = {
            "version": IR_VERSION,
            "ir": self._ir,
            "findings": self._findings,
        }
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.tmp"
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh)
            os.replace(tmp, self.path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def ir(self, path: str, content_hash: str) -> Optional[ModuleIR]:
        """Cached IR for *path* if its content hash still matches."""
        cached = self._ir.get(path)
        if cached is not None and cached.content_hash == content_hash:
            return cached
        return None

    def put_ir(self, mir: ModuleIR) -> None:
        """Store one module's IR."""
        self._ir[mir.path] = mir

    def findings(
        self, path: str, closure_key: str
    ) -> Optional[Tuple[Finding, ...]]:
        """Cached closure-scoped findings if the closure is unchanged."""
        cached = self._findings.get(path)
        if cached is not None and cached[0] == closure_key:
            return cached[1]
        return None

    def put_findings(
        self, path: str, closure_key: str, findings: Sequence[Finding]
    ) -> None:
        """Store one module's closure-scoped findings."""
        self._findings[path] = (closure_key, tuple(findings))


# ----------------------------------------------------------------------
# Drivers.


def _hash_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _extract_worker(path: str) -> ModuleIR:
    """Process-pool worker: extract one file (module-level for pickling)."""
    return extract_module(path)


def _load_modules(
    files: Sequence[str],
    cache: Optional[AnalysisCache],
    jobs: int,
    stats: AnalysisStats,
) -> List[ModuleIR]:
    """IR for every file, reusing the cache and fanning extraction out."""
    modules: List[ModuleIR] = []
    todo: List[str] = []
    for path in files:
        posix = PurePath(path).as_posix()
        if cache is not None:
            try:
                cached = cache.ir(posix, _hash_file(path))
            except OSError:
                cached = None
            if cached is not None:
                modules.append(cached)
                continue
        todo.append(path)
    stats.modules_extracted = len(todo)
    if jobs > 1 and len(todo) > 1:
        # Pure per-item workers in a bounded pool, results folded back
        # on the driver side.
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(todo))
        ) as pool:
            for mir in pool.map(_extract_worker, todo):
                modules.append(mir)
    else:
        for path in todo:
            modules.append(extract_module(path))
    if cache is not None:
        for mir in modules:
            cache.put_ir(mir)
    return modules


def analyze_project(
    paths: Iterable[str],
    rules: Sequence[ProjectRule],
    ast_rules: Sequence[Rule] = (),
    cache: Optional[AnalysisCache] = None,
    jobs: int = 1,
) -> Tuple[List[Finding], AnalysisStats]:
    """Run whole-program *rules* (and optional per-module *ast_rules*).

    Returns the sorted findings plus an :class:`AnalysisStats` snapshot.
    Suppression comments apply to project findings exactly as they do to
    per-module ones.  When *cache* is given, unchanged files reuse their
    IR and modules whose import closure is untouched reuse their
    closure-scoped findings outright.
    """
    files = sorted({PurePath(p).as_posix(): p for p in
                    iter_python_files(paths)}.values())
    stats = AnalysisStats(modules_total=len(files), jobs=max(1, jobs))
    modules = _load_modules(files, cache, max(1, jobs), stats)
    project = Project(modules)

    closure_rules = [r for r in rules if r.scope == "closure"]
    global_rules = [r for r in rules if r.scope != "closure"]
    rule_salt = ",".join(sorted(r.rule_id for r in closure_rules))
    if ast_rules:
        rule_salt += "|ast:" + ",".join(
            sorted(r.rule_id for r in ast_rules)
        )

    findings: List[Finding] = []
    for mir in project.modules:
        closure_key = (
            project.closure_key(mir, rule_salt) if cache is not None else ""
        )
        if cache is not None:
            cached = cache.findings(mir.path, closure_key)
            if cached is not None:
                findings.extend(cached)
                stats.findings_cached += 1
                continue
        stats.modules_analyzed += 1
        module_findings: List[Finding] = []
        for rule in closure_rules:
            for f in rule.check_module(project, mir):
                if not mir.is_suppressed(f.line, f.rule_id, f.end_line):
                    module_findings.append(f)
        if ast_rules:
            # Per-module syntactic rules ride the same fan-out/caching.
            module_findings.extend(_ast_findings(mir.path, ast_rules))
        if cache is not None:
            cache.put_findings(mir.path, closure_key, module_findings)
        findings.extend(module_findings)

    for rule in global_rules:
        for f in rule.check_project(project):
            mir = project.by_path.get(f.path)
            if mir is None or not mir.is_suppressed(
                f.line, f.rule_id, f.end_line
            ):
                findings.append(f)

    if cache is not None:
        cache.save()
    return sorted(findings, key=Finding.sort_key), stats


def _ast_findings(path: str, ast_rules: Sequence[Rule]) -> List[Finding]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError:
        return []
    return lint_source(source, path, ast_rules)
