"""Symbol table and call graph over the dataflow IR.

Resolution is deliberately conservative and name-driven: the IR records
statically-spelled callee names (``session.run_segment``,
``np.random.default_rng``), and this module maps them to project
function qnames using each module's import table, local definitions,
and class method tables.  ``self.method()`` resolves within the
enclosing class; a bare ``obj.method()`` falls back to *unique* method
names across the project (ambiguous names stay unresolved rather than
guessing).  Calls to a project class resolve to its ``__init__``.

Unresolved calls are kept as external edges keyed by their spelled
name, which is exactly what the taint and provenance layers match
source/sink patterns against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .dataflow import (
    FuncIR,
    ModuleIR,
    Project,
    VCall,
    iter_calls,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "build_call_graph",
    "resolve_call",
    "resolve_name",
]

_MEMO_KEY = "callgraph"


@dataclass(frozen=True)
class CallSite:
    """One resolved (or external) call edge."""

    caller: str
    callee: Optional[str]
    spelled: Optional[str]
    line: int
    col: int
    call: VCall


@dataclass
class CallGraph:
    """Edges between project functions plus external (unresolved) calls."""

    edges: Dict[str, Set[str]] = field(default_factory=dict)
    sites: List[CallSite] = field(default_factory=list)
    #: qname -> sites made *from* that function.
    by_caller: Dict[str, List[CallSite]] = field(default_factory=dict)

    def add(self, site: CallSite) -> None:
        """Record one call site."""
        self.sites.append(site)
        self.by_caller.setdefault(site.caller, []).append(site)
        if site.callee is not None:
            self.edges.setdefault(site.caller, set()).add(site.callee)


def resolve_name(
    project: Project, mir: ModuleIR, spelled: str
) -> Optional[str]:
    """Resolve a spelled dotted name to a project symbol qname.

    Tries, in order: a local function/class in *mir*; the module's
    import table (``from x import f`` => alias ``f`` -> ``x.f``;
    ``import pkg.mod as m`` => head ``m`` rewritten to ``pkg.mod``);
    then checks the rewritten dotted path against project modules.
    Returns the function qname, ``module.Class`` for classes, or None.
    """
    head, _, rest = spelled.partition(".")
    imports = mir.import_map()
    if head in imports:
        absolute = imports[head] + (f".{rest}" if rest else "")
    else:
        absolute = f"{mir.module}.{spelled}"
    resolved = _lookup_absolute(project, absolute)
    if resolved is not None:
        return resolved
    # Fully-qualified spelling without an import alias (rare).
    return _lookup_absolute(project, spelled)


def _lookup_absolute(project: Project, absolute: str) -> Optional[str]:
    """Map an absolute dotted path to a function/class qname, if any."""
    module_name, _, symbol = absolute.rpartition(".")
    target = project.by_module.get(module_name)
    if target is not None and symbol:
        if target.function(f"{module_name}.{symbol}") is not None:
            return f"{module_name}.{symbol}"
        for cls in target.classes:
            if cls.name == symbol:
                return f"{module_name}.{symbol}"
        # ``from pkg.mod import Class`` then ``Class.method`` spelling.
        outer, _, method = symbol.rpartition(".")
        if outer:
            for cls in target.classes:
                if cls.name == outer and method in cls.methods:
                    return f"{module_name}.{outer}.{method}"
    # Re-exported through a package __init__: follow its import table.
    if target is not None and symbol:
        reexport = target.import_map().get(symbol)
        if reexport is not None and reexport != absolute:
            return _lookup_absolute(project, reexport)
    return None


def _method_table(project: Project) -> Dict[str, List[str]]:
    """method name -> qnames of every project method with that name."""
    table: Dict[str, List[str]] = {}
    for mir in project.modules:
        for cls in mir.classes:
            for method in cls.methods:
                table.setdefault(method, []).append(
                    f"{mir.module}.{cls.name}.{method}"
                )
    return table


def resolve_call(
    project: Project,
    mir: ModuleIR,
    fn: FuncIR,
    call: VCall,
    methods: Optional[Dict[str, List[str]]] = None,
) -> Optional[str]:
    """Resolve one call site to a project function qname, or None.

    A resolved class reference becomes its ``__init__`` when the class
    defines one.  ``self.m()`` resolves inside the enclosing class
    (walking spelled base classes defined in the project); other
    ``obj.m()`` spellings resolve only when ``m`` names exactly one
    method project-wide.
    """
    spelled = call.name
    if spelled is None:
        return None
    direct = resolve_name(project, mir, spelled)
    if direct is not None:
        qname = direct
        module_name, _, symbol = direct.rpartition(".")
        target = project.by_module.get(module_name)
        if target is not None:
            for cls in target.classes:
                if cls.name == symbol:
                    if "__init__" in cls.methods:
                        qname = f"{direct}.__init__"
                    break
        return qname
    if spelled.startswith("self.") and fn.class_name is not None:
        method = spelled[len("self.") :]
        if "." not in method:
            resolved = _resolve_self_method(
                project, mir, fn.class_name, method
            )
            if resolved is not None:
                return resolved
    if "." in spelled:
        method = spelled.rsplit(".", 1)[1]
        if methods is None:
            methods = _method_table(project)
        candidates = methods.get(method, [])
        if len(candidates) == 1:
            return candidates[0]
    return None


def _resolve_self_method(
    project: Project, mir: ModuleIR, class_name: str, method: str
) -> Optional[str]:
    """Find *method* on *class_name* or its spelled project bases."""
    seen: Set[Tuple[str, str]] = set()
    frontier: List[Tuple[ModuleIR, str]] = [(mir, class_name)]
    while frontier:
        cur_mir, cur_cls = frontier.pop()
        if (cur_mir.module, cur_cls) in seen:
            continue
        seen.add((cur_mir.module, cur_cls))
        for cls in cur_mir.classes:
            if cls.name != cur_cls:
                continue
            if method in cls.methods:
                return f"{cur_mir.module}.{cur_cls}.{method}"
            for base in cls.bases:
                resolved = resolve_name(project, cur_mir, base)
                if resolved is None:
                    continue
                base_module, _, base_cls = resolved.rpartition(".")
                base_mir = project.by_module.get(base_module)
                if base_mir is not None:
                    frontier.append((base_mir, base_cls))
    return None


def build_call_graph(project: Project) -> CallGraph:
    """Build (and memoise on the project) the full call graph."""
    cached = project.memo.get(_MEMO_KEY)
    if isinstance(cached, CallGraph):
        return cached
    graph = CallGraph()
    methods = _method_table(project)
    for mir in project.modules:
        for fn in mir.functions:
            for stmt in fn.body:
                value = getattr(stmt, "value", None)
                if value is None:
                    continue
                for call in iter_calls(value):
                    graph.add(
                        CallSite(
                            caller=fn.qname,
                            callee=resolve_call(
                                project, mir, fn, call, methods
                            ),
                            spelled=call.name,
                            line=call.line,
                            col=call.col,
                            call=call,
                        )
                    )
    project.memo[_MEMO_KEY] = graph
    return graph
