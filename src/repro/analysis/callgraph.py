"""Call graph construction and SCC condensation.

The MOD/REF analyzer (paper section 4) computes function tag sets by
"identifying the strongly-connected components of the call graph and
calculating the tag set of each SCC ... processing the SCCs in reverse
topological order".  This module provides exactly that machinery.

Indirect calls are conservatively assumed to target any *addressed*
function (a function whose address is taken), matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.instructions import Call
from ..ir.module import Module


@dataclass
class CallGraph:
    """Static call graph of a module.

    ``callees[f]`` lists the functions ``f`` may call that are defined in
    the module; calls to external/intrinsic names are recorded separately
    in ``external_callees``.
    """

    callees: dict[str, set[str]] = field(default_factory=dict)
    callers: dict[str, set[str]] = field(default_factory=dict)
    external_callees: dict[str, set[str]] = field(default_factory=dict)
    #: functions containing at least one indirect call
    has_indirect_call: set[str] = field(default_factory=set)

    def functions(self) -> list[str]:
        return list(self.callees)


def build_call_graph(module: Module) -> CallGraph:
    graph = CallGraph()
    defined = set(module.functions)

    for func in module.functions.values():
        graph.callees.setdefault(func.name, set())
        graph.callers.setdefault(func.name, set())
        graph.external_callees.setdefault(func.name, set())

    for func in module.functions.values():
        for instr in func.instructions():
            if not isinstance(instr, Call):
                continue
            if instr.is_indirect():
                # no function's address is ever taken: no target to add
                graph.has_indirect_call.add(func.name)
                continue
            callee = instr.callee
            assert callee is not None
            if callee in defined:
                graph.callees[func.name].add(callee)
            else:
                graph.external_callees[func.name].add(callee)

    for caller, callees in graph.callees.items():
        for callee in callees:
            graph.callers[callee].add(caller)
    return graph


@dataclass
class SCCInfo:
    """Strongly connected components of the call graph.

    ``components`` is in *reverse topological order*: every function a
    component calls lives in an earlier component (or the component
    itself).  Processing components in list order therefore sees callees
    before callers — the order the MOD/REF analyzer needs.
    """

    components: list[list[str]]
    component_of: dict[str, int]

    def is_recursive(self, name: str) -> bool:
        """Is ``name`` part of a call cycle (including self-recursion)?"""
        comp = self.components[self.component_of[name]]
        return len(comp) > 1 or name in self._self_loops

    _self_loops: set[str] = field(default_factory=set)


def condense_sccs(graph: CallGraph) -> SCCInfo:
    """Tarjan's SCC algorithm, iterative, emitting components in reverse
    topological order (Tarjan emits them exactly that way)."""
    index_counter = 0
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    component_of: dict[str, int] = {}

    nodes = sorted(graph.callees)

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, list[str], int]] = [
            (root, sorted(graph.callees[root]), 0)
        ]
        index[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs, child_idx = work[-1]
            advanced = False
            for idx in range(child_idx, len(succs)):
                succ = succs[idx]
                work[-1] = (node, succs, idx + 1)
                if succ not in index:
                    index[succ] = lowlink[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(graph.callees[succ]), 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                comp_id = len(components)
                components.append(component)
                for member in component:
                    component_of[member] = comp_id

    self_loops = {
        name for name, callees in graph.callees.items() if name in callees
    }
    return SCCInfo(
        components=components,
        component_of=component_of,
        _self_loops=self_loops,
    )
