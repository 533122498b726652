"""Generated simulator programs: specialised Python source per µDD.

:class:`~repro.sim.executor.MuDDExecutor` runs a µop stream through
one of these programs whenever the oracle is samplable: the µDD's
*decision tree* — the :class:`~repro.sim.engines.Skeleton` expanded
under the traversal rule, so a property resolved earlier on a path is
statically followed, never re-asked — is unrolled into one generated
``run_trace`` function: nested ``if``/``elif`` branch dispatch on
sampler-returned indices, one leaf bucket increment per µop, no
per-edge dict lookups. Leaf buckets fold into the counter totals with
one ``counts @ leaf_deltas`` multiply at the end of the run.

Generated programs are memoised in-process by the µDD fingerprint
(:func:`repro.cone.cache.mudd_fingerprint` over the µDD plus counter
ordering). They are never persisted: regenerating one costs a fraction
of a millisecond per bundled model, about what reading it back would,
and only source generated in this process is ever compiled.

A µDD whose tree exceeds the expansion caps has no program; the
executor interprets it instead.
"""

import numpy as np

from repro.errors import SimulationError
from repro.sim.engines import Skeleton, sampler_for

#: Expansion caps: beyond these the unrolled tree stops paying for
#: itself (and deep nesting strains the Python parser), so the executor
#: interprets the µDD instead.
MAX_TREE_NODES = 20000
MAX_TREE_DEPTH = 60

_DISPATCH_ERROR = (
    "oracle resolved %s=%r but %r offers branches %s"
)


class _TreeProgram:
    """One generated simulator: its ``bind`` function, the leaf delta
    table, and what the executor checks before running it.

    ``decisions`` lists ``(node, property, branch labels)`` for every
    decision the tree samples, and ``max_path_len`` is the longest
    START→END walk in interpreter steps: a run whose ``max_steps`` bound
    is below it must be interpreted, so the valve trips exactly where
    the interpreter's does.
    """

    __slots__ = ("leaf_deltas", "errors", "decisions", "max_path_len", "_bind")

    def __init__(self, source, leaf_deltas, errors, decisions, max_path_len):
        self.leaf_deltas = np.asarray(leaf_deltas, dtype=np.int64)
        self.errors = list(errors)
        self.decisions = list(decisions)
        self.max_path_len = max_path_len
        namespace = {"SimulationError": SimulationError}
        exec(compile(source, "<repro-codegen>", "exec"), namespace)
        self._bind = namespace["bind"]

    def run(self, oracle, uops, totals, model="µDD"):
        """Execute ``uops`` with ``oracle``'s samplers and add the
        counter deltas into the ``totals`` list; returns the number of
        µops completed. Completed µops are counted even when a sampler
        or dispatch error stops the run."""
        samplers = {
            node: sampler_for(oracle, prop, values, model=model)
            for node, prop, values in self.decisions
        }
        counts = [0] * len(self.leaf_deltas)
        try:
            self._bind(samplers, counts, self.errors)(uops)
        finally:
            n = sum(counts)
            if n:
                pending = np.asarray(counts, dtype=np.int64) @ self.leaf_deltas
                for index, value in enumerate(pending.tolist()):
                    totals[index] += value
        return n


def _build_tree(skeleton):
    """Expand the skeleton into the decision tree, or ``None`` when the
    expansion caps are exceeded.

    Returns ``(root, leaf_deltas, errors)``. Tree nodes are
    ``("leaf", leaf_id)``, ``("raise", error_id)``, or
    ``("dec", decision_node, [children in edge order])``. Repeated
    properties are resolved statically: an already-assigned decision
    contributes no child fan-out (and no sampler call), exactly the
    interpreter's traversal rule.
    """
    n_counters = len(skeleton.compiled.counters)
    leaf_deltas = []
    errors = []
    budget = [MAX_TREE_NODES]

    def expand(edge, assignments, deltas, depth):
        if depth > MAX_TREE_DEPTH:
            return None
        budget[0] -= 1
        if budget[0] < 0:
            return None
        deltas = [
            deltas[i] + edge.deltas[i] for i in range(n_counters)
        ]
        terminal = edge.terminal
        while terminal >= 0:
            prop = skeleton.props[terminal]
            assigned = assignments.get(prop)
            if assigned is None:
                break
            # Statically follow the earlier assignment; a label the
            # decision does not offer raises at runtime, like the
            # interpreter's dispatch error.
            nxt = skeleton.branch_edges[terminal].get(assigned)
            if nxt is None:
                errors.append(
                    _DISPATCH_ERROR
                    % (prop, assigned, skeleton.compiled.name,
                       ", ".join(skeleton.values[terminal]))
                )
                return ("raise", len(errors) - 1)
            budget[0] -= 1
            if budget[0] < 0:
                return None
            deltas = [
                deltas[i] + nxt.deltas[i] for i in range(n_counters)
            ]
            terminal = nxt.terminal
        if terminal < 0:
            leaf_deltas.append(deltas)
            return ("leaf", len(leaf_deltas) - 1)
        children = []
        for label in skeleton.values[terminal]:
            branch_assignments = dict(assignments)
            branch_assignments[prop] = label
            child = expand(
                skeleton.branch_edges[terminal][label],
                branch_assignments, deltas, depth + 1,
            )
            if child is None:
                return None
            children.append(child)
        return ("dec", terminal, children)

    root = expand(skeleton.start_edge, {}, [0] * n_counters, 0)
    if root is None:
        return None
    return root, leaf_deltas, errors


def _emit_source(root, decisions):
    """Generated module source for a decision tree.

    The module defines ``bind(samplers, counts, errors)`` returning
    ``run_trace(uops)``: one sampler call per fresh decision on the
    path, integer branch dispatch, one leaf bucket bump per µop.
    """
    lines = ["def bind(samplers, counts, errors):"]
    lines.append("    def run_trace(uops):")
    # Locals, not closure cells, inside the hot loop.
    for node in decisions:
        lines.append("        _s%d = samplers[%d]" % (node, node))
    lines.append("        _counts = counts")
    lines.append("        for _op in uops:")

    def emit(node, indent):
        pad = "    " * indent
        kind = node[0]
        if kind == "leaf":
            lines.append("%s_counts[%d] += 1" % (pad, node[1]))
            return
        if kind == "raise":
            lines.append(
                "%sraise SimulationError(errors[%d])" % (pad, node[1])
            )
            return
        _, decision, children = node
        lines.append("%s_b = _s%d(_op)" % (pad, decision))
        if len(children) == 1:
            emit(children[0], indent)
            return
        for branch, child in enumerate(children):
            if branch == 0:
                lines.append("%sif _b == 0:" % pad)
            elif branch < len(children) - 1:
                lines.append("%selif _b == %d:" % (pad, branch))
            else:
                lines.append("%selse:" % pad)
            emit(child, indent + 1)

    emit(root, 3)
    lines.append("    return run_trace")
    return "\n".join(lines) + "\n"


def _tree_decisions(root):
    """Decision node ids a tree actually samples, in first-use order."""
    seen = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node[0] != "dec":
            continue
        if node[1] not in seen:
            seen.append(node[1])
        stack.extend(reversed(node[2]))
    return seen


#: In-process memo of compiled programs, keyed by µDD fingerprint.
#: ``False`` marks a µDD whose tree exceeded the expansion caps.
_PROGRAM_MEMO = {}
_PROGRAM_MEMO_CAP = 256


def program_for(compiled):
    """The generated program for a :class:`~repro.sim.executor.
    CompiledMuDD`, through the memo; ``None`` when its decision tree
    exceeds the expansion caps. A memo miss lowers the µDD to its
    skeleton and emits the program under a ``sim.compile`` span."""
    fingerprint = compiled.fingerprint
    cached = _PROGRAM_MEMO.get(fingerprint)
    if cached is not None:
        return cached or None
    from repro.obs.trace import get_tracer

    with get_tracer().span("sim.compile", model=compiled.name):
        skeleton = Skeleton(compiled)
        built = _build_tree(skeleton)
        if built is None:
            _memoize(fingerprint, False)
            return None
        root, leaf_deltas, errors = built
        decisions = _tree_decisions(root)
        source = _emit_source(root, decisions)
        program = _TreeProgram(
            source, leaf_deltas, errors,
            [(node, skeleton.props[node], skeleton.values[node])
             for node in decisions],
            skeleton.max_path_len,
        )
    _memoize(fingerprint, program)
    return program


def _memoize(fingerprint, program):
    if len(_PROGRAM_MEMO) >= _PROGRAM_MEMO_CAP:
        _PROGRAM_MEMO.pop(next(iter(_PROGRAM_MEMO)))
    _PROGRAM_MEMO[fingerprint] = program


__all__ = ["program_for"]
