"""The decision skeleton behind the generated simulator programs.

The interpreter in :mod:`repro.sim.executor` walks a µDD node-by-node
per µop — correct, but every FOLLOW/COUNT hop costs a Python loop
iteration. :class:`Skeleton` lowers the compiled tables once more:
runs of non-decision nodes between decisions are compressed into
macro-edges carrying a counter-delta row and a step count, so a path is
a sequence of decision-to-decision hops. :mod:`repro.sim.codegen`
expands the skeleton into a decision tree and emits one Python program
per µDD from it.

The generated program replaces ``oracle.resolve`` with per-decision
sampler closures (:func:`sampler_for`), so it only runs for oracles
whose device hooks are inert (:func:`hooks_are_noops`); hooked oracles
such as :class:`~repro.sim.oracles.MMUOracle` always take the
interpreter.
"""

from repro.sim.oracles import Oracle


def hooks_are_noops(oracle):
    """Whether an oracle's device hooks are provably inert, making it
    *samplable*: ``begin_uop``/``pending_uops`` are the base no-ops (or
    absent) and there is no ``on_event``. Resolution statefulness is
    fine — the generated program preserves the per-µop, path-order call
    sequence —
    but a hooked oracle (e.g. :class:`~repro.sim.oracles.MMUOracle`)
    must take the interpreter so its bookkeeping runs."""
    cls = type(oracle)
    begin = getattr(cls, "begin_uop", None)
    if begin is not None and begin is not Oracle.begin_uop:
        return False
    pending = getattr(cls, "pending_uops", None)
    if pending is not None and pending is not Oracle.pending_uops:
        return False
    if getattr(oracle, "on_event", None) is not None:
        return False
    instance = getattr(oracle, "__dict__", None)
    if instance and ("begin_uop" in instance or "pending_uops" in instance):
        return False
    return True


def sampler_for(oracle, prop, values, model="µDD"):
    """A branch-index sampler for one decision, honouring the oracle's
    own :meth:`compile_sampler` when it has one (duck-typed oracles get
    the generic resolve-and-map wrapper)."""
    compile_sampler = getattr(oracle, "compile_sampler", None)
    if compile_sampler is not None:
        return compile_sampler(prop, values, model=model)
    return Oracle.compile_sampler(oracle, prop, values, model=model)


class _MacroEdge:
    """One compressed run of non-decision nodes.

    ``steps`` counts every node the interpreter would visit on this run
    (including the terminal decision, excluding END), ``deltas`` the
    observed-counter increments, and ``terminal`` the decision node
    index (``-1`` = END).
    """

    __slots__ = ("eid", "steps", "deltas", "terminal")

    def __init__(self, eid, steps, deltas, terminal):
        self.eid = eid
        self.steps = steps
        self.deltas = deltas
        self.terminal = terminal


class Skeleton:
    """The decision-skeleton lowering of a :class:`CompiledMuDD`.

    Attributes
    ----------
    start_edge:
        Macro-edge from the START node.
    props / values / branch_edges:
        Per decision-node index: property name, branch labels in edge
        order, and ``{label: macro-edge}`` in the same order.
    max_path_len:
        Longest START→END path in interpreter steps; a run whose
        ``max_steps`` bound is at least this can never trip the valve.
    """

    __slots__ = (
        "compiled", "edges", "start_edge", "props", "values",
        "branch_edges", "max_path_len",
    )

    def __init__(self, compiled):
        self.compiled = compiled
        n_counters = len(compiled.counters)
        self.edges = []
        self.props = {}
        self.values = {}
        self.branch_edges = {}
        edge_for = {}

        pending = [compiled.start]
        while pending:
            anchor = pending.pop()
            if anchor in edge_for:
                continue
            edge = self._lower(compiled, anchor, n_counters)
            edge_for[anchor] = edge
            terminal = edge.terminal
            if terminal >= 0 and terminal not in self.props:
                slot = compiled.slots[terminal]
                self.props[terminal] = compiled.properties[slot]
                branches = compiled.branches[terminal]
                self.values[terminal] = tuple(branches)
                pending.extend(branches.values())
        for terminal in self.props:
            branches = compiled.branches[terminal]
            self.branch_edges[terminal] = {
                label: edge_for[target] for label, target in branches.items()
            }
        self.start_edge = edge_for[compiled.start]
        self.max_path_len = self._longest_path()

    def _lower(self, compiled, anchor, n_counters):
        ops = compiled.ops
        deltas = [0] * n_counters
        steps = 0
        node = anchor
        while True:
            opcode = ops[node]
            if opcode == 3:          # _OP_HALT
                terminal = -1
                break
            steps += 1
            if opcode == 2:          # _OP_SWITCH
                terminal = node
                break
            if opcode == 1:          # _OP_COUNT
                slot = compiled.slots[node]
                if slot >= 0:
                    deltas[slot] += 1
            node = compiled.nexts[node]
        edge = _MacroEdge(len(self.edges), steps, deltas, terminal)
        self.edges.append(edge)
        return edge

    def _longest_path(self):
        """Longest START→END walk in interpreter steps (iterative
        post-order over the acyclic skeleton)."""
        memo = {}
        stack = [(self.start_edge, False)]
        while stack:
            edge, expanded = stack.pop()
            if edge.eid in memo:
                continue
            successors = (
                self.branch_edges[edge.terminal].values()
                if edge.terminal >= 0 else ()
            )
            if expanded:
                tail = max(
                    (memo[nxt.eid] for nxt in successors), default=0
                )
                memo[edge.eid] = edge.steps + tail
                continue
            stack.append((edge, True))
            for nxt in successors:
                if nxt.eid not in memo:
                    stack.append((nxt, False))
        return memo[self.start_edge.eid]


__all__ = [
    "Skeleton",
    "hooks_are_noops",
    "sampler_for",
]
