"""The trace-driven µDD execution engine.

CounterPoint's analysis layers *refute* a µDD against counter
observations; this module *executes* one. :class:`MuDDExecutor`
interprets a compiled :class:`repro.mudd.MuDD` edge-by-edge: each µop of
a workload trace is pushed through the diagram from START to END, every
``switch`` is resolved by a pluggable :mod:`oracle <repro.sim.oracles>`,
and COUNTER nodes accumulate into an observation vector. Running model A
over a trace and handing the totals to ``CounterPoint().analyze(B, ...)``
closes the loop: simulate with one model, refute another.

Execution follows the paper's traversal rule exactly (Section 3): a
property resolved earlier on the same µop's path is *not* re-asked — the
matching branch is followed — so each executed µop traces one genuine
µpath and contributes one counter signature. The totals of any run are
therefore a non-negative integer combination of the model's µpath
signatures, i.e. a point inside the generating model's cone by
construction (the counter-conservation invariant ``tests/test_sim.py``
checks).

The interpreter pre-lowers the µDD into dense integer tables
(:class:`CompiledMuDD`) so the per-µop walk touches only list indexing —
no dict-of-objects traversal on the hot path. It is the reference
semantics. :meth:`MuDDExecutor.run` takes one faster path when it can
prove it bit-for-bit equal: a samplable oracle (no device hooks) and a
µDD with a generated program (:mod:`repro.sim.codegen`) whose longest
path fits under ``max_steps``. ``tests/test_sim_equivalence.py`` fuzzes
that path against the interpreter.
"""

from repro.errors import SimulationError
from repro.mudd.graph import COUNTER, DECISION, END, EVENT, MuDD
from repro.sim.codegen import program_for
from repro.sim.engines import hooks_are_noops

# Node-kind opcodes of the lowered form.
_OP_FOLLOW = 0   # START / EVENT: unconditionally follow the single edge
_OP_COUNT = 1    # COUNTER: bump a counter slot, follow the single edge
_OP_SWITCH = 2   # DECISION: resolve the property, follow the branch
_OP_HALT = 3     # END


class CompiledMuDD:
    """A µDD lowered to flat tables for fast interpretation.

    Node ``i`` is described by ``ops[i]`` (opcode), ``slots[i]`` (counter
    index for ``_OP_COUNT``, property index for ``_OP_SWITCH``),
    ``nexts[i]`` (successor for non-decisions) and ``branches[i]``
    (``{value: successor}`` for decisions).
    """

    __slots__ = (
        "name",
        "counters",
        "properties",
        "ops",
        "slots",
        "nexts",
        "branches",
        "events",
        "start",
        "fingerprint",
    )

    def __init__(self, mudd, counters=None):
        if not isinstance(mudd, MuDD):
            raise SimulationError("CompiledMuDD expects a MuDD")
        mudd.validate()
        self.name = mudd.name
        self.counters = list(counters) if counters is not None else mudd.counters
        self.properties = mudd.properties
        counter_slot = {name: i for i, name in enumerate(self.counters)}
        property_slot = {name: i for i, name in enumerate(self.properties)}

        index = {node_id: i for i, node_id in enumerate(mudd.nodes)}
        n = len(index)
        self.ops = [_OP_FOLLOW] * n
        self.slots = [-1] * n
        self.nexts = [-1] * n
        self.branches = [None] * n
        self.events = [None] * n
        for node_id, node in mudd.nodes.items():
            i = index[node_id]
            out = mudd.out_edges(node_id)
            if node.kind == END:
                self.ops[i] = _OP_HALT
            elif node.kind == DECISION:
                self.ops[i] = _OP_SWITCH
                self.slots[i] = property_slot[node.label]
                self.branches[i] = {
                    edge.value: index[edge.target] for edge in out
                }
            else:
                if node.kind == COUNTER:
                    self.ops[i] = _OP_COUNT
                    # A counter outside the requested ordering is a
                    # modelling statement that it is not observed: count
                    # into a discard slot.
                    self.slots[i] = counter_slot.get(node.label, -1)
                elif node.kind == EVENT:
                    self.events[i] = node.label
                self.nexts[i] = index[out[0].target]
        self.start = index[mudd.start_node().node_id]
        # Content address of (structure, counter ordering) — the cache
        # key for generated simulator programs (repro.sim.codegen).
        from repro.cone.cache import mudd_fingerprint

        self.fingerprint = mudd_fingerprint(mudd, self.counters)

    def branch_values(self, node_index):
        """Branch labels of a decision node, in edge order.

        Edge order is load-bearing: samplers bound into generated
        programs dispatch on branch *indices* into this list, and the
        ``branches`` dicts preserve µDD edge insertion order across
        compile and pickle round-trips
        (``tests/test_sim_equivalence.py`` pins this).
        """
        return list(self.branches[node_index])


class MuDDExecutor:
    """Executes a µDD over µop streams, one µpath per µop.

    Parameters
    ----------
    mudd:
        The model to execute (a validated :class:`MuDD` or an already
        lowered :class:`CompiledMuDD`).
    counters:
        Counter ordering for the observation vector; defaults to the
        µDD's own counters. Counters the µDD never increments read 0 —
        matching :func:`repro.mudd.paths.signature_matrix` semantics.
    max_steps:
        Safety valve on nodes visited per µop (malformed oracles cannot
        loop because µDDs are acyclic, but a generous bound keeps the
        failure mode explicit). A bound below the µDD's longest path
        keeps :meth:`run` on the interpreter, so the valve trips with
        the same :class:`SimulationError` after the same oracle calls.
    """

    def __init__(self, mudd, counters=None, max_steps=100000):
        if isinstance(mudd, CompiledMuDD):
            self.compiled = mudd
            if counters is not None and list(counters) != mudd.counters:
                raise SimulationError(
                    "counters of a pre-compiled µDD cannot be re-ordered"
                )
        else:
            self.compiled = CompiledMuDD(mudd, counters=counters)
        self.max_steps = max_steps
        self.totals = [0] * len(self.compiled.counters)
        self.n_uops = 0

    def _fast_program(self, oracle):
        """The generated program :meth:`run` may use for ``oracle``, or
        ``None`` when the run must be interpreted: a hooked oracle, a
        tree over the expansion caps, or a step bound tighter than the
        longest path. The program is built on the first samplable run
        of its µDD (and memoized by fingerprint), so hooked runs never
        pay its compile cost."""
        if not hooks_are_noops(oracle):
            return None
        program = program_for(self.compiled)
        if program is None or program.max_path_len > self.max_steps:
            return None
        return program

    @property
    def counters(self):
        return list(self.compiled.counters)

    # -- single-µop execution ---------------------------------------------
    def run_uop(self, oracle, op=None):
        """Push one µop through the diagram; returns its assignments.

        ``op`` is handed to the oracle with every resolution request so
        stateful oracles (the MMU devices) know which access they are
        deciding for. Always interpreted: it is the reference walk.
        """
        compiled = self.compiled
        ops = compiled.ops
        totals = self.totals
        on_event = getattr(oracle, "on_event", None)
        assignments = {}
        node = compiled.start
        steps = 0
        while ops[node] != _OP_HALT:
            steps += 1
            if steps > self.max_steps:
                raise SimulationError(
                    "µop exceeded %d steps in %r" % (self.max_steps, compiled.name)
                )
            opcode = ops[node]
            if opcode == _OP_SWITCH:
                slot = compiled.slots[node]
                prop = compiled.properties[slot]
                branches = compiled.branches[node]
                value = assignments.get(prop)
                if value is None:
                    value = oracle.resolve(prop, list(branches), op)
                    assignments[prop] = value
                target = branches.get(value)
                if target is None:
                    raise SimulationError(
                        "oracle resolved %s=%r but %r offers branches %s"
                        % (prop, value, compiled.name, ", ".join(branches))
                    )
                node = target
            else:
                if opcode == _OP_COUNT:
                    slot = compiled.slots[node]
                    if slot >= 0:
                        totals[slot] += 1
                elif on_event is not None and compiled.events[node] is not None:
                    on_event(compiled.events[node], op)
                node = compiled.nexts[node]
        self.n_uops += 1
        return assignments

    # -- trace execution ----------------------------------------------------
    def _uop_stream(self, oracle, uops):
        """The trace µops interleaved with oracle-injected ones (e.g. the
        translation prefetches an MMU oracle's trigger detector emits)."""
        inject = getattr(oracle, "pending_uops", None)
        for op in uops:
            yield op
            if inject is not None:
                for extra in inject():
                    yield extra

    def run(self, oracle, uops):
        """Execute a µop stream; returns cumulative totals as a dict.

        ``uops`` is any iterable of µops — :meth:`Workload.ops
        <repro.workloads.base.Workload.ops>` output, a
        :class:`~repro.workloads.trace.TraceWorkload` replay, or plain
        ``None`` placeholders for oracles that ignore the µop. Runs the
        generated program when :meth:`_fast_program` allows it, else
        interprets µop by µop; the totals are identical either way.
        """
        program = self._fast_program(oracle)
        if program is not None:
            self.n_uops += program.run(
                oracle, uops, self.totals, model=self.compiled.name
            )
            return self.snapshot()
        begin = getattr(oracle, "begin_uop", None)
        for op in self._uop_stream(oracle, uops):
            if begin is not None:
                begin(op)
            self.run_uop(oracle, op)
        return self.snapshot()

    def run_intervals(self, oracle, uops, uops_per_interval):
        """Execute a stream and yield per-interval counter deltas — the
        perf-style time series the noise stage consumes.

        ``uops_per_interval`` is a positive int (fixed-size intervals) or
        an iterable of positive ints (a cycled schedule), mirroring
        :meth:`repro.mmu.core.MMUSimulator.run_intervals`.
        """
        if isinstance(uops_per_interval, int):
            if uops_per_interval <= 0:
                raise SimulationError("uops_per_interval must be positive")
            schedule = [uops_per_interval]
        else:
            schedule = [int(size) for size in uops_per_interval]
            if not schedule or any(size <= 0 for size in schedule):
                raise SimulationError("interval schedule must be positive ints")
        begin = getattr(oracle, "begin_uop", None)
        previous = list(self.totals)
        in_interval = 0
        slot = 0
        target = schedule[0]
        for op in self._uop_stream(oracle, uops):
            if begin is not None:
                begin(op)
            self.run_uop(oracle, op)
            in_interval += 1
            if in_interval == target:
                current = list(self.totals)
                yield {
                    name: current[i] - previous[i]
                    for i, name in enumerate(self.compiled.counters)
                }
                previous = current
                in_interval = 0
                slot += 1
                target = schedule[slot % len(schedule)]
        if in_interval:
            current = list(self.totals)
            yield {
                name: current[i] - previous[i]
                for i, name in enumerate(self.compiled.counters)
            }

    # -- results ---------------------------------------------------------------
    def snapshot(self):
        """Cumulative counter totals (counter name → count)."""
        return {
            name: self.totals[i] for i, name in enumerate(self.compiled.counters)
        }

    def reset(self):
        """Zero the accumulated totals (the compiled model is reused)."""
        self.totals = [0] * len(self.compiled.counters)
        self.n_uops = 0

    def __repr__(self):
        return "MuDDExecutor(%r, %d µops executed)" % (
            self.compiled.name,
            self.n_uops,
        )
