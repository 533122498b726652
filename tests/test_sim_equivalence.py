"""Differential fuzzing: the generated program equals the interpreter.

The per-µop interpreter loop (:meth:`MuDDExecutor.run_uop` once per
µop) is the reference semantics. :meth:`MuDDExecutor.run` takes the
generated program (:mod:`repro.sim.codegen`) for samplable oracles and
must reproduce the reference exactly — same counter totals, same µop
counts, same RNG consumption, same error messages — and interprets
everything else (hooked oracles, tight step bounds). These sweeps
drive both over hundreds of seeded random µDDs (``tests/sim_fuzz.py``)
and a zoo of oracles, and check that the generated program really ran
wherever it was available: a selection bug that always interpreted
would otherwise compare the interpreter against itself.

``SIM_EQUIV_SEED`` (CI rotates it daily) offsets every sweep's seed
range, so the suite explores new models over time while any failure
stays reproducible from the seed in the assertion message.
"""

import os
import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.models.bundled import bundled_model_names, load_bundled_model
from repro.models.features import M_SERIES
from repro.models.haswell import build_haswell_mudd
from repro.mudd.graph import COUNTER, DECISION, END, START, MuDD
from repro.sim import (
    CompiledMuDD,
    MuDDExecutor,
    RandomOracle,
    TableOracle,
    batch_simulate,
    path_distribution,
)
from repro.sim import codegen
from repro.sim import executor as executor_module
from sim_fuzz import (
    constant_table,
    observed_counters,
    random_mudd,
    random_weights,
)

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))


@pytest.fixture
def program_runs(monkeypatch):
    """Records every generated-program run, so a check can assert the
    fast path actually executed (or was actually skipped)."""
    runs = []
    real = codegen._TreeProgram.run

    def spy(self, *args, **kwargs):
        runs.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(codegen._TreeProgram, "run", spy)
    return runs


def _program_available(mudd, counters=None, max_steps=100000):
    """Whether ``run()`` is expected to take the generated program for
    a samplable oracle."""
    program = codegen.program_for(CompiledMuDD(mudd, counters=counters))
    return program is not None and program.max_path_len <= max_steps


def _reference(mudd, oracle, uops, counters=None, max_steps=100000):
    """The per-µop interpreter loop: ``(totals, n_uops)``."""
    executor = MuDDExecutor(mudd, counters=counters, max_steps=max_steps)
    for op in uops:
        executor.run_uop(oracle, op)
    return executor.snapshot(), executor.n_uops


def _default(mudd, oracle, uops, counters=None, max_steps=100000):
    """The default ``run()``: ``(totals, n_uops)``."""
    executor = MuDDExecutor(mudd, counters=counters, max_steps=max_steps)
    totals = executor.run(oracle, uops)
    return totals, executor.n_uops


def test_differential_fuzz_totals(program_runs):
    """≥200 random µDDs: totals and µop counts agree, and the generated
    program ran on every seed whose tree is available."""
    available = 0
    for case in range(200):
        seed = BASE_SEED + case
        mudd = random_mudd(seed)
        weights = random_weights(seed, mudd)
        counters = observed_counters(seed, mudd) if case % 3 == 0 else None
        reference = _reference(
            mudd, RandomOracle(seed=seed, weights=weights), range(40),
            counters=counters,
        )
        del program_runs[:]
        result = _default(
            mudd, RandomOracle(seed=seed, weights=weights), range(40),
            counters=counters,
        )
        assert result == reference, (seed, result, reference)
        expected = _program_available(mudd, counters=counters)
        assert len(program_runs) == int(expected), (seed, expected)
        available += expected
    assert available >= 150, available


class _RecordingOracle(RandomOracle):
    """A random oracle that also records fired events (its ``on_event``
    hook makes it hooked, so ``run()`` must interpret)."""

    def __init__(self, seed=0, weights=None):
        RandomOracle.__init__(self, seed=seed, weights=weights)
        self.events = []

    def on_event(self, label, op):
        self.events.append((label, op))


def test_differential_fuzz_event_streams(program_runs, monkeypatch):
    """Hooked runs interpret: event hooks fire identically (label, µop,
    order), and no program is built or run for them."""
    compiles = []
    monkeypatch.setattr(
        executor_module, "program_for",
        lambda compiled: compiles.append(compiled),
    )
    fired_any = 0
    for case in range(60):
        seed = BASE_SEED + 2000 + case
        mudd = random_mudd(seed, p_event=0.4)
        weights = random_weights(seed, mudd)
        reference = _RecordingOracle(seed=seed, weights=weights)
        ref_result = _reference(mudd, reference, range(30))
        fired_any += bool(reference.events)
        oracle = _RecordingOracle(seed=seed, weights=weights)
        assert _default(mudd, oracle, range(30)) == ref_result, seed
        assert oracle.events == reference.events, seed
    assert fired_any > 10  # the sweep actually exercised event nodes
    assert program_runs == [] and compiles == []


def test_differential_fuzz_table_oracles(program_runs):
    """Scripted oracles: constants, callables, and fallback chains."""
    available = 0
    for case in range(60):
        seed = BASE_SEED + 3000 + case
        mudd = random_mudd(seed, full_domains=True)
        table = constant_table(seed, mudd)
        if case % 2:
            # Scripted per-µop behaviour: replace one constant with a
            # callable picking branches by µop index.
            for prop in sorted(table):
                table[prop] = lambda op, values: sorted(values)[
                    op % len(values)
                ]
                break

        def build():
            return TableOracle(dict(table), fallback=RandomOracle(seed=seed))

        reference = _reference(mudd, build(), range(30))
        del program_runs[:]
        assert _default(mudd, build(), range(30)) == reference, seed
        expected = _program_available(mudd)
        assert len(program_runs) == int(expected), (seed, expected)
        available += expected
    assert available >= 45, available


def test_batched_multinomial_matches_per_trace_loop():
    """One ``multinomial(size=T)`` call equals T sequential draws, so
    ``batch_simulate`` totals are loop-equivalent."""
    for case in range(6):
        seed = BASE_SEED + 4000 + case
        mudd = random_mudd(seed)
        weights = random_weights(seed, mudd)
        names, signatures, probabilities = path_distribution(
            mudd, weights=weights
        )
        rng = np.random.default_rng(seed)
        expected = rng.multinomial(500, probabilities, size=4) @ signatures
        result = batch_simulate(
            mudd, 500, n_traces=4, weights=weights, seed=seed,
        )
        assert result.counters == names
        assert np.array_equal(result.totals, expected), seed
        loop_rng = np.random.default_rng(seed)
        looped = np.stack([
            loop_rng.multinomial(500, probabilities) @ signatures
            for _ in range(4)
        ])
        assert np.array_equal(looped, expected), seed


def _chain_mudd(length):
    """START → COUNTER×length → DECISION → END: every µop walks more
    than ``length`` non-HALT nodes."""
    mudd = MuDD("chain-%d" % length)
    node = mudd.add_node(START)
    for step in range(length):
        counter = mudd.add_node(COUNTER, "ctr.step")
        mudd.add_edge(node, counter)
        node = counter
    decision = mudd.add_node(DECISION, "Hit")
    mudd.add_edge(node, decision)
    for value in ("Yes", "No"):
        mudd.add_edge(decision, mudd.add_node(END), value=value)
    return mudd


def _outcome(run):
    try:
        return ("ok", run())
    except SimulationError as error:
        return ("raise", str(error))


def test_max_steps_valve_identical_across_backends(program_runs):
    """A bound below the longest path keeps ``run()`` on the
    interpreter, so the runaway-walk valve trips with the reference
    loop's exact message; a generous bound takes the program."""
    mudd = _chain_mudd(6)
    reference = _outcome(
        lambda: _reference(mudd, RandomOracle(seed=1), range(3), max_steps=4)
    )
    default = _outcome(
        lambda: _default(mudd, RandomOracle(seed=1), range(3), max_steps=4)
    )
    assert default == reference
    assert reference[0] == "raise" and "exceeded 4 steps" in reference[1]
    assert program_runs == []
    # A generous valve never trips.
    totals, n_uops = _default(
        mudd, RandomOracle(seed=1), range(3), max_steps=100
    )
    assert totals["ctr.step"] == 18 and n_uops == 3
    assert len(program_runs) == 1


def test_max_steps_valve_on_fuzz_models(program_runs):
    """``run()`` and the reference loop agree on *whether* the valve
    trips, and on the message when it does, across random models with a
    tight budget (including bounds below the longest path)."""
    tripped = 0
    for case in range(40):
        seed = BASE_SEED + 5000 + case
        mudd = random_mudd(seed, max_depth=8, p_end=0.05)
        reference = _outcome(lambda: _reference(
            mudd, RandomOracle(seed=seed), range(10), max_steps=3
        ))
        del program_runs[:]
        default = _outcome(lambda: _default(
            mudd, RandomOracle(seed=seed), range(10), max_steps=3
        ))
        assert default == reference, seed
        expected = _program_available(mudd, max_steps=3)
        assert len(program_runs) == int(expected), (seed, expected)
        tripped += reference[0] == "raise"
    assert tripped > 5  # the sweep actually exercised the valve


def test_branch_values_edge_order_is_stable(program_runs):
    """``CompiledMuDD.branch_values`` preserves µDD edge insertion order
    — the contract sampler dispatch indices rely on — across repeated
    compiles and pickle round-trips."""
    mudd = MuDD("branch-order")
    start = mudd.add_node(START)
    decision = mudd.add_node(DECISION, "Level")
    mudd.add_edge(start, decision)
    for value in ("Mem", "L1", "L2"):     # deliberately unsorted
        counter = mudd.add_node(COUNTER, "ctr.%s" % value)
        mudd.add_edge(decision, counter, value=value)
        mudd.add_edge(counter, mudd.add_node(END))

    def decision_orders(compiled):
        return [
            compiled.branch_values(node)
            for node in range(len(compiled.ops))
            if compiled.branches[node]
        ]

    compiled = CompiledMuDD(mudd)
    assert decision_orders(compiled) == [["Mem", "L1", "L2"]]
    assert decision_orders(CompiledMuDD(mudd)) == decision_orders(compiled)
    clone = pickle.loads(pickle.dumps(compiled))
    assert decision_orders(clone) == decision_orders(compiled)
    assert clone.fingerprint == compiled.fingerprint
    # And the executor runs the round-tripped compile through the
    # generated program with the reference loop's totals.
    reference = _reference(compiled, RandomOracle(seed=3), range(50))
    del program_runs[:]
    assert _default(clone, RandomOracle(seed=3), range(50)) == reference
    assert len(program_runs) == 1


def test_every_shipped_model_has_a_program():
    """m0–m11 and every bundled DSL model stay under the expansion
    caps, so samplable runs of them never fall back to interpreting."""
    models = [
        build_haswell_mudd(M_SERIES[name], name=name) for name in M_SERIES
    ] + [load_bundled_model(name) for name in bundled_model_names()]
    assert len(models) >= 18
    for mudd in models:
        assert _program_available(mudd), mudd.name
