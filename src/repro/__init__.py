"""CounterPoint: testing microarchitectural models against HEC data.

A reproduction of *CounterPoint: Using Hardware Event Counters to Refute
and Refine Microarchitectural Assumptions* (ASPLOS 2026). See DESIGN.md
for the system inventory and the paper-to-module map.

Quick start::

    from repro import CounterPoint

    MODEL = '''
    incr load.causes_walk;
    do LookupPde$;
    switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
    done;
    '''
    report = CounterPoint().analyze(
        MODEL, {"load.causes_walk": 5, "load.pde$_miss": 12}
    )
    print(report.summary())   # INFEASIBLE: pde$_miss <= causes_walk violated

The pipeline also runs in reverse — :mod:`repro.sim` *executes* µDDs to
generate synthetic counter observations, closing the loop::

    counterpoint = CounterPoint()
    observation = counterpoint.simulate(
        "merging_load_side",                      # a bundled model
        weights={"Merged": {"Yes": 3.0, "No": 1.0}},
    )
    report = counterpoint.analyze(
        CounterPoint().model_cone(...),           # any candidate model
        observation.point(),
    )

or from the shell: ``python -m repro simulate --bundled
merging_load_side --weight Merged=Yes:3 --analyze no_merging_load_side``
(exit status 1 = the candidate was refuted by the simulated data).
"""

from repro.pipeline import CounterPoint
from repro.cone import ModelCone
from repro.dsl import compile_dsl
from repro.mudd import MuDD
from repro.obs import MetricsRegistry, Tracer, activate, get_tracer, traced
from repro.parallel import ParallelRunner
from repro.plan import Plan, PlanEngine, PlanResult
from repro.results import (
    AnalysisReport,
    AnalysisSession,
    ArtifactStore,
    ClaimTable,
    CompareResult,
    ModelSweep,
    RefutationMatrix,
    result_from_dict,
    result_from_json,
)
from repro.serve import (
    PlanService,
    QueueScheduler,
    ServeClient,
    ServeDaemon,
)
from repro.sim import (
    MMUOracle,
    MuDDExecutor,
    RandomOracle,
    batch_simulate,
    closed_loop,
    simulate_observation,
)
from repro.stats import ConfidenceRegion, PointRegion

__version__ = "1.5.0"

__all__ = [
    "AnalysisReport",
    "AnalysisSession",
    "ArtifactStore",
    "ClaimTable",
    "CompareResult",
    "ConfidenceRegion",
    "CounterPoint",
    "MMUOracle",
    "MetricsRegistry",
    "ModelCone",
    "ModelSweep",
    "MuDD",
    "MuDDExecutor",
    "ParallelRunner",
    "Plan",
    "PlanEngine",
    "PlanResult",
    "PlanService",
    "PointRegion",
    "QueueScheduler",
    "RandomOracle",
    "RefutationMatrix",
    "ServeClient",
    "ServeDaemon",
    "Tracer",
    "activate",
    "batch_simulate",
    "closed_loop",
    "compile_dsl",
    "get_tracer",
    "result_from_dict",
    "result_from_json",
    "simulate_observation",
    "traced",
    "__version__",
]
