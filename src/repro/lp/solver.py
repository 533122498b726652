"""Backend dispatch for linear programs.

:func:`solve` is the entry point for every modelled program: region
feasibility, Farkas certificate LPs and violation supports. The default
backend is the exact rational simplex; pass ``backend="scipy"`` for the
HiGHS float backend. Point feasibility does not build a program on
either backend. On ``"exact"`` it is a float proposal plus an exact
certificate (:mod:`repro.lp.certified`), and it comes here, to the
Fraction simplex, only as the fallback.
"""

from repro.errors import LPError
from repro.obs.trace import get_tracer


class Status:
    """LP solve outcomes."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class SolveResult:
    """Outcome of an LP solve.

    Attributes
    ----------
    status:
        One of the :class:`Status` constants.
    assignment:
        Mapping of variable name to value when optimal, else ``None``.
    objective:
        Objective value when optimal, else ``None``. Zero for pure
        feasibility problems with no objective set.
    """

    __slots__ = ("status", "assignment", "objective")

    def __init__(self, status, assignment, objective):
        self.status = status
        self.assignment = assignment
        self.objective = objective

    @property
    def is_feasible(self):
        return self.status == Status.OPTIMAL

    def __repr__(self):
        return "SolveResult(status=%r, objective=%r)" % (self.status, self.objective)


def solve(program, backend="exact"):
    """Solve ``program`` with the chosen backend.

    Parameters
    ----------
    program:
        A :class:`repro.lp.problem.LinearProgram`.
    backend:
        ``"exact"`` (rational simplex, default) or ``"scipy"`` (HiGHS).
    """
    tracer = get_tracer()
    with tracer.span(
        "lp.solve", backend=backend,
        variables=len(program.variables),
        constraints=len(program.constraints),
    ) as span:
        if backend == "exact":
            from repro.lp.simplex import solve_exact

            status, assignment, objective = solve_exact(program)
        elif backend == "scipy":
            from repro.lp.scipy_backend import solve_scipy

            status, assignment, objective = solve_scipy(program)
        else:
            raise LPError("unknown LP backend %r" % (backend,))
        span.set(status=status)
        if tracer.enabled:
            tracer.metrics.histogram("lp.solve_seconds").observe(
                span.duration
            )
    return SolveResult(status, assignment, objective)
