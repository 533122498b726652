"""Output checks: a round whose outputs check wrong is a failure, never
a timing. Every function returns a list of problem strings (empty when
the outputs are right); nothing here uses ``assert``, so the checks
survive ``python -O``.
"""

M_ORDER = ["m%d" % index for index in range(12)]
T_ORDER = ["t%d" % index for index in range(18)]

#: Table 5: speculative triggers and retired-only pre-TLB triggers
#: explain every observation; the rest are refuted.
T_FEASIBLE = {"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t12", "t15"}


def table3_problems(sweeps):
    """The Table 3 pattern over the m-series sweeps."""
    counts = {name: sweeps[name].n_infeasible for name in M_ORDER}
    problems = []

    def need(condition, text):
        if not condition:
            problems.append("table3: %s (counts %s)" % (text, counts))

    need(counts["m4"] == 0 and counts["m8"] == 0, "m4 and m8 must be feasible")
    need(
        counts["m0"] >= counts["m1"] > counts["m2"] >= counts["m3"] > counts["m4"],
        "discovery m0 -> m4 must strictly improve",
    )
    need(0 < counts["m5"] <= 6, "dropping prefetching refutes 1..6 observations")
    need(counts["m7"] > counts["m6"] > counts["m5"], "merging > early PSC > prefetching")
    need(
        counts["m9"] == counts["m5"] and counts["m10"] == counts["m6"]
        and counts["m11"] == counts["m7"],
        "PML4E-cache-free twins match their pairs",
    )
    need(
        all(name.startswith("lin4k") for name in sweeps["m5"].infeasible_names),
        "only linear microbenchmarks refute m5",
    )
    return problems


def table5_problems(sweeps):
    """The Table 5 pattern over the t-series sweeps."""
    feasible = {name for name in T_ORDER if sweeps[name].feasible}
    refuters = {
        observation
        for name in T_ORDER
        for observation in sweeps[name].infeasible_names
    }
    problems = []
    if feasible != T_FEASIBLE:
        problems.append("table5: feasible triggers %s, expected %s"
                        % (sorted(feasible), sorted(T_FEASIBLE)))
    if not refuters or not all(name.startswith("lin4k") for name in refuters):
        problems.append("table5: refuters must be linear microbenchmarks, got %s"
                        % sorted(refuters))
    return problems


def evidence_problems(sweeps):
    """Every infeasible cell carries a violated constraint."""
    return [
        "%s: infeasible %s carries no violation" % (model, observation)
        for model, sweep in sorted(sweeps.items())
        for observation in sweep.infeasible_names
        if sweep.why.get(observation) is None
    ]


def bundle(result):
    """A plan result's op results as canonical JSON: the bundle the
    serve daemon returns, byte-identical for identical work."""
    from repro.plan.engine import PlanResult

    return PlanResult(dict(result.items())).to_json(indent=2)


def matrix_verdicts(matrix):
    """``{observed: {candidate: [infeasible observation names]}}``."""
    return {
        row: {column: list(matrix[row][column].infeasible_names) for column in matrix[row]}
        for row in matrix
    }


def closed_loop_problems(cold, reference):
    """The cold exact pass: no op errors, every cell computed, an
    all-feasible diagonal and the same verdicts as HiGHS."""
    problems = ["op error: %s" % (entry,) for entry in cold.errors]
    if problems:
        return problems
    matrix = cold["matrix"]
    cells = cold.stats.get("cells")
    if cold.stats.get("computed") != cells:
        problems.append("cold pass computed %s of %s cells"
                        % (cold.stats.get("computed"), cells))
    for row in matrix:
        if not matrix[row][row].feasible:
            problems.append("diagonal %s is refuted by its own simulation" % row)
    verdicts = matrix_verdicts(matrix)
    if verdicts != reference:
        problems.append("exact matrix %s differs from the HiGHS matrix %s"
                        % (verdicts, reference))
    return problems


def resume_problems(resumed, cold_bundle, resumed_bundle):
    """A resume pass over the cold pass's store: no LP work, every cell
    a store hit, and byte-identical op results."""
    problems = ["op error: %s" % (entry,) for entry in resumed.errors]
    stats = resumed.stats
    if stats.get("computed") != 0:
        problems.append("resume computed %s cells" % stats.get("computed"))
    if stats.get("store_hits") != stats.get("cells"):
        problems.append("resume store hits %s != cells %s"
                        % (stats.get("store_hits"), stats.get("cells")))
    if resumed_bundle != cold_bundle:
        problems.append("resume bundle differs from the cold bundle")
    return problems
