"""Reduce ``repro.obs`` span records to per-layer numbers.

Spans carry no parent id, only ``pid``/``tid``, a wall-clock-anchored
start ``ts`` and a duration ``dur``. Nesting is recovered per thread by
interval containment, so self time (a span's duration minus what its
direct children cover) is correct for spans recorded on the daemon's
worker threads too.
"""

#: Span-name prefixes reported as layers (the first dotted component of
#: every span name ``repro.obs`` records).
PREFIXES = ("cell", "cone", "geometry", "lp", "plan", "sched", "session", "sim")


def _nest(spans):
    """Yield ``(span, parent)`` pairs, parent ``None`` at top level."""
    by_thread = {}
    for span in spans:
        by_thread.setdefault((span.get("pid"), span.get("tid")), []).append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda span: (span["ts"], -span["dur"]))
        stack = []
        for span in thread_spans:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= span["ts"]:
                stack.pop()
            yield span, (stack[-1] if stack else None)
            stack.append(span)


def _prefix(name):
    return name.split(".", 1)[0]


def span_metrics(records):
    """Per-layer metrics from closed span records.

    Returns ``span.<prefix>.total_s`` (time inside the layer, nested
    same-layer spans counted once), ``span.<prefix>.self_s`` (that time
    minus child spans of any layer), the named spans the benchmark
    reports on their own, and ``lp.solve`` totals split into exact and
    HiGHS solves.
    """
    spans = [
        record for record in records
        if record.get("type") == "span" and record.get("dur") is not None
    ]
    self_time = {id(span): span["dur"] for span in spans}
    metrics = {}
    for prefix in PREFIXES:
        metrics["span.%s.total_s" % prefix] = 0.0
        metrics["span.%s.self_s" % prefix] = 0.0
    for span, parent in _nest(spans):
        prefix = _prefix(span["name"])
        if parent is not None:
            self_time[id(parent)] -= span["dur"]
        if prefix in PREFIXES and (
            parent is None or _prefix(parent["name"]) != prefix
        ):
            metrics["span.%s.total_s" % prefix] += span["dur"]
    for span in spans:
        prefix = _prefix(span["name"])
        if prefix in PREFIXES:
            metrics["span.%s.self_s" % prefix] += max(self_time[id(span)], 0.0)

    def total(name):
        return sum(span["dur"] for span in spans if span["name"] == name)

    metrics["cell.verdict_s"] = total("cell.verdict")
    metrics["sim.simulate_s"] = total("sched.simulate")
    metrics["sched.compute_s"] = total("sched.compute")
    metrics["plan.run_s"] = total("plan.run")
    for family in ("exact", "highs"):
        metrics["lp.solve_s.%s" % family] = 0.0
        metrics["lp.solves.%s" % family] = 0
    for span in spans:
        if span["name"] == "lp.solve":
            # Rational simplex vs HiGHS (``scipy`` and ``highs_fast``).
            backend = span.get("attrs", {}).get("backend")
            family = "exact" if backend == "exact" else "highs"
            metrics["lp.solve_s.%s" % family] += span["dur"]
            metrics["lp.solves.%s" % family] += 1
    return metrics
