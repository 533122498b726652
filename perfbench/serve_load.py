"""The ``serve_tenants`` workload: closed-loop tenants against a daemon.

Each round boots ``python -m repro serve --port 0 --workers 2`` in its
own process (exact backend, no cache dir), drives it with ``CLIENTS``
closed-loop client threads, one tenant each, reads ``/v1/stats`` once
when the load ends (and checks from it that the daemon saw no job
before the round), replays every distinct plan once (the warm resume
pass), records the daemon's peak RSS and stops it with SIGINT.

A client submits a plan, follows the NDJSON event stream until it ends
(``ServeClient.wait`` would poll every 0.1 s and quantise latency), then
fetches the canonical result text. A 429, a stream that ends before the
job does, a job that ends other than ``done`` or an HTTP error counts as
a failed job.

Plans come from a seeded pool over the six bundled DSL models: every
ordered model pair, each simulating from one of three seeds, so most
cells repeat across jobs; every ``FRESH_EVERY``-th job of a client uses
a simulation seed no other job uses, which puts exact LP on the tail.
Only simulation seeds depend on the run's seed and the round; the
clients replay the same job order in every round and for every seed.
"""

import http.client
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import spans

#: Closed-loop clients (one thread, one tenant and at most one open
#: connection each), never more than the host's CPUs. The reference
#: host has 2.
CLIENTS = min(2, os.cpu_count() or 1)

#: Jobs each client submits per round; two clients make 200 jobs, so a
#: round alone has 20 samples beyond its p90.
JOBS_PER_CLIENT = 100

#: Every FRESH_EVERY-th job of a client simulates from a fresh seed.
FRESH_EVERY = 10

#: Simulation seeds shared by the pool plans.
POOL_SEEDS = 3

#: Sets of simulation seeds a run's rounds step through: more than a
#: 30 s run has rounds, so every round simulates new inputs and the
#: run's medians average over as many inputs as it has rounds. With 4
#: sets shared by all rounds, p90 and resume_s spread about twice as wide
#: from seed to seed.
INPUT_SETS = 32

#: Seconds a client waits on one job's event stream.
JOB_TIMEOUT = 60

BOOT_TIMEOUT = 60


def _plan(first, second, sim_seed):
    """Simulate ``first``, refute ``second`` against it with
    explanations, and cross-refute the pair."""
    from repro.plan import Plan

    plan = Plan()
    data = plan.simulate_dataset(first, n_observations=2, n_uops=2000,
                                 seed=sim_seed, op_id="data")
    plan.sweep(second, dataset=data, explain=True, op_id="refute")
    plan.cross_refute([first, second], n_observations=1, n_uops=2000,
                      seed=sim_seed, explain=True, op_id="matrix")
    return plan.to_json()


def client_sequences(seed, round_index):
    """Per-client lists of plan JSON texts for one round.

    Only the simulation seeds depend on ``seed`` and the round: rounds
    step through ``INPUT_SETS`` sets of them, and in set ``k`` pair
    ``i`` of the pool simulates from seed ``3 * k + i % 3`` while fresh
    jobs use seeds above 10**6. The mix and order of work are fixed.
    Each client draws every pool plan before it repeats one, and its
    fresh jobs walk the ring of models once (forwards for even clients,
    backwards for odd ones). A seed-dependent job order moved p90 by
    about 10% between seeds, because it decides which cold jobs contend.
    """
    from repro.models import bundled_model_names

    names = sorted(bundled_model_names())
    pairs = [(a, b) for a in names for b in names if a != b]
    inputs = INPUT_SETS * seed + round_index % INPUT_SETS
    pool = [
        _plan(a, b, POOL_SEEDS * inputs + index % POOL_SEEDS)
        for index, (a, b) in enumerate(pairs)
    ]
    ring = [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]
    order = random.Random("serve_tenants job order")
    sequences = []
    for client in range(CLIENTS):
        fresh = ring if client % 2 == 0 else [(b, a) for a, b in ring]
        fresh = order.sample(fresh, len(fresh))
        draws = []
        sequence = []
        for index in range(JOBS_PER_CLIENT):
            if index % FRESH_EVERY == FRESH_EVERY - 1:
                first, second = fresh[index // FRESH_EVERY % len(fresh)]
                fresh_seed = 1000000 + 1000 * inputs + 100 * client + index
                sequence.append(_plan(first, second, fresh_seed))
                continue
            if not draws:
                draws = order.sample(pool, len(pool))
            sequence.append(draws.pop())
        sequences.append(sequence)
    return sequences


class Daemon:
    """One ``repro serve`` process, booted until ``/v1/healthz`` answers."""

    def __init__(self, root, env, log_path, trace_path=None):
        from repro.serve import ServeClient

        command = [sys.executable, "-u", "-m", "repro", "serve",
                   "--port", "0", "--workers", "2"]
        if trace_path:
            command += ["--trace", trace_path]
        self._log = open(log_path, "w", encoding="utf-8")
        launched = time.time()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], BOOT_TIMEOUT)
            line = self.process.stdout.readline() if ready else ""
            match = re.search(r"listening on (http://\S+)", line)
            if not match:
                with open(log_path, encoding="utf-8") as log:
                    tail = log.read().strip().splitlines()[-3:]
                raise RuntimeError("serve daemon did not start: %r %s" % (line, tail))
            self.url = match.group(1)
            if not ServeClient(self.url).healthy():
                raise RuntimeError("serve daemon at %s is not healthy" % self.url)
            self.setup_s = time.time() - launched
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        """The daemon's high-water resident set (Linux ``VmHWM``)."""
        with open("/proc/%d/status" % self.process.pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the serve daemon")

    def stop(self):
        """SIGINT (the daemon then writes its trace), kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def _one_job(client, plan_text):
    """Submit, follow the event stream, fetch; returns the job record."""
    from repro.errors import QueueFullError, ServeError

    job = {"plan": plan_text, "state": None, "text": None, "refused": False}
    started = time.perf_counter()
    try:
        job_id = client.submit(plan_text)["id"]
        submitted = time.perf_counter()
        for event in client.events(job_id, timeout=JOB_TIMEOUT):
            if event.get("event") == "state":
                job["state"] = event.get("state")
        streamed = time.perf_counter()
        if job["state"] == "done":
            job["text"] = client.result_text(job_id)
        fetched = time.perf_counter()
    except QueueFullError:
        job["refused"] = True
        return job
    except (ServeError, OSError, ValueError, http.client.HTTPException) as error:
        # Lost connections, socket timeouts and torn event streams are
        # failed jobs, not a crashed client thread.
        job["error"] = repr(error)
        return job
    job.update(
        latency_s=fetched - started,
        submit_s=submitted - started,
        stream_s=streamed - submitted,
        fetch_s=fetched - streamed,
    )
    return job


def _client_loop(url, tenant, sequence, jobs):
    from repro.serve import ServeClient

    client = ServeClient(url, tenant=tenant)
    for plan_text in sequence:
        jobs.append(_one_job(client, plan_text))


def serve_round(root, env, workdir, seed, round_index, trace=False):
    """Boot a daemon, run the load and the resume pass, stop it."""
    from repro.obs import read_jsonl
    from repro.serve import ServeClient

    trace_path = None
    if trace:
        trace_path = os.path.join(workdir, "serve-trace-%d.jsonl" % round_index)
    daemon = Daemon(
        root, env, os.path.join(workdir, "serve-%d.log" % round_index),
        trace_path=trace_path,
    )
    report = {"setup_s": daemon.setup_s, "layers": {}}
    sequences = client_sequences(seed, round_index)
    try:
        per_client = [[] for _ in sequences]
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(daemon.url, "tenant%d" % index, sequence, per_client[index]),
            )
            for index, sequence in enumerate(sequences)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report["wall_s"] = time.perf_counter() - started
        load = [job for jobs in per_client for job in jobs]
        stats = ServeClient(daemon.url).server_stats()

        resume = []
        client = ServeClient(daemon.url, tenant="resume")
        started = time.perf_counter()
        for plan_text in sorted(set(job["plan"] for job in load)):
            resume.append(_one_job(client, plan_text))
        report["resume_s"] = time.perf_counter() - started
        report["peak_rss_mb"] = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    # A round is cold when its daemon saw no job before this round's
    # load and read nothing from a store.
    seen = sum(stats["jobs"].values())
    report["problems"] = []
    if seen != len(load):
        report["problems"].append(
            "round not cold: the daemon held %d jobs after a load of %d" % (seen, len(load))
        )
    if stats["session"]["store_hits"]:
        report["problems"].append(
            "round not cold: %d store hits" % stats["session"]["store_hits"]
        )

    jobs = load + resume
    report["jobs"] = jobs
    report["attempted"] = len(jobs)
    report["failed"] = sum(1 for job in jobs if job["state"] != "done")
    timed = [job for job in load if "latency_s" in job]
    report["requests_s"] = [job["latency_s"] for job in timed]
    report["jobs_per_s"] = len(timed) / report["wall_s"]
    layers = report["layers"]
    for part in ("submit", "stream", "fetch"):
        layers["serve.%s_ms" % part] = 1000.0 * statistics.median(
            job["%s_s" % part] for job in timed
        ) if timed else 0.0
    wait = stats["metrics"]["histograms"].get("serve.job.wait_seconds", {})
    layers["serve.queue_wait_s"] = wait.get("total", 0.0) / max(wait.get("count", 0), 1)
    computed = sum(t.get("cells_computed", 0) for t in stats["tenants"].values())
    deduped = sum(t.get("cells_deduped", 0) for t in stats["tenants"].values())
    layers["serve.cells_requested"] = computed + deduped
    layers["serve.cells_computed"] = computed
    layers["serve.dedup_ratio"] = deduped / max(computed + deduped, 1)
    layers["serve.refused"] = sum(1 for job in jobs if job["refused"])
    session = stats["session"]
    layers["session.computed"] = session["tests"]
    layers["session.memo_hits"] = session["memo_hits"]
    layers["session.store_hits"] = session["store_hits"]
    if trace_path:
        records, _ = read_jsonl(trace_path)
        layers.update(spans.span_metrics(records))
    return report


def serve_problems(jobs, references):
    """Every job ``done``; identical plans return byte-identical
    bundles, equal to the in-process serial run of the plan."""
    problems = []
    for job in jobs:
        if job["refused"]:
            problems.append("job refused with 429")
        elif job["state"] != "done":
            problems.append("job ended %s (%s)" % (job["state"], job.get("error", "")))
        elif job["text"] != references[job["plan"]]:
            problems.append("bundle differs from the serial run of its plan")
    return problems


def serial_references(plans):
    """Canonical op-result bundles from one in-process serial pipeline
    (exact backend, like the daemon)."""
    from repro.pipeline import CounterPoint
    from repro.plan import Plan

    references = {}
    with CounterPoint(backend="exact") as pipeline:
        for plan_text in sorted(plans):
            references[plan_text] = checks.bundle(pipeline.run(Plan.from_json(plan_text)))
    return references
