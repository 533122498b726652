"""The persistent cone tier: model cones as ``"cone"`` artifacts in an
:class:`~repro.results.store.ArtifactStore`.

Covers the correctness properties the tier promises:

* round-trip fidelity (cones, including deduced constraints, survive
  the disk and a fresh process),
* version-stamp mismatches, corrupt entries and foreign payloads inside
  a valid envelope degrade to discard-and-rebuild — never a crash,
* nothing in a cache directory is ever unpickled: a planted pickle at
  the old ``*.conepkl`` path is ignored and the cone rebuilt,
* two processes warming the same directory concurrently cannot corrupt
  entries (atomic whole-file publication),
* the store-level LRU byte cap, unbounded mode and temp-file sweep,
* a warm directory lets a literal fresh process skip deduction
  entirely (hit counters prove it).
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.cone import ModelCone, ModelConeCache, get_model_cone, mudd_fingerprint
from repro.cone.cache import shared_cache
from repro.errors import AnalysisError
from repro.models.bundled import bundled_model_names
from repro.pipeline import CounterPoint
from repro.results.store import ARTIFACT_FORMAT_VERSION, ArtifactStore, content_key
from repro.sim import as_mudd

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cones")


@pytest.fixture()
def mudd():
    return as_mudd("merging_load_side")


def _key(mudd, max_paths=2000000):
    return content_key(mudd_fingerprint(mudd), max_paths)


class TestDiskTier:
    def test_round_trip(self, cache_dir, mudd):
        cache = ModelConeCache(disk=cache_dir)
        cone = cache.get(mudd)
        cone.constraints()
        cache.get(mudd)  # write-back of the deduced constraints

        fresh = ModelConeCache(disk=cache_dir)
        loaded = fresh.get(mudd)
        assert fresh.builds == 0
        assert fresh.disk_hits == 1
        assert loaded.name == cone.name
        assert loaded.counters == cone.counters
        assert loaded.signatures == cone.signatures
        assert loaded.multiplicities == cone.multiplicities
        assert loaded.fingerprint() == cone.fingerprint()
        assert loaded.has_deduced_constraints()
        assert list(loaded.constraints()) == list(cone.constraints())

    def test_loaded_cone_rebuilds_solver_state(self, cache_dir, mudd):
        cache = ModelConeCache(disk=cache_dir)
        original = cache.get(mudd)
        original.signature_array()
        original.flow_model()

        loaded = ModelConeCache(disk=cache_dir).get(mudd)
        # Process-local accelerators never reach the disk and are
        # lazily rebuilt — feasibility still works end to end.
        assert loaded._signature_array is None
        assert loaded._flow_model is None and not loaded._flow_model_built
        from repro.cone import test_point_feasibility

        point = dict(zip(loaded.counters, loaded.signatures[0]))
        assert test_point_feasibility(loaded, point, backend="scipy").feasible

    def test_version_mismatch_recomputes(self, cache_dir, mudd):
        old = ArtifactStore(cache_dir, version=ARTIFACT_FORMAT_VERSION - 1)
        ModelConeCache(disk=old).get(mudd)
        assert len(old) == 1

        current = ModelConeCache(disk=ArtifactStore(cache_dir))
        cone = current.get(mudd)  # stale entry: recompute, no crash
        assert cone is not None
        assert current.builds == 1
        assert current.disk_hits == 0
        # The stale file was replaced by a current-version entry.
        fresh = ModelConeCache(disk=ArtifactStore(cache_dir))
        fresh.get(mudd)
        assert fresh.builds == 0

    def test_corrupt_entry_recomputes(self, cache_dir, mudd):
        disk = ArtifactStore(cache_dir)
        ModelConeCache(disk=disk).get(mudd)
        (entry,) = disk._entries()
        with open(entry, "wb") as handle:
            handle.write(b"\x80garbage: not JSON")

        cache = ModelConeCache(disk=ArtifactStore(cache_dir))
        assert cache.get(mudd) is not None
        assert cache.builds == 1

    def test_truncated_entry_recomputes(self, cache_dir, mudd):
        disk = ArtifactStore(cache_dir)
        ModelConeCache(disk=disk).get(mudd)
        (entry,) = disk._entries()
        data = open(entry, "rb").read()
        with open(entry, "wb") as handle:
            handle.write(data[: len(data) // 2])

        cache = ModelConeCache(disk=ArtifactStore(cache_dir))
        assert cache.get(mudd) is not None
        assert cache.builds == 1

    def test_foreign_payload_shape_recomputes(self, cache_dir, mudd):
        disk = ArtifactStore(cache_dir)
        cache = ModelConeCache(disk=disk)
        cone = cache.get(mudd)
        with open(disk._path("cone", _key(mudd)), "w") as handle:
            json.dump(["not", "a", "payload", "dict"], handle)
        fresh = ModelConeCache(disk=ArtifactStore(cache_dir))
        assert fresh.get(mudd).counters == cone.counters
        assert fresh.builds == 1

    def test_write_back_survives_live_scipy_state(self, cache_dir, mudd):
        """Exercising the scipy membership/flow paths builds nested
        HiGHS handles; the deduced-constraint write-back must still
        encode (only the JSON record reaches the disk)."""
        cache = ModelConeCache(disk=cache_dir)
        cone = cache.get(mudd)
        point = dict(zip(cone.counters, cone.signatures[0]))
        cone.contains(point, backend="scipy")   # geometry Cone solver state
        cone.flow_model()                       # ModelCone solver state
        cone.constraints()
        cache.get(mudd)                         # write-back: must not raise

        fresh = ModelConeCache(disk=cache_dir)
        assert fresh.get(mudd).has_deduced_constraints()
        assert fresh.builds == 0

    def test_disk_hit_then_deduction_is_written_back(self, cache_dir, mudd):
        """A cone loaded undeduced from disk, deduced later in this
        process, must be republished — later processes skip deduction."""
        ModelConeCache(disk=cache_dir).get(mudd)  # publishes undeduced

        second = ModelConeCache(disk=cache_dir)
        cone = second.get(mudd)            # disk hit, still undeduced
        assert not cone.has_deduced_constraints()
        cone.constraints()                 # deduction happens here
        second.get(mudd)                   # next touch writes it back

        third = ModelConeCache(disk=cache_dir)
        assert third.get(mudd).has_deduced_constraints()
        assert third.builds == 0

    def test_stale_temp_files_are_swept(self, cache_dir, mudd):
        """Temp files orphaned by a writer killed mid-put are reclaimed
        by the store's prune() once old, and unconditionally by
        clear()."""
        disk = ArtifactStore(cache_dir)
        ModelConeCache(disk=disk).get(mudd)
        orphan = os.path.join(cache_dir, "deadwriter.tmp")
        with open(orphan, "wb") as handle:
            handle.write(b"x" * 64)
        old = os.path.getmtime(orphan) - 3600
        os.utime(orphan, (old, old))

        disk.prune()
        assert not os.path.exists(orphan)
        assert len(disk) == 1  # the cone itself is under the cap

        with open(orphan, "wb") as handle:
            handle.write(b"x")
        disk.clear()
        assert not os.path.exists(orphan)
        assert len(disk) == 0

    def test_lru_byte_cap_evicts_oldest(self, cache_dir):
        mudds = [as_mudd(name) for name in bundled_model_names()]
        disk = ArtifactStore(cache_dir, max_bytes=1)  # everything over cap
        cache = ModelConeCache(disk=disk)
        for mudd in mudds:
            cache.get(mudd)
        # Each put prunes to the cap: at most the newest entry survives
        # transiently, and eviction counters moved.
        assert len(disk) <= 1
        assert disk.evictions >= len(mudds) - 1

    def test_unbounded_cache_keeps_everything(self, cache_dir):
        mudds = [as_mudd(name) for name in bundled_model_names()]
        disk = ArtifactStore(cache_dir, max_bytes=None)
        cache = ModelConeCache(disk=disk)
        for mudd in mudds:
            cache.get(mudd)
        assert len(disk) == len(mudds)
        assert disk.total_bytes() > 0

    def test_invalid_max_bytes(self, cache_dir):
        with pytest.raises(AnalysisError):
            ArtifactStore(cache_dir, max_bytes=0)

    def test_shared_cache_one_instance_per_dir(self, cache_dir):
        assert shared_cache(cache_dir) is shared_cache(cache_dir)
        assert shared_cache(cache_dir).disk.root == os.path.join(
            os.path.abspath(cache_dir), "artifacts"
        )

    def test_pipeline_shares_one_store_per_cache_dir(self, cache_dir, mudd):
        """Cones and session results of one ``cache_dir`` live in one
        store."""
        pipeline = CounterPoint(cache_dir=cache_dir)
        store = pipeline.session().store
        assert store is pipeline.cone_cache.disk
        assert store is shared_cache(cache_dir).disk
        assert CounterPoint(cache_dir=cache_dir).session().store is store
        cone = pipeline.model_cone(mudd)
        pipeline.analyze(mudd, dict(zip(cone.counters, cone.signatures[0])))
        kinds = sorted(name.split("-")[0] for name in os.listdir(store.root))
        assert kinds == ["cone", "report"]


def _plant_pickle(directory, mudd, sentinel):
    """A pickle that would create ``sentinel`` when loaded, at the path
    the pickled-cone store used for ``mudd``."""

    class Exploit:
        def __reduce__(self):
            return (open, (sentinel, "w"))

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, "%s-%d.conepkl" % (mudd_fingerprint(mudd), 2000000)
    )
    with open(path, "wb") as handle:
        pickle.dump({"version": 1, "key": None, "cone": Exploit()}, handle)
    return path


#: Malformed ``"cone"`` payloads inside a valid store envelope.
_FOREIGN_PAYLOADS = {
    "not a dict": lambda record: ["cone"],
    "missing signatures": lambda record: {
        k: v for k, v in record.items() if k != "signatures"
    },
    "missing constraints": lambda record: {
        k: v for k, v in record.items() if k != "constraints"
    },
    "float signature entry": lambda record: dict(
        record, signatures=[[0.5] + row[1:] for row in record["signatures"]]
    ),
    "string signature entry": lambda record: dict(
        record, signatures=[["1"] + row[1:] for row in record["signatures"]]
    ),
    "bool signature entry": lambda record: dict(
        record, signatures=[[True] + row[1:] for row in record["signatures"]]
    ),
    "negative signature entry": lambda record: dict(
        record, signatures=[[-1] + row[1:] for row in record["signatures"]]
    ),
    "short signature row": lambda record: dict(
        record, signatures=[row[1:] for row in record["signatures"]]
    ),
    "counters not a list": lambda record: dict(record, counters="abc"),
    "multiplicities misaligned": lambda record: dict(
        record, multiplicities=[1]
    ),
    "constraint over other counters": lambda record: dict(
        record, constraints=[
            dict(c, counters=list(reversed(c["counters"])))
            for c in record["constraints"]
        ],
    ),
    "constraint of unknown kind": lambda record: dict(
        record, constraints=[
            dict(c, kind="le") for c in record["constraints"]
        ],
    ),
    "constraint with float normal": lambda record: dict(
        record, constraints=[
            dict(c, normal=[v + 0.5 for v in c["normal"]])
            for c in record["constraints"]
        ],
    ),
}


class TestUntrustedEntries:
    @pytest.mark.parametrize("entry", ["pipeline", "get_model_cone"])
    def test_planted_pickle_is_never_opened(self, tmp_path, mudd, entry):
        """Cache directories are shared; nothing in one may execute."""
        cache_dir = str(tmp_path / "shared")
        sentinel = str(tmp_path / "pwned")
        _plant_pickle(cache_dir, mudd, sentinel)
        if entry == "pipeline":
            pipeline = CounterPoint(cache_dir=cache_dir)
            cone = pipeline.model_cone(mudd)
        else:
            cone = get_model_cone(mudd, cache_dir=cache_dir)
        assert not os.path.exists(sentinel)
        assert isinstance(cone, ModelCone) and cone.signatures
        assert shared_cache(cache_dir).builds == 1  # rebuilt, not loaded
        assert shared_cache(cache_dir).disk_hits == 0

    @pytest.mark.parametrize("mutate", sorted(_FOREIGN_PAYLOADS))
    def test_foreign_cone_payload_is_a_miss(self, cache_dir, mudd, mutate):
        warm = ModelConeCache(disk=cache_dir)
        warm.get(mudd).constraints()
        warm.get(mudd)  # publish the deduced record
        store = ArtifactStore(cache_dir)
        record = store.get("cone", _key(mudd))
        store.put("cone", _key(mudd), _FOREIGN_PAYLOADS[mutate](record))

        fresh = ModelConeCache(disk=ArtifactStore(cache_dir))
        cone = fresh.get(mudd)
        assert fresh.builds == 1 and fresh.disk_hits == 0
        assert cone.signatures == ModelCone.from_dict(record).signatures
        # The foreign artifact was discarded and the rebuild published
        # a sound record in its place.
        again = ModelConeCache(disk=cache_dir)
        again.get(mudd)
        assert again.builds == 0 and again.disk_hits == 1


_WARM_SCRIPT = """
import sys
from repro.cone.cache import ModelConeCache
from repro.models.bundled import bundled_model_names
from repro.sim import as_mudd

cache = ModelConeCache(disk=sys.argv[1])
for _ in range(int(sys.argv[2])):
    for name in bundled_model_names():
        cone = cache.get(as_mudd(name))
        cone.constraints()
        cache.get(as_mudd(name))  # publish deduced constraints
print("builds=%d disk_hits=%d" % (cache.builds, cache.disk_hits))
"""


def _spawn_warmer(cache_dir, rounds=3):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _WARM_SCRIPT, cache_dir, str(rounds)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestConcurrency:
    @pytest.mark.slow
    def test_two_processes_warming_never_corrupt(self, cache_dir):
        """Two concurrent warmers race on every entry; afterwards every
        entry must load cleanly in a third, fresh process-alike."""
        first = _spawn_warmer(cache_dir)
        second = _spawn_warmer(cache_dir)
        out_first, err_first = first.communicate(timeout=300)
        out_second, err_second = second.communicate(timeout=300)
        assert first.returncode == 0, err_first
        assert second.returncode == 0, err_second

        verifier = ModelConeCache(disk=cache_dir)
        for name in bundled_model_names():
            cone = verifier.get(as_mudd(name))
            assert cone.has_deduced_constraints()
        assert verifier.builds == 0
        assert verifier.disk_hits == len(bundled_model_names())

    @pytest.mark.slow
    def test_fresh_process_skips_deduction(self, cache_dir):
        """The acceptance check: a warm directory means a brand-new
        process serves every cone (constraints included) from disk."""
        warmer = _spawn_warmer(cache_dir, rounds=1)
        out, err = warmer.communicate(timeout=300)
        assert warmer.returncode == 0, err

        fresh = _spawn_warmer(cache_dir, rounds=1)
        out, err = fresh.communicate(timeout=300)
        assert fresh.returncode == 0, err
        assert "builds=0" in out, out
        assert "disk_hits=%d" % len(bundled_model_names()) in out, out
