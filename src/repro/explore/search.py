"""The discovery/elimination search over feature sets.

The paper's algorithm (Section 5) has an expert in the loop: Counter-
Point reports violated constraints, the expert proposes features that
could eliminate them. Here the "expert move" is mechanised as a greedy
test — a feature is added when adding it strictly reduces the number of
infeasible observations — which is exactly how the paper's Figure 8
search tree unfolds for the Haswell case study (each feature resolves a
distinct violation family).
"""

from repro.errors import AnalysisError
from repro.cone import test_point_feasibility
from repro.results.base import ResultBase, register


@register
class ModelEvaluation(ResultBase):
    """Feasibility of one feature set against the dataset.

    Serializes through the shared :mod:`repro.results` contract, so
    search artefacts (the Figure 10 graph's nodes) can be stored and
    compared across runs.
    """

    kind = "model_evaluation"

    def __init__(self, features, infeasible, n_observations):
        self.features = frozenset(features)
        self.infeasible = list(infeasible)
        self.n_observations = n_observations

    @property
    def n_infeasible(self):
        return len(self.infeasible)

    @property
    def feasible(self):
        return not self.infeasible

    def _payload(self):
        return {
            "features": sorted(self.features),
            "infeasible": list(self.infeasible),
            "n_observations": self.n_observations,
        }

    @classmethod
    def _from_payload(cls, payload):
        return cls(
            payload["features"], payload["infeasible"], payload["n_observations"]
        )

    def __repr__(self):
        return "ModelEvaluation({%s}: %d/%d infeasible)" % (
            ",".join(sorted(self.features)),
            self.n_infeasible,
            self.n_observations,
        )


@register
class SearchResult(ResultBase):
    """Everything the search learned.

    Attributes
    ----------
    evaluations:
        Mapping feature-frozenset → :class:`ModelEvaluation` for every
        model evaluated (the Figure 10 graph's nodes).
    discovery_trail:
        Feature sets visited during discovery, in order.
    candidate:
        The feasible feature set discovery converged to (or None).
    minimal_feasible:
        Feasible feature sets none of whose evaluated children (one
        feature removed) are feasible.
    """

    kind = "search_result"

    def __init__(self, evaluations, discovery_trail, candidate):
        self.evaluations = dict(evaluations)
        self.discovery_trail = list(discovery_trail)
        self.candidate = candidate

    @property
    def feasible_sets(self):
        return [ev.features for ev in self.evaluations.values() if ev.feasible]

    @property
    def minimal_feasible(self):
        minimal = []
        for features in self.feasible_sets:
            children_feasible = False
            for feature in features:
                child = features - {feature}
                evaluation = self.evaluations.get(child)
                if evaluation is not None and evaluation.feasible:
                    children_feasible = True
                    break
            if not children_feasible:
                minimal.append(features)
        return minimal

    def _payload(self):
        evaluations = [
            self.evaluations[features].to_dict()
            for features in sorted(self.evaluations, key=sorted)
        ]
        return {
            "evaluations": evaluations,
            "discovery_trail": [sorted(features) for features in self.discovery_trail],
            "candidate": (
                None if self.candidate is None else sorted(self.candidate)
            ),
        }

    @classmethod
    def _from_payload(cls, payload):
        evaluations = {}
        for entry in payload["evaluations"]:
            evaluation = ModelEvaluation.from_dict(entry)
            evaluations[evaluation.features] = evaluation
        return cls(
            evaluations,
            [frozenset(features) for features in payload["discovery_trail"]],
            None if payload["candidate"] is None
            else frozenset(payload["candidate"]),
        )

    def __repr__(self):
        return "SearchResult(%d models, %d feasible)" % (
            len(self.evaluations),
            len(self.feasible_sets),
        )


class GuidedSearch:
    """Discovery/elimination search over microarchitectural features.

    Parameters
    ----------
    cone_builder:
        Callable mapping a feature frozenset to a
        :class:`repro.cone.ModelCone`.
    observations:
        Objects with ``name`` and ``point()`` (see
        :class:`repro.models.dataset.Observation`).
    candidate_features:
        The feature universe to search over.
    backend:
        LP backend for feasibility tests (``"scipy"`` recommended for
        sweeps; ``"exact"`` for certification).
    """

    def __init__(self, cone_builder, observations, candidate_features,
                 backend="scipy"):
        if not observations:
            raise AnalysisError("guided search needs at least one observation")
        self.cone_builder = cone_builder
        self.observations = list(observations)
        self.candidate_features = tuple(candidate_features)
        self.backend = backend
        self._cache = {}

    def evaluate(self, features):
        """Evaluate one feature set (memoised)."""
        features = frozenset(features)
        if features not in self._cache:
            cone = self.cone_builder(features)
            infeasible = []
            for observation in self.observations:
                result = test_point_feasibility(
                    cone, observation.point(), backend=self.backend
                )
                if not result.feasible:
                    infeasible.append(observation.name)
            self._cache[features] = ModelEvaluation(
                features, infeasible, len(self.observations)
            )
        return self._cache[features]

    # -- discovery -------------------------------------------------------
    def discovery(self, initial=frozenset()):
        """Add violation-resolving features until feasible (or stuck).

        Returns ``(candidate_or_None, trail)``.
        """
        current = frozenset(initial)
        trail = [current]
        evaluation = self.evaluate(current)
        while not evaluation.feasible:
            improvers = []
            missing = [f for f in self.candidate_features if f not in current]
            for feature in missing:
                trial = self.evaluate(current | {feature})
                if trial.n_infeasible < evaluation.n_infeasible:
                    improvers.append(feature)
            if not improvers:
                return None, trail
            # Paper: "When more than one feature can eliminate a
            # constraint, all features should be added to their model."
            current = current | set(improvers)
            trail.append(current)
            evaluation = self.evaluate(current)
        return current, trail

    # -- elimination -----------------------------------------------------
    def elimination(self, features):
        """Recursively prune features; infeasible subtrees stop (the
        paper's pruning heuristic)."""
        features = frozenset(features)
        visited = set()

        def recurse(current):
            children = []
            for feature in sorted(current):
                child = current - {feature}
                if child in visited:
                    continue
                visited.add(child)
                children.append(child)
            # Evaluate every child before descending into any, so
            # evaluations are recorded one frontier at a time.
            feasible = [
                child for child in children if self.evaluate(child).feasible
            ]
            for child in feasible:
                recurse(child)

        recurse(features)

    # -- full run ----------------------------------------------------------
    def run(self, initial=frozenset()):
        candidate, trail = self.discovery(initial)
        if candidate is not None:
            self.elimination(candidate)
        return SearchResult(self._cache, trail, candidate)
