"""The four benchmark workloads, each a sequence of seeded episodes.

An episode builds its inputs from ``(seed, episode index)`` only, runs an
untimed set-up, then hands out ops one at a time.  The runner times each
op call and nothing else; :meth:`Episode.record` (digests, counters)
and :meth:`Episode.finish` run outside the timed intervals, and
:meth:`Episode.check` runs after the whole timed section.

All four call the library in-process and serially.  Not measured: the
shard fabric and the thread/process solver backends (on a 2-core host
their workers compete with the coordinator), the ``ChurnService`` front
end (its linger timer makes batch composition depend on thread timing)
and ``simulation.churn`` (a second epoch engine).
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.costs import individual_costs, social_cost
from repro.core.dynamics import BestResponseDynamics
from repro.core.game import TopologyGame
from repro.metrics.euclidean import EuclideanMetric
from repro.service import (
    DEFAULT_MIX,
    ReplayMismatch,
    ServiceJournal,
    ServiceState,
    WorkloadGenerator,
    WorkloadMix,
    replay_journal,
)
from repro.service.state import POPULATION_FLOOR

#: EvaluatorStats counters summed into an episode's counters.
STATS_KEYS = (
    "response_solves",
    "response_memo_hits",
    "service_rows_reused",
    "service_rows_recomputed",
    "service_full_builds",
    "distance_full_builds",
    "distance_vertices_repaired",
    "distance_full_fallbacks",
)

#: Counters every episode reports (summed over episodes, except the
#: store peak, which is a maximum).  All count op work only.
COUNTER_KEYS = STATS_KEYS + (
    "store_peak_bytes",
    "moves",
    "rebind_solves",
    "refused",
)

#: e19's read-mostly mix: 70% queries.
SERVICE_MIX = WorkloadMix(
    join=0.05, leave=0.05, rebind=0.20, query_cost=0.55, query_social_cost=0.15
)

REL_TOL = 1e-9


def derive(seed: int, *tags) -> int:
    """A 32-bit seed that depends only on ``seed`` and ``tags``."""
    text = ":".join(str(part) for part in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _stats_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


class Episode:
    """One seeded instance: set-up, then ops until exhausted."""

    #: Work units one op is planned to complete (used to count the units
    #: of an op that raised).
    units_per_op = 1

    def __init__(self) -> None:
        self.counters = {key: 0 for key in COUNTER_KEYS}
        self.ops_done = 0
        self._digest = hashlib.sha256()

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self) -> Optional[Callable[[], object]]:
        raise NotImplementedError

    def record(self, result) -> int:
        """Consume an op's result; return the work units it completed."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed end of the episode (also called when the run stops)."""

    def check(self) -> Tuple[int, List[str]]:
        """(failed work units, messages) of the episode's outputs."""
        return 0, []

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def _add_stats(self, stats: Dict[str, int]) -> None:
        for key in STATS_KEYS:
            self.counters[key] += stats[key]
        self.counters["store_peak_bytes"] = max(
            self.counters["store_peak_bytes"],
            stats["store_resident_peak_bytes"],
        )


# ----------------------------------------------------------------------
class SweepCold(Episode):
    """Cold greedy gain sweep of an n=128 instance, one block per op.

    Each op builds a fresh evaluator, binds the profile and sweeps one
    block of peers, so blocked Dijkstra, CSR assembly and the greedy
    solver run cold every time.  Set-up builds the instance and sweeps
    one block of a separate warm-up instance.
    """

    ALPHA = 1.5
    DENSITY = 0.05

    def __init__(self, seed: int, index: int, n: int = 128, block: int = 16):
        super().__init__()
        self.units_per_op = block
        self._n = n
        self._block = block
        self._seed = derive(seed, "sweep-cold", index)
        self._warm_seed = derive(seed, "sweep-cold-warm", index)
        self._samples: List[Tuple[int, frozenset, float, int]] = []

    def _instance(self, seed: int):
        metric = EuclideanMetric.random_uniform(self._n, dim=2, seed=seed)
        game = TopologyGame(metric, self.ALPHA)
        return game, game.random_profile(self.DENSITY, seed=seed)

    @staticmethod
    def _sweep(game, profile, peers):
        evaluator = game.make_evaluator()
        evaluator.set_profile(profile)
        responses = evaluator.gain_sweep(method="greedy", peers=peers)
        evaluator.close()
        return responses, evaluator.stats

    def setup(self) -> None:
        warm_game, warm_profile = self._instance(self._warm_seed)
        self._sweep(warm_game, warm_profile, range(self._block))
        self._game, self._profile = self._instance(self._seed)
        self._blocks = [
            range(start, min(start + self._block, self._n))
            for start in range(0, self._n, self._block)
        ]

    def next_op(self):
        if self.ops_done >= len(self._blocks):
            return None
        peers = self._blocks[self.ops_done]
        game, profile = self._game, self._profile
        return lambda: self._sweep(game, profile, peers)

    def record(self, result) -> int:
        responses, stats = result
        self._add_stats(stats.as_dict())
        for response in responses:
            self._digest.update(
                repr(
                    (response.peer, sorted(response.strategy),
                     float(response.cost).hex())
                ).encode()
            )
            self.counters["moves"] += int(response.improved)
        pick = random.Random(derive(self._seed, "sample", self.ops_done))
        response = responses[pick.randrange(len(responses))]
        self._samples.append(
            (response.peer, response.strategy, response.cost, len(responses))
        )
        self.ops_done += 1
        return len(responses)

    def check(self):
        failed, messages = 0, []
        dmat = self._game.distance_matrix
        for peer, strategy, cost, units in self._samples:
            scratch = individual_costs(
                dmat, self._profile.with_strategy(peer, strategy), self.ALPHA
            )[peer]
            if not (
                math.isfinite(cost)
                and math.isclose(scratch, cost, rel_tol=REL_TOL)
            ):
                failed += units
                messages.append(
                    f"peer {peer}: sweep cost {cost!r} != scratch {scratch!r}"
                )
        return failed, messages


# ----------------------------------------------------------------------
class DynamicsWarm(Episode):
    """Greedy round-robin dynamics with one evaluator reused across rounds.

    Set-up runs round 1 (the cold build); each later round is one op,
    until a round without a move or round ``max_round``.
    """

    ALPHA = 1.5
    DENSITY = 0.05

    def __init__(self, seed: int, index: int, n: int = 48, max_round: int = 6):
        super().__init__()
        self.units_per_op = n
        self._n = n
        self._max_round = max_round
        self._seed = derive(seed, "dynamics-warm", index)
        self._final_cost: Optional[float] = None

    def setup(self) -> None:
        metric = EuclideanMetric.random_uniform(self._n, dim=2, seed=self._seed)
        self._game = TopologyGame(metric, self.ALPHA)
        self._evaluator = self._game.make_evaluator()
        self._dynamics = BestResponseDynamics(
            self._game, method="greedy", evaluator=self._evaluator,
            record_moves=False,
        )
        first = self._dynamics.run(
            initial=self._game.random_profile(self.DENSITY, seed=self._seed),
            max_rounds=1,
        )
        self._profile = first.profile
        self._round = 1
        self._done = first.num_moves == 0
        self._base = self._evaluator.stats.as_dict()

    def next_op(self):
        if self._done or self._round >= self._max_round:
            return None
        dynamics, profile = self._dynamics, self._profile
        return lambda: dynamics.run(initial=profile, max_rounds=1)

    def record(self, result) -> int:
        self._round += 1
        self._profile = result.profile
        self._digest.update(repr(result.profile.key()).encode())
        self.counters["moves"] += result.num_moves
        self._done = result.num_moves == 0
        self.ops_done += 1
        return result.steps

    def finish(self) -> None:
        if self._final_cost is not None:
            return
        stats = self._evaluator.stats.as_dict()
        self._add_stats(_stats_delta(stats, self._base))
        # A high-water mark has no delta: report the instance's peak.
        self.counters["store_peak_bytes"] = stats["store_resident_peak_bytes"]
        self._final_cost = (
            self._evaluator.set_profile(self._profile).social_cost().total
        )
        self._dynamics.close()
        self._evaluator.close()
        self._dynamics = self._evaluator = None

    def check(self):
        scratch = social_cost(
            self._game.distance_matrix, self._profile, self.ALPHA
        ).total
        if math.isclose(scratch, self._final_cost, rel_tol=REL_TOL):
            return 0, []
        return self.ops_done * self._n, [
            f"instance {self._seed}: evaluator social cost "
            f"{self._final_cost!r} != scratch {scratch!r}"
        ]


# ----------------------------------------------------------------------
class ServiceEpochs(Episode):
    """``ServiceState`` epochs fed a seeded request stream synchronously.

    The stream is cut into chunks of ``batch`` requests, the plan the
    service's coalescer would pick, and each chunk is one
    ``apply_epoch`` call.  The first ``setup_epochs`` epochs are set-up.
    """

    UNIVERSE = 10_000
    ACTIVE = 128
    ALPHA = 2.0

    def __init__(
        self,
        seed: int,
        index: int,
        mix: WorkloadMix,
        tag: str,
        universe: int = UNIVERSE,
        active: int = ACTIVE,
        batch: int = 32,
        setup_epochs: int = 2,
        epochs: int = 12,
    ):
        super().__init__()
        self.units_per_op = batch
        self._mix = mix
        self._universe = universe
        self._initial = range(active)
        self._batch = batch
        self._setup_epochs = setup_epochs
        self._epochs = epochs
        self._seed = derive(seed, tag, index)
        self._snapshot = None

    def setup(self) -> None:
        self._metric = EuclideanMetric.random_uniform(
            self._universe, dim=2, seed=self._seed
        )
        total = self._batch * (self._setup_epochs + self._epochs)
        requests = WorkloadGenerator(
            self._universe, self._initial, self._seed, mix=self._mix
        ).take(total)
        self._chunks = [
            requests[start : start + self._batch]
            for start in range(0, total, self._batch)
        ]
        self._journal = ServiceJournal()
        self._state = ServiceState(
            self._metric, self.ALPHA, initial_active=self._initial,
            journal=self._journal,
        )
        self._active = set(self._initial)
        self._epoch = 0
        self._bad_epochs: List[str] = []
        self._failed = 0
        for _ in range(self._setup_epochs):
            self._expected(self._chunks[self._epoch])
            self._state.apply_epoch(self._chunks[self._epoch])
            self._epoch += 1
        self._totals = self._state.evaluator_totals()

    def _expected(self, chunk) -> Tuple[set, int]:
        """Refusals the documented phase order predicts, and rebind solves.

        Membership requests apply first, in arrival order; rebinds and
        cost queries then see the post-membership active set, so a
        request for a peer that leaves later in the same epoch is refused.
        """
        refused = set()
        for index, request in enumerate(chunk):
            if request.kind == "join":
                if 0 <= request.peer < self._universe:
                    self._active.add(request.peer)
                else:
                    refused.add(index)
            elif request.kind == "leave" and request.peer in self._active:
                if len(self._active) - 1 < POPULATION_FLOOR:
                    refused.add(index)
                else:
                    self._active.discard(request.peer)
        rebinds = set()
        for index, request in enumerate(chunk):
            if request.kind in ("rebind", "query_cost"):
                if request.peer not in self._active:
                    refused.add(index)
                elif request.kind == "rebind":
                    rebinds.add(request.peer)
        return refused, len(rebinds)

    def next_op(self):
        if self._epoch >= len(self._chunks):
            return None
        state, chunk = self._state, self._chunks[self._epoch]
        return lambda: state.apply_epoch(chunk)

    def record(self, outcome) -> int:
        chunk = self._chunks[self._epoch]
        expected, rebinds = self._expected(chunk)
        refused = {i for i, (ok, _value) in enumerate(outcome.results) if not ok}
        if refused != expected:
            self._failed += len(chunk)
            self._bad_epochs.append(
                f"epoch {outcome.epoch}: refused {sorted(refused)}, "
                f"expected {sorted(expected)}"
            )
        self.counters["refused"] += len(refused)
        self.counters["rebind_solves"] += rebinds
        self.counters["moves"] += outcome.moves
        self._digest.update(
            (outcome.digest + "".join("1" if ok else "0" for ok, _ in outcome.results)).encode()
        )
        # evaluator_totals() sums every counter over epochs, peaks too:
        # a per-epoch peak is the delta of one epoch, never the total.
        totals = self._state.evaluator_totals()
        delta = _stats_delta(totals, self._totals)
        self._totals = totals
        self._add_stats(delta)
        self._epoch += 1
        self.ops_done += 1
        return len(chunk)

    def finish(self) -> None:
        if self._snapshot is None:
            self._snapshot = self._state.snapshot()
            self._state.close()
            # The state holds one strategy set per universe peer; only the
            # journal and the snapshot are needed from here on.
            self._state = None

    def check(self):
        failed, messages = self._failed, list(self._bad_epochs)
        units = self.ops_done * self._batch
        try:
            replay = replay_journal(
                self._journal, self._metric, self.ALPHA,
                initial_active=self._initial, verify=True,
            )
        except ReplayMismatch as exc:
            return units, messages + [f"journal replay: {exc}"]
        if (replay.final_active, replay.final_strategies) != self._snapshot:
            return units, messages + ["journal replay: final overlay differs"]
        return failed, messages


# ----------------------------------------------------------------------
class Workload:
    """A named episode factory plus its work unit and trace plan."""

    def __init__(self, name: str, unit: str, factory, trace_episodes: int):
        self.name = name
        self.unit = unit
        self._factory = factory
        #: Episodes of the fixed-work traced run (its counters must repeat).
        self.trace_episodes = trace_episodes

    def episode(self, seed: int, index: int, reduced: bool = False) -> Episode:
        return self._factory(seed, index, reduced)


def _sweep(seed, index, reduced):
    return SweepCold(seed, index, n=48) if reduced else SweepCold(seed, index)


def _dynamics(seed, index, reduced):
    if reduced:
        return DynamicsWarm(seed, index, n=16, max_round=4)
    return DynamicsWarm(seed, index)


def _service(mix, tag):
    def factory(seed, index, reduced):
        if reduced:
            return ServiceEpochs(
                seed, index, mix, tag, universe=2_000, active=24, batch=16,
                setup_epochs=1, epochs=4,
            )
        return ServiceEpochs(seed, index, mix, tag)

    return factory


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("sweep-cold", "peer_response", _sweep, trace_episodes=2),
        Workload("dynamics-warm", "activation", _dynamics, trace_episodes=5),
        Workload(
            "service-churn", "request",
            _service(DEFAULT_MIX, "service-churn"), trace_episodes=6,
        ),
        Workload(
            "service-read", "request",
            _service(SERVICE_MIX, "service-read"), trace_episodes=8,
        ),
    )
}
