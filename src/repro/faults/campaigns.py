"""Structured fault-injection campaigns.

A campaign runs many independent *rounds*: in each round a critical
message is broadcast over background traffic while a configurable mix
of disturbances strikes — the paper's deterministic tail patterns
(with some probability per round) and uniform random view noise.  The
automotive example in ``examples/automotive_network.py`` is a thin
wrapper over this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.batchreplay import BatchReplayEvaluator
from repro.can.frame import data_frame
from repro.errors import ConfigurationError, SimulationError
from repro.faults.bit_errors import RandomViewErrorInjector
from repro.faults.injector import CompositeInjector
from repro.faults.scenarios import SCRIPTS, make_controller
from repro.parallel.pool import merge_stats, run_tasks
from repro.parallel.seeds import ChildSeed, chunk_sizes, rng_from, spawn_seeds
from repro.properties.ledger import KINDS, DeliveryFlags, delivery_flags
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import SeedLike

#: Rounds per task chunk (fixed regardless of ``jobs``; see
#: :mod:`repro.parallel`).
CHUNK_ROUNDS = 8

#: (round index, attacked, category in {"imo", "double", "consistent"},
#: errors injected) — one entry per campaign round.
RoundResult = Tuple[int, bool, str, int]


@dataclass(frozen=True)
class CampaignSpec:
    """Parameters of a consistency campaign."""

    protocol: str = "can"
    m: int = 5
    n_nodes: int = 4
    rounds: int = 50
    #: Probability that a round suffers the Fig. 3a tail pattern.
    attack_probability: float = 0.3
    #: Uniform per-node per-bit view noise (0 disables).
    noise_ber_star: float = 0.0
    #: Background frames per non-critical node per round.
    background_frames: int = 1
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.n_nodes < 3:
            raise ConfigurationError("campaigns need at least 3 nodes")
        if not 0.0 <= self.attack_probability <= 1.0:
            raise ConfigurationError("attack_probability is a probability")
        if self.rounds < 1:
            raise ConfigurationError("at least one round required")


@dataclass
class CampaignOutcome:
    """Aggregated round classifications."""

    spec: CampaignSpec
    rounds: int = 0
    attacked_rounds: int = 0
    consistent: int = 0
    omissions: int = 0
    duplications: int = 0
    errors_injected: int = 0
    omission_rounds: List[int] = field(default_factory=list)
    #: Batch-backend provenance counters, summed over all round chunks
    #: (empty on the engine backend).
    backend_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def omission_rate(self) -> float:
        """Fraction of rounds ending in an inconsistent omission."""
        return self.omissions / self.rounds if self.rounds else 0.0

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.spec.protocol,
            "rounds": self.rounds,
            "attacked": self.attacked_rounds,
            "consistent": self.consistent,
            "imo": self.omissions,
            "double": self.duplications,
            "errors": self.errors_injected,
        }


def run_campaign(
    spec: CampaignSpec,
    jobs: Optional[int] = 1,
    backend: str = "engine",
) -> CampaignOutcome:
    """Run the campaign described by ``spec``.

    Every round gets its own child seed spawned from ``spec.seed``, so
    the attack schedule (and each round's noise stream) depends only on
    the seed and the round index — never on the protocol under test or
    on how many workers executed the rounds.  ``jobs > 1`` fans chunks
    of rounds out over the worker pool with identical results.

    ``backend="batch"`` classifies noise-free rounds with the vectorised
    tail replay of :mod:`repro.analysis.batchreplay`.  A noisy round
    asks its noise injector for a flip over the noise-free round's
    ticks (:meth:`~repro.faults.bit_errors.RandomViewErrorInjector.next_flip`):
    a round whose noise never fires resolves through the same tail
    replay; a round whose noise fires reruns on the engine with that
    injector.  Round rows are identical either way; provenance lands
    in ``CampaignOutcome.backend_stats``.
    """
    if backend not in ("engine", "batch"):
        raise ConfigurationError(
            "unknown backend %r (use 'engine' or 'batch')" % (backend,)
        )
    outcome = CampaignOutcome(spec=spec)
    children = spawn_seeds(spec.seed, spec.rounds)
    tasks = []
    start = 0
    for size in chunk_sizes(spec.rounds, CHUNK_ROUNDS):
        tasks.append(
            partial(
                run_rounds,
                protocol=spec.protocol,
                m=spec.m,
                n_nodes=spec.n_nodes,
                attack_probability=spec.attack_probability,
                noise_ber_star=spec.noise_ber_star,
                background_frames=spec.background_frames,
                rounds=tuple(
                    (index, children[index])
                    for index in range(start, start + size)
                ),
                backend=backend,
            )
        )
        start += size
    chunks = run_tasks(tasks, jobs)
    outcome.backend_stats = merge_stats(stats for _, stats in chunks)
    for rows, _ in chunks:
        for round_index, attacked, category, injected in rows:
            outcome.rounds += 1
            outcome.attacked_rounds += int(attacked)
            outcome.errors_injected += injected
            if category == "imo":
                outcome.omissions += 1
                outcome.omission_rounds.append(round_index)
            elif category == "double":
                outcome.duplications += 1
            else:
                outcome.consistent += 1
    return outcome


def run_rounds(
    protocol: str,
    m: int,
    n_nodes: int,
    attack_probability: float,
    noise_ber_star: float,
    background_frames: int,
    rounds: Tuple[Tuple[int, ChildSeed], ...],
    backend: str = "engine",
) -> Tuple[List[RoundResult], Dict[str, int]]:
    """Run one chunk of independent ``(round index, child seed)``
    rounds; one pool task of :func:`run_campaign`.

    Returns the round rows in chunk order and the batch-backend
    provenance counters (empty on the engine backend).  Both backends
    categorise a round by the delivery rule
    (:func:`~repro.properties.ledger.delivery_flags`) over its online
    controllers' counts.
    """
    node_names = ["critical"] + ["bg%d" % i for i in range(1, n_nodes)]
    # The attack schedule is drawn up front, in the exact per-round
    # order of the engine path, so both backends consume the same
    # generator stream and see the same attacked/victim plan; the
    # round's noise injector draws from the rest of its child stream.
    draws = []
    for round_index, child in rounds:
        rng = rng_from(child)
        attacked = bool(rng.random() < attack_probability)
        victim = node_names[1 + int(rng.integers(0, n_nodes - 1))]
        noise = None
        if noise_ber_star > 0.0:
            noise = RandomViewErrorInjector(noise_ber_star, seed=rng, names=node_names)
        draws.append((round_index, attacked, victim, noise))

    def engine_row(round_index, attacked, victim, noise) -> RoundResult:
        counts, injected = run_round(
            protocol=protocol,
            m=m,
            node_names=node_names,
            background_frames=background_frames,
            attacked=attacked,
            victim=victim,
            noise=noise,
        )
        return (round_index, attacked, _category(delivery_flags([counts]))[0], injected)

    if backend != "batch":
        return [engine_row(*draw) for draw in draws], {}
    # Without view noise a round is a pure function of the attack
    # draw: the critical frame has the lowest identifier so background
    # traffic never reorders it, and the Fig. 3a forces coincide with
    # view *flips* (the victim's flag or extended flag makes the
    # transmitter's masked EOF bit dominant on the bus), so the round's
    # flip sites are the script's sites with the force dropped.  Each
    # scripted fault fires exactly once, so a round's injected count is
    # its number of sites.  With view noise the round is *still* that
    # pure function whenever no view flips during the noise-free
    # reference round, so the round's injector scans those ticks up
    # front and only the rounds it finds a flip in rerun on the engine,
    # with the same injector (bit-identical to the engine path).
    # Built directly rather than through ``placement_classifier``: the
    # engine side of a round runs the whole round with background
    # traffic and noise (``engine_row``), not one placement of the
    # critical frame, so there is no engine placement oracle to choose.
    evaluator = BatchReplayEvaluator(
        protocol,
        m,
        node_names,
        frame=data_frame(0x010, b"\xc0\x01", message_id="critical"),
    )
    attack_sites = {
        victim: tuple(
            site[:3]
            for site in SCRIPTS["fig3"].resolve(
                _round_roles(node_names, victim), evaluator.geometry.eof_length
            )
        )
        for victim in node_names[1:]
    }
    combos = []
    combo_positions = []
    rows: Dict[int, RoundResult] = {}
    for position, (round_index, attacked, victim, noise) in enumerate(draws):
        if noise is not None:
            bits = round_reference_bits(
                protocol, m, node_names, background_frames, attacked, victim
            )
            if noise.next_flip(0, bits) is not None:
                rows[position] = engine_row(round_index, attacked, victim, noise)
                continue
        combos.append(attack_sites[victim] if attacked else ())
        combo_positions.append(position)
    engine_rounds = len(rows)
    categories = _category(delivery_flags(evaluator.evaluate(combos).deliveries))
    for position, combo, category in zip(combo_positions, combos, categories):
        round_index, attacked, _, _ = draws[position]
        rows[position] = (round_index, attacked, category, len(combo))
    stats = dict(evaluator.stats)
    if engine_rounds:
        stats["engine"] = stats.get("engine", 0) + engine_rounds
    return [rows[position] for position in range(len(draws))], stats


def _category(flags: DeliveryFlags) -> List[str]:
    """Each round's category: its kind, or ``"consistent"``."""
    return [KINDS[kind] or "consistent" for kind in flags.kinds().tolist()]


def _round_roles(node_names: Sequence[str], victim: str) -> Dict[str, List[str]]:
    """The script roles in a round: the critical node transmits, the
    victim is the X set and every other node the Y set."""
    return {
        "tx": [node_names[0]],
        "x": [victim],
        "y": [name for name in node_names[1:] if name != victim],
    }


def _round_network(
    protocol: str,
    m: int,
    node_names: Sequence[str],
    attacked: bool,
    victim: str,
):
    """Fresh controllers + scripted injector for one round (no frames yet)."""
    controllers = [make_controller(protocol, name, m=m) for name in node_names]
    # Attacked rounds suffer the Fig. 3a tail pattern.
    script = SCRIPTS["fig3" if attacked else "clean"]
    injector = script.injector(
        _round_roles(node_names, victim), controllers[0].geometry.eof_length
    )
    return controllers, injector


def _submit_round(controllers, background_frames: int):
    """Queue the critical command + background traffic; returns the command."""
    command = data_frame(0x010, b"\xc0\x01", message_id="critical")
    controllers[0].submit(command)
    for index, controller in enumerate(controllers[1:], start=1):
        for seq in range(background_frames):
            controller.submit(
                data_frame(0x100 + index, bytes([index, seq]))
            )
    return command


def _drain(engine: SimulationEngine) -> None:
    """Run a round until the bus is idle, or for the whole drain budget.

    Only the budget running out is tolerated (the round is classified
    as it stands); any other error propagates.
    """
    try:
        engine.run_until_idle(120000)
    except SimulationError as exc:
        if not str(exc).startswith("bus did not become idle"):
            raise


#: Per-process cache of noise-free reference round lengths, keyed by
#: everything a round's timeline depends on besides the noise stream.
_ROUND_REFERENCE: Dict[tuple, int] = {}


def round_reference_bits(
    protocol: str,
    m: int,
    node_names: Sequence[str],
    background_frames: int,
    attacked: bool,
    victim: Optional[str],
) -> int:
    """Bus bits of the noise-free (scripted-faults-only) round.

    A noisy round whose view noise never fires during these bits *is*
    this reference round, so the batch backend scans them for a flip
    to decide whether a round needs the engine at all.
    Cached per process — there are only ``n_nodes`` distinct rounds
    (not attacked, or attacked per victim) for a given spec.
    """
    key = (
        protocol,
        m,
        tuple(node_names),
        background_frames,
        victim if attacked else None,
    )
    cached = _ROUND_REFERENCE.get(key)
    if cached is not None:
        return cached
    controllers, scripted = _round_network(protocol, m, node_names, attacked, victim)
    engine = SimulationEngine(controllers, injector=scripted, record_bits=False)
    _submit_round(controllers, background_frames)
    _drain(engine)  # the noisy zero-flip round would stop at the same tick
    _ROUND_REFERENCE[key] = engine.time
    return engine.time


def run_round(
    protocol: str,
    m: int,
    node_names: Sequence[str],
    background_frames: int,
    attacked: bool,
    victim: str,
    noise: Optional[RandomViewErrorInjector] = None,
):
    """Execute one campaign round; returns (delivery counts, injected).

    ``noise`` is the round's view-noise injector, fresh or holding the
    draws of a scan over the round (None without noise).  Pure function
    of its arguments (including the noise stream's state) so
    :func:`run_rounds` can run rounds in worker processes.
    """
    controllers, scripted = _round_network(protocol, m, node_names, attacked, victim)
    injector = scripted
    if noise is not None:
        injector = CompositeInjector([scripted, noise])
    engine = SimulationEngine(controllers, injector=injector, record_bits=False)
    command = _submit_round(controllers, background_frames)
    _drain(engine)  # extreme noise may keep a node retrying; classify anyway
    key = command.wire_key()
    counts = [
        sum(1 for d in controller.deliveries if d.wire_key() == key)
        for controller in controllers
        if not controller.offline
    ]
    injected = scripted.total_fired + (noise.injected if noise else 0)
    return counts, injected


def compare_protocols(
    protocols: Sequence[str] = ("can", "minorcan", "majorcan"),
    jobs: Optional[int] = 1,
    backend: str = "engine",
    **spec_kwargs: object,
) -> List[CampaignOutcome]:
    """Run the same campaign (same seed) for several protocols."""
    return [
        run_campaign(
            CampaignSpec(protocol=protocol, **spec_kwargs),  # type: ignore[arg-type]
            jobs=jobs,
            backend=backend,
        )
        for protocol in protocols
    ]
