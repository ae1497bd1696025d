"""Batch replay of error placements: one canonical form, one table, two drivers.

``verify_consistency``, ``enumerate_tail_patterns`` and the Monte-Carlo
tail estimate classify error placements.  The engine
(:class:`EngineClassifier`) simulates each one bit by bit over the
whole frame; this module's :class:`BatchReplayEvaluator` gets the same
verdicts without instantiating the engine for almost all of them.

**One canonical form.**  :meth:`BatchReplayEvaluator._canonical` turns
a placement into sorted ``(node index, field, index)`` sites after two
exact reductions: duplicate triggers cancel by parity (they all fire
at the same first announcement, and a flip of a flip is the
identity), and the faulted receivers are relabelled ``1..k`` in
fault-group order (the receivers are identical deterministic
controllers, so permuting them permutes the deliveries and nothing
else).  That tuple is both the key of the process-wide verdict cache
and the placement that gets classified, so equivalent placements share
one verdict.

**One table.**  Pure tail placements (CRC delimiter, ACK slot, ACK
delimiter, EOF and the MajorCAN sampling window) follow a tail-only
micro-model of the controller state machine.  Its transition relation
is written once, as the per-node step :func:`_node_step`, and compiled
per tail geometry into a :class:`TransitionTable` over its reachable
``(state, tail time)`` pairs.  The micro-model is exact on the
placements it understands and refuses the rest: an unexpected program
layout, a fault field it does not announce, a dominant bit reaching an
idle node outside the orchestrated retransmission restart, or a
step-budget overflow bails, and the placement goes to the engine (the
oracle).

**Two drivers.**  An array driver steps one code per ``(placement,
node)`` through lockstep numpy passes; a scalar driver replays a
single placement over tuple copies of the same table.  Each fresh
batch goes to one of them by size (:data:`_ARRAY_BREAK_EVEN`), and a
placement that overflows its step budget retries once on the scalar
driver with a widened budget.

Placements touching header sites (the F1 desync universe: SOF through
the CRC sequence) instead take cached *reduced* engine runs, one per
fault-group arrangement: the transmitter, the faulted receivers and
one clean witness stand in for the whole network.  Lone mid-frame
DATA/CRC receiver flips share one run per parse signature of the
stuff-aware :func:`repro.can.encoding.header_shape` expansion.

Every route yields one ``(deliveries, attempts, label)`` verdict, and
one loop fans it out to every placement that shares it.  The
differential suite pins the drivers against the engine over the full
tail-site universe of every corpus frame, and against each other on
generated placements.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.can.fields import (
    ACK_DELIM,
    ACK_SLOT,
    CRC,
    CRC_DELIM,
    DATA,
    EOF,
    FLAG_LENGTH,
    INTERMISSION_LENGTH,
    SAMPLING,
)
from repro.can.frame import Frame, data_frame
from repro.can.encoding import (
    HEADER_KIND_OVERRUN,
    HEADER_SITE_FIELDS,
    OP_ACK,
    OP_EOF,
    OP_MATCH,
    header_shape,
    wire_program,
)
from repro.errors import AnalysisError
from repro.faults.scenarios import make_controller, run_placement

logger = logging.getLogger(__name__)

#: A fault site: (node name, field label, index within the field).
Site = Tuple[str, str, int]

# Micro-model states.  PROG states follow the compiled wire program
# (which never stalls, so the program index is the shared tail clock);
# the rest mirror the controller's error/overload epilogue states.
TX_PROG = 0
RX_PROG = 1
FLAG = 2
WAIT = 3
DELIM = 4
OVL_FLAG = 5
OVL_WAIT = 6
OVL_DELIM = 7
INTER = 8
IDLE = 9
MAJ_FLAG = 10
MAJ_QUIET = 11
MAJ_EXT = 12

P_CAN = 0
P_MINOR = 1
P_MAJOR = 2

_PROTO_CODES = {"can": P_CAN, "minorcan": P_MINOR, "majorcan": P_MAJOR}

#: Site-key sentinels: inert sites can never fire (the engine never
#: announces their position either), unsupported ones force the engine.
_INERT = -1
_UNSUPPORTED = -2


@dataclass(frozen=True)
class TailShape:
    """Precompiled tail geometry for one (protocol, m, frame)."""

    protocol: str
    proto: int
    m: int
    eof_length: int
    delimiter_length: int
    window_start: int
    window_end: int
    majority: int
    #: Keys per node: 3 pre-EOF bits + EOF + (MajorCAN) sampling window.
    key_count: int
    #: Generous per-attempt step bound; overflow bails to the engine.
    attempt_cap: int
    supported: bool

    @property
    def geometry(self) -> "TailGeometry":
        """The fields the tail micro-model reads: the table's key."""
        return TailGeometry(
            self.proto,
            self.eof_length,
            self.delimiter_length,
            self.window_start,
            self.window_end,
            self.majority,
            self.key_count,
        )


@lru_cache(maxsize=256)
def tail_shape(protocol: str, m: int, frame: Frame) -> TailShape:
    """Build (and cache) the tail shape for one protocol + frame."""
    proto = _PROTO_CODES.get(protocol)
    probe = make_controller(protocol, "shape-probe", m=m)
    eof_length = probe.config.eof_length
    delimiter_length = probe.config.delimiter_length
    window_start = getattr(probe, "window_start", 0) or 0
    window_end = getattr(probe, "window_end", 0)
    majority = getattr(probe, "majority", 0) or 0
    program = wire_program(frame, eof_length)
    supported = proto is not None
    tail_offset = 0
    expected_positions = [(CRC_DELIM, 0), (ACK_SLOT, 0), (ACK_DELIM, 0)]
    expected_positions += [(EOF, index) for index in range(eof_length)]
    expected_ops = [OP_MATCH, OP_ACK, OP_MATCH] + [OP_EOF] * eof_length
    try:
        tail_offset = program.positions.index((CRC_DELIM, 0))
    except ValueError:
        supported = False
    if supported:
        tail = slice(tail_offset, None)
        supported = (
            list(program.positions[tail]) == expected_positions
            and list(program.ops[tail]) == expected_ops
            and all(value == 1 for value in program.bit_values[tail])
        )
    key_count = 3 + eof_length
    if proto == P_MAJOR:
        key_count += window_end + 1
    attempt_cap = (
        (3 + eof_length)
        + (window_end + 2)
        + FLAG_LENGTH
        + 4 * delimiter_length
        + INTERMISSION_LENGTH
        + 32
    )
    return TailShape(
        protocol=protocol,
        proto=proto if proto is not None else -1,
        m=m,
        eof_length=eof_length,
        delimiter_length=delimiter_length,
        window_start=window_start,
        window_end=window_end,
        majority=majority,
        key_count=key_count,
        attempt_cap=attempt_cap,
        supported=supported,
    )


def _site_key(shape: TailShape, field: str, index: int) -> int:
    """Map a fault site to its tail key (or a sentinel).

    Keys 0..2 are the CRC delimiter / ACK slot / ACK delimiter bits,
    3+i the EOF bits, and (MajorCAN only) 3+E+p the sampling position
    ``p`` that quiet nodes announce.  Sites the tail never announces
    (out-of-range EOF indices, SAMPLING under CAN/MinorCAN) are inert:
    their trigger can never fire, exactly as in the engine.
    """
    if field == CRC_DELIM:
        return 0 if index == 0 else _INERT
    if field == ACK_SLOT:
        return 1 if index == 0 else _INERT
    if field == ACK_DELIM:
        return 2 if index == 0 else _INERT
    if field == EOF:
        if 0 <= index < shape.eof_length:
            return 3 + index
        return _INERT
    if field == SAMPLING:
        if shape.proto == P_MAJOR and 0 <= index <= shape.window_end:
            return 3 + shape.eof_length + index
        return _INERT
    return _UNSUPPORTED


#: A verdict: ``(deliveries, attempts, label)``, ``label`` naming the
#: ``stats`` counter of the route that computed it.
Verdict = Tuple[Tuple[int, ...], int, str]

#: A canonical site: (node index, field label, index within the field).
IndexSite = Tuple[int, str, int]


@dataclass(frozen=True)
class PlacementOutcome:
    """Classification of one placement, aligned with ``node_names``."""

    deliveries: Tuple[int, ...]
    attempts: int

    @property
    def consistent(self) -> bool:
        return len(set(self.deliveries)) <= 1

    @property
    def inconsistent_omission(self) -> bool:
        return any(count == 0 for count in self.deliveries) and any(
            count > 0 for count in self.deliveries
        )

    @property
    def double_reception(self) -> bool:
        return any(count > 1 for count in self.deliveries)

    @property
    def kind(self) -> Optional[str]:
        """Counterexample kind, or None for a consistent outcome."""
        return delivery_kind(self.deliveries)


def delivery_kind(deliveries: Sequence[int]) -> Optional[str]:
    """Counterexample kind of per-node delivery counts, or None if consistent.

    The one imo/double rule of the placement drivers: verification
    counterexamples, campaign round categories and the
    :func:`placement_classifier` hit tuples all read it.
    """
    if any(count == 0 for count in deliveries) and any(
        count > 0 for count in deliveries
    ):
        return "imo"
    if any(count > 1 for count in deliveries):
        return "double"
    if len(set(deliveries)) > 1:
        return "inconsistent"
    return None


def placement_classifier(
    protocol: str,
    m: int,
    node_names: Sequence[str],
    backend: str,
    payload: bytes = b"\x55",
) -> EngineClassifier:
    """The placement classifier of ``backend``: the one engine/batch choice.

    ``"batch"`` gives a :class:`BatchReplayEvaluator`; ``"engine"`` an
    :class:`EngineClassifier`, the oracle.  Both simulate the
    one-byte-``payload`` frame every placement driver uses, take a
    whole batch of placements through ``evaluate`` (outcomes in input
    order), build hit tuples with ``counterexample``, and expose their
    provenance counters as ``stats`` (``None`` on the engine).
    """
    frame = data_frame(0x123, payload, message_id="m")
    if backend == "batch":
        return BatchReplayEvaluator(protocol, m, node_names, frame)
    if backend == "engine":
        return EngineClassifier(protocol, m, node_names, frame)
    raise AnalysisError("unknown backend %r (use 'engine' or 'batch')" % (backend,))


class EngineClassifier:
    """Classify each placement of ``frame`` with one full engine run,
    exactly as given.

    No canonicalisation and no cache: this is the oracle the batch
    replay is checked against.  :meth:`evaluate` is lazy, so a caller
    that stops at its first hit runs no further placement.  The batch
    evaluator reuses the network, the hit tuple and the engine run.
    """

    #: Provenance counters; the oracle keeps none.
    stats: Optional[Dict[str, int]] = None

    def __init__(
        self, protocol: str, m: int, node_names: Sequence[str], frame: Frame
    ) -> None:
        self.protocol = protocol
        self.m = m
        self.node_names = tuple(node_names)
        self.frame = frame

    def evaluate(self, combos: Iterable[Sequence[Site]]) -> Iterator[PlacementOutcome]:
        """Yield one engine outcome per placement, in input order."""
        for combo in combos:
            yield _expand(self._engine_outcome(combo), None)

    def counterexample(
        self, combo: Sequence[Site], outcome: PlacementOutcome
    ) -> Optional[Tuple]:
        """The picklable :class:`~repro.analysis.verification.Counterexample`
        arguments of a broken placement, or None."""
        kind = outcome.kind
        if kind is None:
            return None
        deliveries = tuple(
            sorted(zip(self.node_names, outcome.deliveries))
        )
        return (tuple(combo), deliveries, outcome.attempts, kind)

    def _engine_outcome(self, combo: Sequence[Site]) -> Verdict:
        outcome = run_placement(
            self.protocol, self.m, self.node_names, combo, self.frame
        )
        deliveries = tuple(outcome.deliveries[name] for name in self.node_names)
        return deliveries, outcome.attempts, "engine"


class BatchReplayEvaluator(EngineClassifier):
    """Classify batches of error placements, mostly without engine runs.

    Placements the micro-model cannot represent (unsupported fields,
    unexpected program layout, bailed simulations) transparently fall
    back to the engine, so every returned outcome is exact.
    """

    def __init__(
        self, protocol: str, m: int, node_names: Sequence[str], frame: Frame
    ) -> None:
        super().__init__(protocol, m, node_names, frame)
        self.shape = tail_shape(protocol, m, frame)
        self._node_index = {name: i for i, name in enumerate(self.node_names)}
        #: Outcome provenance counters: placements classified by the
        #: array pass, the scalar micro-sim, the reduced header runs,
        #: and the engine fallback.
        self.stats: Dict[str, int] = {
            "batch": 0,
            "scalar": 0,
            "header": 0,
            "engine": 0,
        }

    # -- public API ----------------------------------------------------

    def evaluate(self, combos: Iterable[Sequence[Site]]) -> List[PlacementOutcome]:
        """Classify every placement; order follows the input.

        Verdicts are memoised in the process-wide :data:`_COMBO_CACHE`
        under the canonical form of :meth:`_canonical`, and the cached
        delivery tuple is permuted back to the real receivers on
        retrieval.  Repeated placements (Monte-Carlo draws across
        chunks, the F1 universe re-visiting tail-window sites) therefore
        classify at dictionary-lookup cost.  Each placement adds 1 to
        ``stats`` under the label of the route that first computed its
        verdict, cache hits included.
        """
        combos = list(combos)
        verdicts = self._verdicts()
        placements = [self._canonical(combo) for combo in combos]
        fresh = dict.fromkeys(
            placement[0]
            for placement in placements
            if placement is not None and placement[0] not in verdicts
        )
        verdicts.update(self._classify(fresh))
        outcomes = []
        for combo, placement in zip(combos, placements):
            if placement is None:
                # A site names an unknown node: exact semantics live in
                # the engine and the combo is not worth caching.
                verdict, back = self._engine_outcome(combo), None
            else:
                verdict, back = verdicts[placement[0]], placement[1]
            self.stats[verdict[2]] += 1
            outcomes.append(_expand(verdict, back))
        return outcomes

    # -- internals -----------------------------------------------------

    def _verdicts(self) -> Dict[Tuple[IndexSite, ...], Verdict]:
        """This configuration's verdicts in :data:`_COMBO_CACHE`.

        Looked up once per :meth:`evaluate` call, so :func:`clear_caches`
        reaches evaluators built before it.  The whole cache is cleared
        once it holds :data:`_COMBO_CACHE_LIMIT` verdicts.
        """
        if sum(map(len, _COMBO_CACHE.values())) >= _COMBO_CACHE_LIMIT:
            _COMBO_CACHE.clear()
        config = (self.protocol, self.m, self.frame, len(self.node_names))
        return _COMBO_CACHE.setdefault(config, {})

    def _canonical(
        self, combo: Sequence[Site]
    ) -> Optional[Tuple[Tuple[IndexSite, ...], Optional[Tuple[int, ...]]]]:
        """The canonical form ``(sites, back)`` of ``combo``.

        ``sites`` are sorted ``(node index, field, index)`` triples:
        the verdict key, and the placement that gets classified.
        Returns None when a site names an unknown node.

        Two exact reductions happen here so equivalent combos share one
        form:

        * *parity*: duplicate triggers on one ``(node, field, index)``
          position all fire at the same first announcement, and a flip
          of a flip is the identity — an even repeat count cancels to
          nothing, an odd one collapses to a single flip;
        * *receiver symmetry*: the receivers are identical
          deterministic controllers, so permuting which of them carry
          which fault group permutes the deliveries and nothing else.
          The faulted receivers are relabelled ``1..k`` in sorted
          fault-group order, and ``back`` records the real node index
          behind each canonical label (``back[j-1]`` for label ``j``;
          ``None`` when the relabelling is the identity).
        """
        odd = set()
        for name, field_name, index in combo:
            node = self._node_index.get(name)
            if node is None:
                return None
            odd ^= {(node, field_name, index)}
        sites = sorted(odd)
        groups: Dict[int, List[Tuple[str, int]]] = {}
        for node, field_name, index in sites:
            if node:
                groups.setdefault(node, []).append((field_name, index))
        order = sorted(groups, key=lambda node: (groups[node], node))
        if all(node == label for label, node in enumerate(order, 1)):
            return tuple(sites), None
        relabel = {node: label for label, node in enumerate(order, 1)}
        sites = sorted((relabel.get(node, 0), f, i) for node, f, i in sites)
        return tuple(sites), tuple(order)

    def _classify(
        self, placements: Sequence[Tuple[IndexSite, ...]]
    ) -> Iterator[Tuple[Tuple[IndexSite, ...], Verdict]]:
        """Yield ``(sites, verdict)`` for each fresh canonical placement.

        Header placements take a reduced engine run and placements
        outside every model the engine.  Pure tail placements replay on
        the transition table: on the array driver from
        :data:`_ARRAY_BREAK_EVEN` fresh placements up, on the scalar one
        below, whose per-placement cost beats the array loop's fixed
        per-call cost on narrow batches.
        """
        fast = []
        for sites in placements:
            route, resolved = self._resolve(sites)
            if route == "fast":
                fast.append((sites, resolved))
            elif route == "reduced":
                yield sites, self._reduced_outcome(resolved)
            else:
                yield sites, self._engine_outcome(self._named(sites))
        if not fast:
            return
        table = transition_table(self.shape.geometry)
        n = len(self.node_names)
        arms = [arm for _, arm in fast]
        if len(fast) >= _ARRAY_BREAK_EVEN:
            cap = _step_cap(self.shape, max(map(len, arms)))
            replays = _replay_array(table, n, arms, cap)
            label = "batch"
        else:
            replays = [
                _replay_scalar(table, n, arm, _step_cap(self.shape, len(arm)))
                for arm in arms
            ]
            label = "scalar"
        for (sites, arm), replay in zip(fast, replays):
            if replay is not None:
                yield sites, replay + (label,)
                continue
            # The common bail on dense placements is the step budget:
            # every flip can restart the frame and the cascade outruns
            # the nominal cap.  A single scalar retry with a widened
            # budget stays exact (same transition table, more steps)
            # and keeps these off the engine; genuine envelope
            # violations bail again and fall through to the oracle.
            replay = _replay_scalar(table, n, arm, _step_cap(self.shape, len(arm), 8))
            if replay is not None:
                yield sites, replay + ("scalar",)
            else:
                yield sites, self._engine_outcome(self._named(sites))

    def _named(self, sites: Sequence[IndexSite]) -> Tuple[Site, ...]:
        return tuple((self.node_names[node], f, i) for node, f, i in sites)

    def _header_shape(self):
        return header_shape(self.frame, self.shape.eof_length)

    def _resolve(self, sites: Sequence[IndexSite]) -> Tuple[str, object]:
        """Route canonical sites to one of the three classification paths.

        Returns ``("fast", armed_keys)`` for pure tail placements,
        ``("reduced", (header_hits, tail_sites))`` for combos touching
        an announced header site, and
        ``("engine", None)`` for anything outside the modelled envelope
        (unknown fields, unexpected program layouts).

        Config-inert tail sites — positions no parse of this controller
        configuration can ever announce — are dropped outright, exactly
        as in the engine where their trigger can never fire.  A header
        site outside the nominal announced set is subtler: an earlier
        fault on the *same* node can shift that node's parse until the
        position appears (a corrupted DLC lengthens the data field, a
        mid-frame error truncates attempt one and re-announces in the
        retry), while faults on other nodes only ever truncate the
        bus's nominal prefix and cannot conjure new positions.  Such a
        site is therefore dropped only when its node carries no other
        live site in the combo; otherwise it rides along into the
        reduced run, which replays the real engine and needs no
        announcement reasoning.
        """
        if not self.shape.supported:
            return ("engine", None)
        armed: List[Tuple[int, int]] = []
        tail_sites: List[IndexSite] = []
        header_hits: List[IndexSite] = []
        silent: List[IndexSite] = []
        live_nodes = set()
        shape = None
        for site in sites:
            node, field_name, index = site
            if field_name in HEADER_SITE_FIELDS:
                if shape is None:
                    shape = self._header_shape()
                if (field_name, index) in shape.announced:
                    header_hits.append(site)
                    live_nodes.add(node)
                else:
                    silent.append(site)
                continue
            key = _site_key(self.shape, field_name, index)
            if key == _UNSUPPORTED:
                return ("engine", None)
            if key == _INERT:
                continue
            armed.append((node, key))
            tail_sites.append(site)
            live_nodes.add(node)
        header_hits += [site for site in silent if site[0] in live_nodes]
        if header_hits:
            return ("reduced", (tuple(header_hits), tuple(tail_sites)))
        return ("fast", armed)

    def _reduced_outcome(
        self, spec: Tuple[Tuple[IndexSite, ...], Tuple[IndexSite, ...]]
    ) -> Verdict:
        """Classify a combo touching header sites exactly.

        Rests on receiver symmetry: the controllers are deterministic
        and a view fault never disturbs the bus until the faulted node
        itself drives, so every non-faulted in-sync receiver behaves
        bit-identically, and the wired-AND bus is invariant under
        collapsing all clean receivers into a single witness.  The
        n-node verdict therefore follows from one *reduced* engine run
        over transmitter + the distinct faulted receivers + one witness
        (the witness is dropped when every receiver is faulted — its
        ACK and error flags would change the bus).  Verdicts are cached
        per fault-group arrangement in :data:`_REDUCED_CACHE`; combined
        with the canonical relabelling in :meth:`_canonical`, one run
        serves every placement of the same fault groups over any
        receivers.  A lone receiver flip in the mid-frame DATA/CRC
        fields shares one entry per
        :class:`~repro.can.encoding.HeaderSiteRow` parse signature
        instead (identical flipped-stream trajectories drive the
        faulted receiver — and hence the whole bus — identically).
        """
        header_hits, tail_sites = spec
        sites = sorted(header_hits + tail_sites)
        rx_nodes = sorted({node for node, _, _ in sites if node != 0})
        n = len(self.node_names)
        k = len(rx_nodes)
        has_witness = k < n - 1
        groups = tuple(
            tuple((f, i) for node2, f, i in sites if node2 == node)
            for node in [0] + rx_nodes
        )
        class_key: Tuple = groups
        if len(sites) == 1 and k == 1 and sites[0][1] in (DATA, CRC):
            row = self._header_shape().by_site[sites[0][1:]]
            if row.kind != HEADER_KIND_OVERRUN:
                class_key = ("sig", row.signature)
        cache_key = (self.protocol, self.m, self.frame, class_key, has_witness)
        verdict = _REDUCED_CACHE.get(cache_key)
        if verdict is None:
            verdict = _reduced_class_run(
                self.protocol, self.m, self.frame, groups, has_witness
            )
            _REDUCED_CACHE[cache_key] = verdict
        tx_count, faulted_counts, witness_count, attempts = verdict
        by_node = dict(zip(rx_nodes, faulted_counts))
        deliveries = tuple(
            tx_count if i == 0 else by_node.get(i, witness_count)
            for i in range(n)
        )
        return deliveries, attempts, "header"


def _expand(verdict: Verdict, back: Optional[Tuple[int, ...]]) -> PlacementOutcome:
    """The outcome of one placement from its canonical verdict.

    The verdict's deliveries are for the canonical arrangement —
    transmitter at 0, faulted receivers at ``1..k``, witnesses after —
    and every witness delivery is equal by symmetry, so undoing the
    relabelling only needs ``back``, the canonical-label-to-real-node
    map.
    """
    deliveries, attempts, _ = verdict
    if back is not None:
        k = len(back)
        n = len(deliveries)
        witness = deliveries[k + 1] if k + 1 < n else 0
        rebuilt = [witness] * n
        rebuilt[0] = deliveries[0]
        for label, node in enumerate(back, start=1):
            rebuilt[node] = deliveries[label]
        deliveries = tuple(rebuilt)
    return PlacementOutcome(deliveries, attempts)


#: Reduced-run verdicts per fault-group arrangement, keyed by
#: ``(protocol, m, frame, groups, has_witness)`` — ``groups`` being the
#: per-carrier fault-site tuples, transmitter first, or
#: ``("sig", signature)`` for a lone DATA/CRC receiver flip — and
#: holding ``(tx_count, faulted_counts, witness_count, attempts)``.
#: Module-level so every evaluator in a process (and every chunk a pool
#: worker runs) shares one cache; entries are tiny tuples.
_REDUCED_CACHE: Dict[Tuple, Tuple[int, Tuple[int, ...], int, int]] = {}

#: Final verdicts per configuration ``(protocol, m, frame, n_nodes)``,
#: each a dict from canonical sites to :data:`Verdict`.  Shared by every
#: evaluator in a process, so chunked Monte-Carlo draws and overlapping
#: verification universes classify repeats at lookup cost.  Bounded by
#: a wholesale clear — entries are tiny and the universes that feed it
#: are small, so the limit only guards runaway many-frame campaigns.
_COMBO_CACHE: Dict[Tuple, Dict[Tuple[IndexSite, ...], Verdict]] = {}
_COMBO_CACHE_LIMIT = 1 << 19

#: Minimum fresh-placement batch for the array pass; below this the
#: scalar driver (~15-30 us/placement) beats the array loop's fixed
#: per-call cost.  The measured crossover is ~48-128 placements
#: (MajorCAN_5 over five nodes to CAN over three, 2-vCPU Xeon VM).
#: The value stays 96 because the route label it picks is persisted
#: (sweep ``backend_stats``, ``verify`` stdout, benchmark fingerprints).
_ARRAY_BREAK_EVEN = 96


def clear_caches() -> None:
    """Empty the process-wide verdict caches (benchmarks and tests),
    including the per-universe tail-pattern verdicts of
    :mod:`repro.analysis.enumeration` and the compiled transition
    tables."""
    from repro.analysis.enumeration import tail_verdicts

    _REDUCED_CACHE.clear()
    _COMBO_CACHE.clear()
    tail_verdicts.cache_clear()
    transition_table.cache_clear()


def _reduced_class_run(
    protocol: str,
    m: int,
    frame: Frame,
    groups: Sequence[Tuple[Tuple[str, int], ...]],
    has_witness: bool,
) -> Tuple[int, Tuple[int, ...], int, int]:
    """One reduced engine run classifying a fault-group arrangement.

    ``groups`` holds the fault sites per carrier, transmitter first;
    the run instantiates one node per carrier plus one witness when the
    full network has a clean receiver left.
    """
    carriers = ["tx"] + ["f%d" % j for j in range(1, len(groups))]
    names = carriers + (["wit"] if has_witness else [])
    combo = [
        (name, field_name, index)
        for name, group in zip(carriers, groups)
        for field_name, index in group
    ]
    outcome = run_placement(protocol, m, names, combo, frame)
    tx_count = outcome.deliveries["tx"]
    faulted_counts = tuple(
        outcome.deliveries[name] for name in carriers[1:]
    )
    witness_count = outcome.deliveries["wit"] if has_witness else 0
    return (tx_count, faulted_counts, witness_count, outcome.attempts)


def warm_shapes(payload: bytes = b"\x55") -> None:
    """Pre-populate the wire/tail/header shape caches in this process.

    An untimed warm-up for benchmarks that time warm-cache passes.
    Covers the protocols and ``m`` values the sweeps iterate over; other
    frames still warm lazily through the ``lru_cache``s.
    """
    frame = data_frame(0x123, payload, message_id="m")
    for protocol, ms in (
        ("can", (5,)),
        ("minorcan", (5,)),
        ("majorcan", (3, 4, 5, 6, 7)),
    ):
        for m in ms:
            shape = tail_shape(protocol, m, frame)
            header_shape(frame, shape.eof_length)


#: Display order of the provenance counters in stats lines.
_STAT_KEYS = ("batch", "scalar", "header", "resume", "engine")

#: Engine share above which :func:`engine_share_notice` speaks up.
ENGINE_SHARE_NOTICE = 0.10


def format_stats(stats: Dict[str, int]) -> str:
    """One-line ``backend stats:`` summary of a provenance split."""
    total = sum(stats.get(key, 0) for key in _STAT_KEYS)
    parts = " ".join(
        "%s=%d" % (key, stats.get(key, 0)) for key in _STAT_KEYS
    )
    return "backend stats: %s (total %d)" % (parts, total)


def engine_share_notice(stats: Dict[str, int]) -> Optional[str]:
    """Log and return a notice when the engine share exceeds 10%.

    Silent engine bail-outs erode the batch backend's speedup without
    changing results; the notice makes a coverage gap visible in CLI
    output and logs.  Returns ``None`` when the share is acceptable.
    """
    total = sum(stats.get(key, 0) for key in _STAT_KEYS)
    engine = stats.get("engine", 0)
    if not total or engine / total <= ENGINE_SHARE_NOTICE:
        return None
    message = (
        "notice: engine fallback classified %d/%d placements (%.0f%% > %.0f%%)"
        % (engine, total, 100.0 * engine / total, 100.0 * ENGINE_SHARE_NOTICE)
    )
    logger.info(message)
    return message


# ---------------------------------------------------------------------------
# The tail micro-model: one transition relation, compiled to one table
# ---------------------------------------------------------------------------


class TailGeometry(NamedTuple):
    """The tail-shape fields the transition relation reads.

    Frame-independent, so every payload of one (protocol, m) shares a
    :func:`transition_table`.
    """

    proto: int
    eof_length: int
    delimiter_length: int
    window_start: int
    window_end: int
    majority: int
    key_count: int


class _NodeState(NamedTuple):
    """One node's micro-model state.

    Every transition builds its successor from the fields that state
    uses, so dead fields are zero: ``flag`` outside the flag states,
    ``drem`` outside the delimiters, ``ipos`` outside INTER,
    ``first``/``defer`` outside FLAG/WAIT, ``samp``/``votes`` outside
    MAJ_FLAG/MAJ_QUIET (``votes`` also while ``samp`` is off).
    """

    st: int
    flag: int = 0
    drem: int = 0
    ipos: int = 0
    first: bool = False
    defer: bool = False
    samp: bool = False
    votes: int = 0


def _drives(state: _NodeState, t: int) -> bool:
    """Whether a node drives the bus dominant at tail time ``t``:
    active flags, and receivers acknowledging in the ACK slot."""
    return state.st in (FLAG, OVL_FLAG, MAJ_FLAG, MAJ_EXT) or (
        state.st == RX_PROG and t == 1
    )


def _announced_key(
    geometry: TailGeometry, state: _NodeState, t: int
) -> Optional[int]:
    """The tail key a node announces at time ``t`` (see :func:`_site_key`):
    its program position, or a MajorCAN sampling position while quiet."""
    if state.st in (TX_PROG, RX_PROG):
        return t
    if state.st == MAJ_QUIET and 0 <= t - 2 <= geometry.window_end:
        return 3 + geometry.eof_length + t - 2
    return None


def _node_step(
    geometry: TailGeometry, state: _NodeState, t: int, seen: bool
) -> Tuple[_NodeState, int, bool]:
    """One node's bit phase: the micro-model's transition relation.

    ``seen`` is the bit the node samples at tail time ``t`` (the bus,
    inverted on a fired fault).  Returns ``(state', delivered, bail)``:
    ``delivered`` counts a delivery this bit, and ``bail`` flags a
    situation outside the modelled envelope (the placement goes to the
    engine).
    """
    S = _NodeState
    st = state.st
    if st == TX_PROG or st == RX_PROG:
        is_tx = st == TX_PROG
        if t < 3:
            if (t != 1 and seen) or (t == 1 and is_tx and not seen):
                # Dominant delimiter bit, or a missing ACK: an error
                # whose flag starts inside the frame tail.
                if geometry.proto == P_MAJOR:
                    return S(MAJ_FLAG, FLAG_LENGTH), 0, False
                return S(FLAG, FLAG_LENGTH, first=True), 0, False
            return state, 0, False
        index = t - 3
        last = geometry.eof_length - 1
        if geometry.proto == P_CAN:
            if is_tx or index < last:
                if seen:
                    return S(FLAG, FLAG_LENGTH, first=True), 0, False
                if index == last:
                    return S(INTER), 1, False
                # Receivers deliver at the last-but-one EOF bit.
                return state, int(not is_tx and index == last - 1), False
            if seen:
                return S(OVL_FLAG, FLAG_LENGTH), 0, False
            return S(INTER), 0, False
        if seen:
            if geometry.proto == P_MINOR:
                return S(FLAG, FLAG_LENGTH, first=True, defer=index == last), 0, False
            if index + 1 <= geometry.majority:
                return S(MAJ_FLAG, FLAG_LENGTH, samp=True), 0, False
            # Second sub-field: accept now.
            return S(MAJ_EXT), 1, False
        if index == last:
            return S(INTER), 1, False
        return state, 0, False
    if st == FLAG or st == OVL_FLAG or st == MAJ_FLAG:
        if state.flag > 1:
            return state._replace(flag=state.flag - 1), 0, False
        after = {FLAG: WAIT, OVL_FLAG: OVL_WAIT, MAJ_FLAG: MAJ_QUIET}[st]
        return state._replace(st=after, flag=0), 0, False
    if st == WAIT:
        delivered = 0
        if state.first:
            # The first bit after the flag resolves a deferred primary
            # error: dominant means it was primary, so accept.
            delivered = int(state.defer and seen)
            state = S(WAIT)
        if not seen:
            return S(DELIM, drem=geometry.delimiter_length - 1), delivered, False
        return state, delivered, False
    if st == DELIM or st == OVL_DELIM:
        if seen:
            if state.drem <= 1:
                return S(OVL_FLAG, FLAG_LENGTH), 0, False
            return S(FLAG, FLAG_LENGTH, first=True), 0, False
        if state.drem <= 1:
            return S(INTER), 0, False
        return S(st, drem=state.drem - 1), 0, False
    if st == OVL_WAIT:
        if seen:
            return state, 0, False
        return S(OVL_DELIM, drem=geometry.delimiter_length - 1), 0, False
    if st == INTER:
        if seen:
            if state.ipos < INTERMISSION_LENGTH - 1:
                return S(OVL_FLAG, FLAG_LENGTH), 0, False
            return state, 0, True  # un-orchestrated start of frame
        if state.ipos + 1 >= INTERMISSION_LENGTH:
            return S(IDLE), 0, False
        return S(INTER, ipos=state.ipos + 1), 0, False
    if st == IDLE:
        return state, 0, seen  # reception outside the restart
    clock = t - 2
    if st == MAJ_QUIET:
        votes = state.votes
        if state.samp and geometry.window_start <= clock <= geometry.window_end and seen:
            # Votes saturate at the majority: only ``>= majority`` is read.
            votes = min(votes + 1, geometry.majority)
        if clock < geometry.window_end:
            return state._replace(votes=votes), 0, False
        return S(WAIT), int(state.samp and votes >= geometry.majority), False
    # MAJ_EXT
    if clock >= geometry.window_end:
        return S(WAIT), 0, False
    return state, 0, False


@dataclass(frozen=True)
class TransitionTable:
    """The micro-model compiled over its reachable ``(state, t)`` pairs.

    A node's code is ``2 * pair``, so the entry for the bit it sees is
    ``code + seen``: ``next`` maps it to the successor code (the tail
    clock advances with it), ``delivered`` and ``bail`` are that step's
    outputs.  ``drives``, ``key`` (``key_count`` when the node announces
    nothing), ``is_idle`` and ``ready`` (idle, or on the last
    intermission bit: may join a restarted attempt) depend on the pair
    only and are stored twice.  ``columns`` holds tuple copies of the
    same seven tables for the scalar driver.
    """

    next: np.ndarray
    delivered: np.ndarray
    bail: np.ndarray
    drives: np.ndarray
    key: np.ndarray
    is_idle: np.ndarray
    ready: np.ndarray
    key_count: int
    columns: Tuple[Tuple, ...]


#: Codes of the transmitter and receiver program starts (tail time 0).
_TX_START = 0
_RX_START = 2


@lru_cache(maxsize=64)
def transition_table(geometry: TailGeometry) -> TransitionTable:
    """Compile :func:`_node_step` into a :class:`TransitionTable`.

    A breadth-first search from the two program starts enumerates the
    reachable ``(state, t)`` pairs under both sampled bits.  ``t`` is
    clamped at ``max(3 + eof, window_end + 3)``: past the EOF no node
    is in a program state and past the window no quiet or extended
    MajorCAN node reads the clock, so later times step identically.
    """
    tmax = max(3 + geometry.eof_length, geometry.window_end + 3)
    none = geometry.key_count
    pairs = [(_NodeState(TX_PROG), 0), (_NodeState(RX_PROG), 0)]
    index = {pair: i for i, pair in enumerate(pairs)}
    columns: Tuple[List, ...] = tuple([] for _ in range(7))
    nxt, delivered, bail, drives, key, is_idle, ready = columns
    for state, t in pairs:  # grows as the search discovers pairs
        announced = _announced_key(geometry, state, t)
        for seen in (False, True):
            after, got, bails = _node_step(geometry, state, t, seen)
            pair = (after, min(t + 1, tmax))
            if pair not in index:
                index[pair] = len(pairs)
                pairs.append(pair)
            nxt.append(2 * index[pair])
            delivered.append(got)
            bail.append(bails)
            drives.append(_drives(state, t))
            key.append(none if announced is None else announced)
            is_idle.append(state.st == IDLE)
            ready.append(
                state.st == IDLE
                or (state.st == INTER and state.ipos == INTERMISSION_LENGTH - 1)
            )
    code_type = np.min_scalar_type(2 * len(pairs))
    dtypes = (code_type, np.uint8, bool, bool, np.min_scalar_type(none), bool, bool)
    arrays = [np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes)]
    for array in arrays:
        array.setflags(write=False)  # one cached table serves every caller
    return TransitionTable(
        *arrays, key_count=none, columns=tuple(map(tuple, columns))
    )


def _step_cap(shape: TailShape, flips: int, scale: int = 1) -> int:
    """Step budget for replaying ``flips`` armed sites (``scale`` widens
    it for the cascade-overflow retry); overflow bails to the engine."""
    return ((flips + 2) * shape.attempt_cap + 16) * scale


def _replay_scalar(
    table: TransitionTable,
    n_nodes: int,
    armed_pairs: Sequence[Tuple[int, int]],
    cap: int,
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Replay one placement, node by node, over the table's tuple copies.

    ``armed_pairs`` are ``(node, key)`` fault sites.  Returns
    ``(deliveries, attempts)``, or None to bail to the engine (an
    envelope violation or more than ``cap`` steps).
    """
    nxt, delivered, bail, drives, key, is_idle, ready = table.columns
    masks = [0] * n_nodes
    for node, site_key in armed_pairs:
        masks[node] |= 1 << site_key
    armed = any(masks)
    start = [_TX_START] + [_RX_START] * (n_nodes - 1)
    codes = list(start)
    deliver = [0] * n_nodes
    attempts = 1
    nodes = range(n_nodes)
    for _ in range(cap):
        bus = False
        for code in codes:
            if drives[code]:
                bus = True
                break
        for i in nodes:
            code = codes[i]
            entry = code + bus
            if armed and masks[i] >> key[code] & 1:
                masks[i] ^= 1 << key[code]
                armed = any(masks)
                entry = code + (not bus)
            if bail[entry]:
                return None
            codes[i] = nxt[entry]
            deliver[i] += delivered[entry]
        # End of step: finished, or an orchestrated retransmission.
        if is_idle[codes[0]]:
            if deliver[0]:
                if all(is_idle[code] for code in codes):
                    return tuple(deliver), attempts
            elif all(ready[code] for code in codes[1:]):
                attempts += 1
                codes = list(start)
            else:
                return None
    return None  # step budget exhausted


def _replay_array(
    table: TransitionTable,
    n_nodes: int,
    placements: Sequence[Sequence[Tuple[int, int]]],
    cap: int,
) -> List[Optional[Tuple[Tuple[int, ...], int]]]:
    """Replay a batch of placements in lockstep array passes.

    The same table lookups as :func:`_replay_scalar`, over one code per
    ``(placement, node)``: each pass advances every live placement by
    one bus bit, and finished placements are compacted out.  ``cap``
    bounds the passes of the whole batch.
    """
    batch = len(placements)
    results: List[Optional[Tuple[Tuple[int, ...], int]]] = [None] * batch
    if batch == 0:
        return results
    width = table.key_count + 1  # the last column is the "no key" sentinel
    armed = np.zeros((batch, n_nodes, width), dtype=bool)
    for b, pairs in enumerate(placements):
        for node, site_key in pairs:
            armed[b, node, site_key] = True
    start = np.full(n_nodes, _RX_START, dtype=np.intp)
    start[0] = _TX_START
    codes = np.tile(start, (batch, 1))
    deliver = np.zeros((batch, n_nodes), dtype=np.int32)
    attempts = np.ones(batch, dtype=np.int32)
    rows = np.arange(batch)
    slots = np.arange(batch * n_nodes).reshape(batch, n_nodes) * width
    for _ in range(cap):
        flat = armed.reshape(-1)
        at = slots + table.key[codes]
        fired = flat[at]
        flat[at] = False
        entry = codes + (fired ^ table.drives[codes].any(axis=1)[:, None])
        codes = table.next[entry].astype(np.intp)
        deliver += table.delivered[entry]
        bailed = table.bail[entry].any(axis=1)
        tx_idle = table.is_idle[codes[:, 0]]
        if not (tx_idle.any() or bailed.any()):
            continue
        # End of step: finished, or an orchestrated retransmission.
        pending = deliver[:, 0] == 0
        done = tx_idle & ~pending & table.is_idle[codes].all(axis=1) & ~bailed
        restart = tx_idle & pending & ~bailed
        ok = restart & table.ready[codes[:, 1:]].all(axis=1)
        bailed |= restart & ~ok
        attempts[ok] += 1
        codes[ok] = start
        keep = ~(done | bailed)
        if keep.all():
            continue
        for b in np.flatnonzero(done):
            results[rows[b]] = (tuple(deliver[b].tolist()), int(attempts[b]))
        if not keep.any():
            break
        codes, deliver, attempts, rows, armed = (
            codes[keep], deliver[keep], attempts[keep], rows[keep], armed[keep]
        )
        slots = slots[: len(rows)]
    return results
