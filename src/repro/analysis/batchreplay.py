"""Vectorised batch replay of wire programs over tail error placements.

``verify_consistency`` and ``enumerate_tail_patterns`` classify one
error placement per full engine run: every placement re-simulates the
whole frame bit by bit even though all the fault sites live in the
frame *tail* (CRC delimiter, ACK slot, ACK delimiter, EOF, and the
MajorCAN sampling window) and the pre-tail portion of every attempt is
therefore identical and error-free.  This module exploits that: it
expands the cached :class:`repro.can.encoding.WireProgram` into flat
row-matrices, precompiles the fixed error-signalling shapes (error and
overload flags are always :data:`FLAG_LENGTH` dominant bits, delimiters
are fixed recessive runs per config — the same table treatment the
transmit program already gets), and replays **batches of placements in
lockstep array passes** over a tail-only micro-model of the controller
state machine.

The micro-model is *exact by construction* on the placements it
understands, and it refuses the rest:

* every supported fault site is announced at a fixed tail time, so the
  per-placement state is a handful of small integers per node;
* any situation outside the modelled envelope — an unexpected program
  layout, a fault field neither model announces, a dominant bit
  reaching an idle node outside the orchestrated retransmission
  restart, or a step-budget overflow — *bails out* and the placement is
  re-classified by the real engine (the oracle).

Header placements (the F1 desync universe: SOF through the CRC
sequence, where a flip can add or remove a stuff condition and shift a
receiver's parse of everything downstream) take a third path instead of
bailing: cached *reduced* engine runs, one per equivalence class under
receiver symmetry (all non-faulted in-sync receivers are bit-identical,
and the wired-AND bus is invariant under duplicating identical
drivers).  A run covers transmitter + distinct fault carriers + one
witness, so a full header universe costs a handful of two- or
three-node runs instead of one n-node engine run per site; lone
mid-frame DATA/CRC receiver flips further share one class per parse
signature of the stuff-aware :func:`repro.can.encoding.header_shape`
expansion.

Multi-flip combos compose the same machinery instead of bailing out:
duplicate triggers on one position cancel by parity before anything
runs (they all fire at the same first announcement, and a flip of a
flip is the identity), faulted receivers are relabelled into a
canonical arrangement so one verdict serves every placement of the
same fault groups over any receivers, and pure-tail multi-site
placements ride the micro-model (with a widened-budget scalar retry
for cascade overflows).  The engine remains only for combos naming
unknown nodes or fields outside every model.

Two micro-simulators implement the same transition table: an array
one evaluating ``(batch, node)`` numpy arrays in lockstep passes, and a
scalar one replaying a single placement.  Each fresh batch goes to one
of them by size (:data:`_ARRAY_BREAK_EVEN`): the array pass only
amortises its fixed per-bit cost over wide batches.  The differential
suite pins both against the engine over the full tail-site universe of
every corpus frame, and against each other directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    """Precompiled tail geometry for one (protocol, m, frame).

    ``signal_shapes`` is the precompiled error-signalling table: flag
    and delimiter sequences are fixed shapes per config, so the batch
    replay treats them as run lengths instead of per-bit handlers —
    the same treatment :func:`repro.can.encoding.wire_program` gives
    the steady transmit path.
    """

    protocol: str
    proto: int
    m: int
    eof_length: int
    delimiter_length: int
    window_start: int
    window_end: int
    majority: int
    #: Index of ``(CRC_DELIM, 0)`` in the wire program (tail time 0).
    tail_offset: int
    #: Keys per node: 3 pre-EOF bits + EOF + (MajorCAN) sampling window.
    key_count: int
    #: Generous per-attempt step bound; overflow bails to the engine.
    attempt_cap: int
    #: Fixed signalling shapes: {"flag": 6, "delimiter": dl, ...}.
    signal_shapes: Tuple[Tuple[str, int], ...]
    supported: bool


@lru_cache(maxsize=256)
def tail_shape(protocol: str, m: int, frame: Frame) -> TailShape:
    """Build (and cache) the tail shape for one protocol + frame."""
    proto = _PROTO_CODES.get(protocol)
    probe = make_controller(protocol, "shape-probe", m=m)
    eof_length = probe.config.eof_length
    signalling = probe.signal_shape()
    delimiter_length = signalling.delimiter
    window_start = getattr(probe, "window_start", 0) or 0
    window_end = signalling.extended_flag_end
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
        + signalling.error_flag
        + 4 * delimiter_length
        + signalling.intermission
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
        tail_offset=tail_offset,
        key_count=key_count,
        attempt_cap=attempt_cap,
        signal_shapes=signalling.shapes,
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


@dataclass(frozen=True)
class PlacementOutcome:
    """Classification of one placement, aligned with ``node_names``."""

    deliveries: Tuple[int, ...]
    attempts: int
    via: str  # "batch" | "engine"

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
        """Counterexample kind, mirroring ``classify_placement``."""
        if self.inconsistent_omission:
            return "imo"
        if self.double_reception:
            return "double"
        if not self.consistent:
            return "inconsistent"
        return None


class BatchReplayEvaluator:
    """Classify batches of tail error placements without engine runs.

    Placements the micro-model cannot represent (unsupported fields,
    unexpected program layout, bailed simulations) transparently fall
    back to the engine, so every returned outcome is exact.
    """

    def __init__(
        self,
        protocol: str,
        m: int,
        node_names: Sequence[str],
        payload: bytes = b"\x55",
        frame: Optional[Frame] = None,
    ) -> None:
        self.protocol = protocol
        self.m = m
        self.node_names = tuple(node_names)
        self.frame = frame if frame is not None else data_frame(
            0x123, payload, message_id="m"
        )
        self.shape = tail_shape(protocol, m, self.frame)
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
        under a *canonical* combo key: duplicate triggers cancel by
        parity, and fault groups are relabelled onto the first
        receivers (receiver symmetry — see :meth:`_reduced_outcome`)
        with the cached delivery tuple permuted back on retrieval.
        Repeated placements — Monte-Carlo draws across chunks, the F1
        universe re-visiting tail-window sites — therefore classify at
        dictionary-lookup cost.  Cache hits count toward ``stats``
        under the provenance that first computed the verdict.
        """
        combos = [tuple(combo) for combo in combos]
        outcomes: List[Optional[PlacementOutcome]] = [None] * len(combos)
        pending: Dict[Tuple, List[Tuple[int, Optional[int]]]] = {}
        order: List[Tuple[Tuple, Tuple[Site, ...]]] = []
        for position, combo in enumerate(combos):
            key, back, canon = self._canonical(combo)
            if key is None:
                # A site names an unknown node: exact semantics live in
                # the engine and the combo is not worth caching.
                outcomes[position] = self._engine_outcome(combo)
                continue
            cached = _COMBO_CACHE.get(key)
            if cached is not None:
                self.stats[cached[2]] += 1
                outcomes[position] = self._expand(cached, back)
                continue
            if key in pending:
                pending[key].append((position, back))
                continue
            pending[key] = [(position, back)]
            order.append((key, canon))
        fast: List[Tuple[Tuple, Tuple[Site, ...], List[Tuple[int, int]]]] = []
        for key, canon in order:
            route, resolved = self._resolve(canon)
            if route == "fast":
                fast.append((key, canon, resolved))
            elif route == "reduced":
                self._finish(
                    outcomes, pending[key], key,
                    self._reduced_outcome(resolved), "header",
                )
            else:
                self._finish(
                    outcomes, pending[key], key,
                    self._engine_outcome(canon), "engine",
                )
        if fast:
            # The array pass pays a fixed per-call cost (its lockstep
            # loop runs to the slowest placement, ~60 ufunc dispatches
            # per bus bit) that only amortises over wide batches; small
            # batches are cheaper through the scalar micro-sim.
            if len(fast) >= _ARRAY_BREAK_EVEN:
                verdicts = _simulate_numpy(
                    self.shape, len(self.node_names), [arm for _, _, arm in fast]
                )
                label = "batch"
            else:
                verdicts = [
                    _simulate_scalar(self.shape, len(self.node_names), arm)
                    for _, _, arm in fast
                ]
                label = "scalar"
            for (key, canon, arm), verdict in zip(fast, verdicts):
                stat = label
                if verdict is None:
                    # The common bail on dense placements is the step
                    # budget: every flip can restart the frame and the
                    # cascade outruns the nominal cap.  A single scalar
                    # retry with a widened budget stays exact (same
                    # transition table, more steps) and keeps these off
                    # the engine; genuine envelope violations bail
                    # again and fall through to the oracle.
                    verdict = _simulate_scalar(
                        self.shape, len(self.node_names), arm, cap_scale=8
                    )
                    stat = "scalar"
                if verdict is None:
                    self._finish(
                        outcomes, pending[key], key,
                        self._engine_outcome(canon), "engine",
                    )
                else:
                    deliveries, attempts = verdict
                    self.stats[stat] += 1
                    outcome = PlacementOutcome(
                        deliveries=deliveries, attempts=attempts, via="batch"
                    )
                    self._finish(outcomes, pending[key], key, outcome, stat)
        return outcomes  # type: ignore[return-value]

    def counterexample(
        self, combo: Sequence[Site], outcome: PlacementOutcome
    ) -> Optional[Tuple]:
        """The ``classify_placement``-shaped hit tuple, or None."""
        kind = outcome.kind
        if kind is None:
            return None
        deliveries = tuple(
            sorted(zip(self.node_names, outcome.deliveries))
        )
        return (tuple(combo), deliveries, outcome.attempts, kind)

    # -- internals -----------------------------------------------------

    def _canonical(
        self, combo: Sequence[Site]
    ) -> Tuple[Optional[Tuple], Optional[Tuple[int, ...]], Tuple[Site, ...]]:
        """Canonical cache key for ``combo`` plus its expansion hint.

        Returns ``(key, back, canon)``: ``key`` is the process-wide
        cache key (``None`` when a site names an unknown node and the
        combo must bypass the cache), ``canon`` is the combo actually
        evaluated, and ``back`` maps canonical receiver labels back to
        the real faulted nodes when the combo was re-targeted.

        Two exact reductions happen here so equivalent combos share one
        cache entry:

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
        counts: Dict[Tuple[int, str, int], int] = {}
        try:
            for name, field_name, index in combo:
                site = (self._node_index[name], field_name, index)
                counts[site] = counts.get(site, 0) + 1
        except KeyError:
            return None, None, tuple(combo)
        sites = tuple(
            sorted(site for site, hits in counts.items() if hits % 2)
        )
        back: Optional[Tuple[int, ...]] = None
        rx_nodes = sorted({node for node, _, _ in sites if node != 0})
        if rx_nodes:
            groups = {
                node: tuple(
                    (f, i) for node2, f, i in sites if node2 == node
                )
                for node in rx_nodes
            }
            order = sorted(rx_nodes, key=lambda node: (groups[node], node))
            relabel = {node: 1 + j for j, node in enumerate(order)}
            if any(relabel[node] != node for node in rx_nodes):
                back = tuple(order)
                sites = tuple(
                    sorted(
                        (relabel.get(node, node), f, i)
                        for node, f, i in sites
                    )
                )
        key = (self.protocol, self.m, self.frame, len(self.node_names), sites)
        canon = tuple(
            (self.node_names[node], f, i) for node, f, i in sites
        )
        return key, back, canon

    def _expand(
        self,
        cached: Tuple[Tuple[int, ...], int, str],
        back: Optional[Tuple[int, ...]],
    ) -> PlacementOutcome:
        """Rebuild an outcome from a cache entry, undoing ``back``.

        The cached deliveries are for the canonical arrangement —
        transmitter at 0, faulted receivers at ``1..k``, witnesses
        after — and every witness delivery is equal by symmetry, so the
        permutation only needs the canonical-label-to-real-node map.
        """
        deliveries, attempts, stat = cached
        if back is not None:
            k = len(back)
            n = len(deliveries)
            witness = deliveries[k + 1] if k + 1 < n else 0
            rebuilt = [witness] * n
            rebuilt[0] = deliveries[0]
            for label, node in enumerate(back, start=1):
                rebuilt[node] = deliveries[label]
            deliveries = tuple(rebuilt)
        via = "engine" if stat == "engine" else "batch"
        return PlacementOutcome(
            deliveries=deliveries, attempts=attempts, via=via
        )

    def _finish(
        self,
        outcomes: List[Optional[PlacementOutcome]],
        waiters: List[Tuple[int, Optional[int]]],
        key: Tuple,
        outcome: PlacementOutcome,
        stat: str,
    ) -> None:
        """Record a fresh canonical verdict and fan it out to waiters."""
        if len(_COMBO_CACHE) >= _COMBO_CACHE_LIMIT:
            _COMBO_CACHE.clear()
        entry = (outcome.deliveries, outcome.attempts, stat)
        _COMBO_CACHE[key] = entry
        first = True
        for position, back in waiters:
            if not first:
                self.stats[stat] += 1
            first = False
            outcomes[position] = self._expand(entry, back)

    def _header_shape(self):
        return header_shape(self.frame, self.shape.eof_length)

    def _resolve(self, combo: Sequence[Site]) -> Tuple[str, object]:
        """Route a combo to one of the three classification paths.

        Returns ``("fast", armed_keys)`` for pure tail placements,
        ``("reduced", (header_hits, tail_sites))`` for combos touching
        an announced header site, and
        ``("engine", None)`` for anything outside the modelled envelope
        (unknown nodes or fields, unexpected program layouts).
        Duplicate triggers never reach this point — :meth:`_canonical`
        cancels them by parity before the combo is resolved.

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
        tail_sites: List[Tuple[int, str, int]] = []
        header_hits: List[Tuple[int, str, int]] = []
        silent: List[Tuple[int, str, int]] = []
        live_nodes = set()
        shape = None
        for name, field_name, index in combo:
            node = self._node_index.get(name)
            if node is None:
                return ("engine", None)
            if field_name in HEADER_SITE_FIELDS:
                if shape is None:
                    shape = self._header_shape()
                if (field_name, index) in shape.announced:
                    header_hits.append((node, field_name, index))
                    live_nodes.add(node)
                else:
                    silent.append((node, field_name, index))
                continue
            key = _site_key(self.shape, field_name, index)
            if key == _UNSUPPORTED:
                return ("engine", None)
            if key == _INERT:
                continue
            armed.append((node, key))
            tail_sites.append((node, field_name, index))
            live_nodes.add(node)
        header_hits += [site for site in silent if site[0] in live_nodes]
        if header_hits:
            return ("reduced", (tuple(header_hits), tuple(tail_sites)))
        return ("fast", armed)

    def _reduced_outcome(
        self,
        spec: Tuple[Tuple[Tuple[int, str, int], ...], Tuple[Tuple[int, str, int], ...]],
    ) -> PlacementOutcome:
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
        self.stats["header"] += 1
        return PlacementOutcome(
            deliveries=deliveries, attempts=attempts, via="batch"
        )

    def _engine_outcome(self, combo: Sequence[Site]) -> PlacementOutcome:
        self.stats["engine"] += 1
        outcome = run_placement(
            self.protocol, self.m, self.node_names, combo, self.frame
        )
        return PlacementOutcome(
            deliveries=tuple(
                outcome.deliveries[name] for name in self.node_names
            ),
            attempts=outcome.attempts,
            via="engine",
        )


#: Reduced-run verdicts per fault-group arrangement, keyed by
#: ``(protocol, m, frame, groups, has_witness)`` — ``groups`` being the
#: per-carrier fault-site tuples, transmitter first, or
#: ``("sig", signature)`` for a lone DATA/CRC receiver flip — and
#: holding ``(tx_count, faulted_counts, witness_count, attempts)``.
#: Module-level so every evaluator in a process (and every chunk a pool
#: worker runs) shares one cache; entries are tiny tuples.
_REDUCED_CACHE: Dict[Tuple, Tuple[int, Tuple[int, ...], int, int]] = {}

#: Final verdicts per canonical placement, keyed by
#: ``(protocol, m, frame, n_nodes, canonical_sites)`` and holding
#: ``(deliveries, attempts, stat)``.  Shared by every evaluator in a
#: process, so chunked Monte-Carlo draws and overlapping verification
#: universes classify repeats at lookup cost.  Bounded by a wholesale
#: clear — entries are tiny and the universes that feed it are small,
#: so the limit only guards runaway many-frame campaigns.
_COMBO_CACHE: Dict[Tuple, Tuple[Tuple[int, ...], int, str]] = {}
_COMBO_CACHE_LIMIT = 1 << 19

#: Minimum fresh-placement batch for the array pass; below this
#: the scalar micro-sim's ~40us/placement beats the array loop's fixed
#: per-call overhead (measured crossover is ~150 placements).
_ARRAY_BREAK_EVEN = 96


def clear_caches() -> None:
    """Empty the process-wide verdict caches (benchmarks and tests),
    including the per-universe tail-pattern verdicts of
    :mod:`repro.analysis.enumeration`."""
    from repro.analysis.enumeration import tail_verdicts

    _REDUCED_CACHE.clear()
    _COMBO_CACHE.clear()
    tail_verdicts.cache_clear()


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


def classify_placements(
    protocol: str,
    m: int,
    node_names: Sequence[str],
    combos: Sequence[Sequence[Site]],
    payload: bytes,
) -> List[Optional[Tuple]]:
    """Batch counterpart of ``verification.classify_placement``.

    Returns, per combo, the same picklable hit tuple (or None) the
    engine-backed classifier produces.
    """
    evaluator = BatchReplayEvaluator(protocol, m, node_names, payload=payload)
    outcomes = evaluator.evaluate(combos)
    return [
        evaluator.counterexample(combo, outcome)
        for combo, outcome in zip(combos, outcomes)
    ]


# ---------------------------------------------------------------------------
# Scalar micro-simulator: one placement at a time (small batches, retries)
# ---------------------------------------------------------------------------


def _simulate_scalar(
    shape: TailShape,
    n_nodes: int,
    armed_pairs: Sequence[Tuple[int, int]],
    cap_scale: int = 1,
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Replay one placement on the tail micro-model.

    Returns ``(deliveries, attempts)`` or None to bail to the engine.
    ``cap_scale`` widens the step budget for the cascade-overflow
    retry: placements whose flips keep restarting the frame legally
    outrun the nominal per-attempt bound without leaving the modelled
    envelope.
    """
    eof = shape.eof_length
    last = eof - 1
    dl = shape.delimiter_length
    proto = shape.proto
    mm = shape.majority
    ws = shape.window_start
    we = shape.window_end
    n = n_nodes
    quiet_base = 3 + eof

    st = [TX_PROG] + [RX_PROG] * (n - 1)
    flag = [0] * n
    drem = [0] * n
    ipos = [0] * n
    first = [False] * n
    defer = [False] * n
    samp = [False] * n
    votes = [0] * n
    deliver = [0] * n
    pending = True
    attempts = 1
    t = 0
    armed = set(armed_pairs)
    cap = ((len(armed) + 2) * shape.attempt_cap + 16) * cap_scale

    for _ in range(cap):
        # Drive phase: active flags are dominant; receivers acknowledge.
        bus = False
        for i in range(n):
            s = st[i]
            if s in (FLAG, OVL_FLAG, MAJ_FLAG, MAJ_EXT) or (
                s == RX_PROG and t == 1
            ):
                bus = True
                break
        # Fault firing: each node announces at most one tail key.
        seen = [bus] * n
        if armed:
            for i in range(n):
                s = st[i]
                if s == TX_PROG or s == RX_PROG:
                    key = t
                elif s == MAJ_QUIET and 0 <= t - 2 <= we:
                    key = quiet_base + (t - 2)
                else:
                    continue
                pair = (i, key)
                if pair in armed:
                    armed.discard(pair)
                    seen[i] = not bus
        # Bit phase.
        for i in range(n):
            s = st[i]
            d = seen[i]
            if s == TX_PROG or s == RX_PROG:
                is_tx = s == TX_PROG
                if t >= 3:
                    index = t - 3
                    if proto == P_CAN:
                        if is_tx:
                            if d:
                                st[i] = FLAG
                                flag[i] = FLAG_LENGTH
                                first[i] = True
                                defer[i] = False
                            elif index == last:
                                pending = False
                                deliver[i] += 1
                                st[i] = INTER
                                ipos[i] = 0
                        else:
                            if index < last:
                                if d:
                                    st[i] = FLAG
                                    flag[i] = FLAG_LENGTH
                                    first[i] = True
                                    defer[i] = False
                                elif index == last - 1:
                                    deliver[i] += 1
                            elif d:
                                st[i] = OVL_FLAG
                                flag[i] = FLAG_LENGTH
                            else:
                                st[i] = INTER
                                ipos[i] = 0
                    elif proto == P_MINOR:
                        if d:
                            st[i] = FLAG
                            flag[i] = FLAG_LENGTH
                            first[i] = True
                            defer[i] = index == last
                        elif index == last:
                            if is_tx:
                                pending = False
                            deliver[i] += 1
                            st[i] = INTER
                            ipos[i] = 0
                    else:  # MajorCAN
                        if d:
                            if index + 1 <= mm:
                                st[i] = MAJ_FLAG
                                flag[i] = FLAG_LENGTH
                                samp[i] = True
                                votes[i] = 0
                            else:
                                # Second sub-field: accept now.
                                if is_tx:
                                    pending = False
                                deliver[i] += 1
                                st[i] = MAJ_EXT
                        elif index == last:
                            if is_tx:
                                pending = False
                            deliver[i] += 1
                            st[i] = INTER
                            ipos[i] = 0
                elif (t != 1 and d) or (t == 1 and is_tx and not d):
                    # Dominant delimiter bit, or a missing ACK: an
                    # error whose flag starts inside the frame tail.
                    if proto == P_MAJOR:
                        st[i] = MAJ_FLAG
                        flag[i] = FLAG_LENGTH
                        samp[i] = False
                    else:
                        st[i] = FLAG
                        flag[i] = FLAG_LENGTH
                        first[i] = True
                        defer[i] = False
            elif s == FLAG:
                flag[i] -= 1
                if flag[i] <= 0:
                    st[i] = WAIT
            elif s == WAIT:
                if first[i]:
                    first[i] = False
                    if defer[i]:
                        defer[i] = False
                        if d:  # primary error: accept
                            if i == 0:
                                pending = False
                            deliver[i] += 1
                if not d:
                    drem[i] = dl - 1
                    st[i] = DELIM
            elif s == DELIM or s == OVL_DELIM:
                if d:
                    if drem[i] <= 1:
                        st[i] = OVL_FLAG
                        flag[i] = FLAG_LENGTH
                    else:
                        st[i] = FLAG
                        flag[i] = FLAG_LENGTH
                        first[i] = True
                        defer[i] = False
                else:
                    drem[i] -= 1
                    if drem[i] <= 0:
                        st[i] = INTER
                        ipos[i] = 0
            elif s == OVL_FLAG:
                flag[i] -= 1
                if flag[i] <= 0:
                    st[i] = OVL_WAIT
            elif s == OVL_WAIT:
                if not d:
                    drem[i] = dl - 1
                    st[i] = OVL_DELIM
            elif s == INTER:
                if d:
                    if ipos[i] < INTERMISSION_LENGTH - 1:
                        st[i] = OVL_FLAG
                        flag[i] = FLAG_LENGTH
                    else:
                        return None  # un-orchestrated start of frame
                else:
                    ipos[i] += 1
                    if ipos[i] >= INTERMISSION_LENGTH:
                        st[i] = IDLE
            elif s == IDLE:
                if d:
                    return None  # reception outside the restart
            elif s == MAJ_FLAG:
                flag[i] -= 1
                if flag[i] <= 0:
                    st[i] = MAJ_QUIET
            elif s == MAJ_QUIET:
                clock = t - 2
                if samp[i] and ws <= clock <= we and d:
                    votes[i] += 1
                if clock >= we:
                    if samp[i]:
                        samp[i] = False
                        if votes[i] >= mm:
                            if i == 0:
                                pending = False
                            deliver[i] += 1
                    st[i] = WAIT
                    first[i] = False
                    defer[i] = False
            else:  # MAJ_EXT
                if t - 2 >= we:
                    st[i] = WAIT
                    first[i] = False
                    defer[i] = False
        t += 1
        # End of step: finished, or an orchestrated retransmission.
        if st[0] == IDLE:
            if not pending:
                if all(s == IDLE for s in st):
                    return tuple(deliver), attempts
            else:
                for j in range(1, n):
                    if st[j] != IDLE and not (
                        st[j] == INTER and ipos[j] == INTERMISSION_LENGTH - 1
                    ):
                        return None
                attempts += 1
                t = 0
                st = [TX_PROG] + [RX_PROG] * (n - 1)
                for j in range(n):
                    flag[j] = drem[j] = ipos[j] = votes[j] = 0
                    first[j] = defer[j] = samp[j] = False
    return None  # step budget exhausted


# ---------------------------------------------------------------------------
# Numpy batched micro-simulator: (batch, node) arrays, single passes
# ---------------------------------------------------------------------------


def _simulate_numpy(
    shape: TailShape,
    n_nodes: int,
    placements: Sequence[Sequence[Tuple[int, int]]],
) -> List[Optional[Tuple[Tuple[int, ...], int]]]:
    """Replay a batch of placements in lockstep array passes.

    Semantically identical to :func:`_simulate_scalar`; each loop
    iteration advances *every* live placement by one bus bit with
    whole-array operations.
    """
    batch = len(placements)
    if batch == 0:
        return []
    n = n_nodes
    eof = shape.eof_length
    last = eof - 1
    dl = shape.delimiter_length
    proto = shape.proto
    mm = shape.majority
    ws = shape.window_start
    we = shape.window_end
    quiet_base = 3 + eof

    armed = np.zeros((batch, n, shape.key_count), dtype=bool)
    max_flips = 0
    for b, pairs in enumerate(placements):
        max_flips = max(max_flips, len(pairs))
        for node, key in pairs:
            armed[b, node, key] = True

    st = np.full((batch, n), RX_PROG, dtype=np.int8)
    st[:, 0] = TX_PROG
    flag = np.zeros((batch, n), dtype=np.int16)
    drem = np.zeros((batch, n), dtype=np.int16)
    ipos = np.zeros((batch, n), dtype=np.int16)
    first = np.zeros((batch, n), dtype=bool)
    defer = np.zeros((batch, n), dtype=bool)
    samp = np.zeros((batch, n), dtype=bool)
    votes = np.zeros((batch, n), dtype=np.int16)
    deliver = np.zeros((batch, n), dtype=np.int32)
    pending = np.ones(batch, dtype=bool)
    attempts = np.ones(batch, dtype=np.int32)
    t = np.zeros(batch, dtype=np.int32)
    bail = np.zeros(batch, dtype=bool)
    done = np.zeros(batch, dtype=bool)

    cap = (max_flips + 2) * shape.attempt_cap + 16
    for _ in range(cap):
        act = ~(bail | done)
        if not act.any():
            break
        act_n = act[:, None]
        tt = t[:, None]
        # Drive phase.
        dominant_state = (
            (st == FLAG) | (st == OVL_FLAG) | (st == MAJ_FLAG) | (st == MAJ_EXT)
        )
        drives = dominant_state | ((st == RX_PROG) & (tt == 1))
        bus = (drives & act_n).any(axis=1)
        # Fault firing.
        prog = (st == TX_PROG) | (st == RX_PROG)
        key = np.where(prog & act_n, tt, -1)
        if proto == P_MAJOR:
            clock = tt - 2
            quiet = (st == MAJ_QUIET) & (clock >= 0) & (clock <= we) & act_n
            key = np.where(quiet, quiet_base + clock, key)
        b_idx, n_idx = np.nonzero(key >= 0)
        k_idx = key[b_idx, n_idx]
        fired_flat = armed[b_idx, n_idx, k_idx]
        armed[b_idx, n_idx, k_idx] = False
        fired = np.zeros((batch, n), dtype=bool)
        fired[b_idx, n_idx] = fired_flat
        seen = bus[:, None] ^ fired
        # Bit phase: masks from the state snapshot are disjoint per node.
        stv = st.copy()
        m_tx = (stv == TX_PROG) & act_n
        m_rx = (stv == RX_PROG) & act_n
        m_prog = m_tx | m_rx
        pre = m_prog & (tt < 3)
        tail_err = (pre & (tt != 1) & seen) | (m_tx & (tt == 1) & ~seen)
        m_eof = m_prog & (tt >= 3)
        index = tt - 3
        plain = np.zeros((batch, n), dtype=bool)
        to_defer = np.zeros((batch, n), dtype=bool)
        to_ovl = np.zeros((batch, n), dtype=bool)
        maj_flag_entry = np.zeros((batch, n), dtype=bool)
        maj_ext_entry = np.zeros((batch, n), dtype=bool)
        finish = np.zeros((batch, n), dtype=bool)
        if proto == P_CAN:
            plain |= (m_tx & m_eof & seen) | (m_rx & m_eof & seen & (index < last))
            deliver[m_rx & m_eof & ~seen & (index == last - 1)] += 1
            to_ovl |= m_rx & m_eof & seen & (index == last)
            finish |= m_eof & ~seen & (index == last)
            # CAN receivers already delivered at the last-but-one bit.
            succeed = m_tx & m_eof & ~seen & (index == last)
        elif proto == P_MINOR:
            plain |= m_eof & seen & (index < last)
            to_defer |= m_eof & seen & (index == last)
            finish |= m_eof & ~seen & (index == last)
            succeed = finish
        else:
            maj_err = m_eof & seen
            maj_flag_entry |= maj_err & (index + 1 <= mm)
            maj_ext_entry |= maj_err & (index + 1 > mm)
            finish |= m_eof & ~seen & (index == last)
            succeed = finish
        if proto == P_MAJOR:
            maj_tail_entry = tail_err
        else:
            maj_tail_entry = None
            plain |= tail_err
        # FLAG
        m = (stv == FLAG) & act_n
        flag[m] -= 1
        st[m & (flag <= 0)] = WAIT
        # WAIT
        m = (stv == WAIT) & act_n
        fb = m & first
        first[fb] = False
        resolved = fb & defer
        defer[resolved] = False
        accepted = resolved & seen
        deliver[accepted] += 1
        pending[accepted[:, 0]] = False
        to_delim = m & ~seen
        st[to_delim] = DELIM
        drem[to_delim] = dl - 1
        # DELIM / OVL_DELIM
        for state_from in (DELIM, OVL_DELIM):
            m = (stv == state_from) & act_n
            dominant = m & seen
            to_ovl |= dominant & (drem <= 1)
            plain |= dominant & (drem > 1)
            recessive = m & ~seen
            drem[recessive] -= 1
            to_inter = recessive & (drem <= 0)
            st[to_inter] = INTER
            ipos[to_inter] = 0
        # OVL_FLAG
        m = (stv == OVL_FLAG) & act_n
        flag[m] -= 1
        st[m & (flag <= 0)] = OVL_WAIT
        # OVL_WAIT
        m = (stv == OVL_WAIT) & act_n & ~seen
        st[m] = OVL_DELIM
        drem[m] = dl - 1
        # INTER
        m = (stv == INTER) & act_n
        dominant = m & seen
        to_ovl |= dominant & (ipos < INTERMISSION_LENGTH - 1)
        bail |= (dominant & (ipos >= INTERMISSION_LENGTH - 1)).any(axis=1)
        recessive = m & ~seen
        ipos[recessive] += 1
        st[recessive & (ipos >= INTERMISSION_LENGTH)] = IDLE
        # IDLE
        bail |= ((stv == IDLE) & act_n & seen).any(axis=1)
        # MAJ states
        if proto == P_MAJOR:
            m = (stv == MAJ_FLAG) & act_n
            flag[m] -= 1
            st[m & (flag <= 0)] = MAJ_QUIET
            m = (stv == MAJ_QUIET) & act_n
            clock = tt - 2
            votes[m & samp & (clock >= ws) & (clock <= we) & seen] += 1
            exiting = m & (clock >= we)
            verdict = exiting & samp
            samp[verdict] = False
            accepted = verdict & (votes >= mm)
            deliver[accepted] += 1
            pending[accepted[:, 0]] = False
            st[exiting] = WAIT
            first[exiting] = False
            defer[exiting] = False
            ext = (stv == MAJ_EXT) & act_n & (tt - 2 >= we)
            st[ext] = WAIT
            first[ext] = False
            defer[ext] = False
        # Apply the PROG-derived entries last (masks are disjoint from
        # the epilogue-state masks above — a node is in one state).
        st[plain] = FLAG
        flag[plain] = FLAG_LENGTH
        first[plain] = True
        defer[plain] = False
        st[to_defer] = FLAG
        flag[to_defer] = FLAG_LENGTH
        first[to_defer] = True
        defer[to_defer] = True
        st[to_ovl] = OVL_FLAG
        flag[to_ovl] = FLAG_LENGTH
        if maj_tail_entry is not None:
            st[maj_tail_entry] = MAJ_FLAG
            flag[maj_tail_entry] = FLAG_LENGTH
            samp[maj_tail_entry] = False
        if proto == P_MAJOR:
            st[maj_flag_entry] = MAJ_FLAG
            flag[maj_flag_entry] = FLAG_LENGTH
            samp[maj_flag_entry] = True
            votes[maj_flag_entry] = 0
            deliver[maj_ext_entry] += 1
            pending[maj_ext_entry[:, 0]] = False
            st[maj_ext_entry] = MAJ_EXT
        deliver[succeed] += 1
        pending[succeed[:, 0]] = False
        st[finish] = INTER
        ipos[finish] = 0
        t = np.where(act, t + 1, t)
        # End of step: completion and orchestrated restarts.
        tx_idle = act & (st[:, 0] == IDLE)
        all_idle = (st == IDLE).all(axis=1)
        done |= tx_idle & all_idle & ~pending
        restart = tx_idle & pending & ~done & ~bail
        if restart.any():
            ready = (st == IDLE) | ((st == INTER) & (ipos == INTERMISSION_LENGTH - 1))
            ok = restart & ready[:, 1:].all(axis=1)
            bail |= restart & ~ok
            if ok.any():
                attempts[ok] += 1
                t[ok] = 0
                st[ok, :] = RX_PROG
                st[ok, 0] = TX_PROG
                flag[ok, :] = 0
                drem[ok, :] = 0
                ipos[ok, :] = 0
                votes[ok, :] = 0
                first[ok, :] = False
                defer[ok, :] = False
                samp[ok, :] = False
    bail |= ~(done | bail)  # step budget exhausted
    results: List[Optional[Tuple[Tuple[int, ...], int]]] = []
    for b in range(batch):
        if bail[b]:
            results.append(None)
        else:
            results.append((tuple(int(x) for x in deliver[b]), int(attempts[b])))
    return results
