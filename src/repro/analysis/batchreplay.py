"""Batch replay of error placements: one canonical form, one table, two drivers.

``verify_consistency``, ``enumerate_tail_patterns`` and the Monte-Carlo
tail estimate classify error placements.  The engine
(:class:`EngineClassifier`) simulates each one bit by bit over the
whole frame; this module's :class:`BatchReplayEvaluator` gets the same
verdicts without instantiating the engine for almost all of them.

**One canonical form, computed for a whole slab.**
:meth:`BatchReplayEvaluator.evaluate` turns its slab of placements into
an integer matrix, one site code (``node << 32 | position id``) per
site and one dictionary lookup per site, and canonicalises every row
at once with two exact reductions: duplicate triggers cancel by parity
(they all fire at the same first announcement, and a flip of a flip is
the identity, so each sorted row keeps its odd-length runs), and the
faulted receivers are relabelled ``1..k`` by ``(fault group, node)``
rank (the receivers are identical deterministic controllers, so
permuting them permutes the deliveries and nothing else).  A canonical
row's codes, trimmed of padding, key the process-wide verdict cache,
and the fresh rows are routed by a position-to-tail-key table, so
equivalent placements share one verdict.  The result is columnar
(:class:`Placements`): a ``[P, n]`` delivery matrix, attempts and route
codes, with the relabelling undone by one gather.  A slab narrower
than :data:`_ARRAY_BREAK_EVEN` (a Monte-Carlo chunk, a campaign round)
takes the same steps one placement at a time in Python, to the same
keys: there the array front end's fixed cost per call outweighs its
per-placement saving.

**One table.**  Pure tail placements (CRC delimiter, ACK slot, ACK
delimiter, EOF and the MajorCAN sampling window) follow a tail-only
micro-model of the controller state machine.  Its transition relation
is written once, as the per-node step :func:`_node_step`, and compiled
per frame-end geometry (:mod:`repro.can.geometry`) into a
:class:`TransitionTable` over its reachable ``(state, tail time)``
pairs.  The micro-model is exact on the placements it understands and
refuses the rest: a fault field it does not announce, a dominant bit
reaching an idle node outside the orchestrated retransmission restart,
or a step-budget overflow bails, and the placement goes to the engine
(the oracle).

**Two drivers.**  An array driver steps one code per ``(node,
placement)`` through lockstep numpy passes; a scalar driver replays a
single placement over tuple copies of the same table.  Each fresh
batch goes to one of them by size (:data:`_ARRAY_BREAK_EVEN`).  The
scalar driver runs on a widened step budget, and a placement that
overflows the array driver's budget retries once on it.

Placements touching header sites (the F1 desync universe: SOF through
the CRC sequence) instead take cached *reduced* engine runs, one per
fault-group arrangement: the transmitter, the faulted receivers and
one clean witness stand in for the whole network.  Lone mid-frame
DATA/CRC receiver flips share one run per parse signature of the
stuff-aware :func:`repro.can.encoding.header_shape` expansion.

Every route yields one flat ``(deliveries..., attempts, route)``
verdict, and one gather fans it out to every placement that shares it.  The
differential suite pins the drivers against the engine over the full
tail-site universe of every corpus frame, and against each other on
generated placements.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.can.fields import (
    CRC,
    DATA,
    EOF,
    FLAG_LENGTH,
    INTERMISSION_LENGTH,
    SAMPLING,
)
from repro.can.frame import Frame, data_frame
from repro.can.encoding import HEADER_KIND_OVERRUN, HEADER_SITE_FIELDS, header_shape
from repro.can.geometry import ACK_SLOT_OFFSET, EOF_OFFSET, TAIL_PREFIX, FrameEnd, frame_end
from repro.errors import AnalysisError
from repro.faults.scenarios import run_placement

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

#: Site-key sentinels: inert sites can never fire (the engine never
#: announces their position either), unsupported ones force the engine.
_INERT = -1
_UNSUPPORTED = -2

#: Fields of the tail positions: a site of one of these fields that is
#: not in the geometry's :attr:`~repro.can.geometry.FrameEnd.sites` is
#: never announced.
_TAIL_FIELDS = frozenset(field for field, _ in TAIL_PREFIX) | {EOF, SAMPLING}


@lru_cache(maxsize=64)
def _site_keys(geometry: FrameEnd) -> Dict[Tuple[str, int], int]:
    """Tail position -> tail key: its index in ``geometry.sites``."""
    return {position: key for key, position in enumerate(geometry.sites)}


def _site_key(geometry: FrameEnd, field: str, index: int) -> int:
    """Map a fault site to its tail key (or a sentinel).

    The keys number the geometry's tail sites in order: the tail table,
    then (MajorCAN only) the sampled window bits.  Tail sites outside
    them (out-of-range EOF indices, SAMPLING outside the window, which
    no node reads, and all SAMPLING under CAN/MinorCAN) are inert: their
    trigger never fires or flips a bit nobody reads, exactly as in the
    engine.
    """
    key = _site_keys(geometry).get((field, index))
    if key is not None:
        return key
    return _INERT if field in _TAIL_FIELDS else _UNSUPPORTED


#: Route labels of the ``stats`` counters, in the order of their codes:
#: the array driver, the scalar driver, the reduced header runs and the
#: engine.  :attr:`Placements.routes` holds the codes.
ROUTES = ("batch", "scalar", "header", "engine")
BATCH, SCALAR, HEADER, ENGINE = range(len(ROUTES))

#: A verdict, flat: the per-node deliveries, then the attempts, then the
#: code in :data:`ROUTES` of the route that computed it.
Verdict = Tuple[int, ...]

#: A canonical site: (node index, field label, index within the field).
IndexSite = Tuple[int, str, int]


@dataclass(frozen=True, eq=False)
class Placements:
    """The outcomes of a slab of placements as columns, in input order.

    ``deliveries`` is ``[P, n]`` (columns follow ``node_names``),
    ``attempts`` ``[P]``, and ``routes`` ``[P]`` codes into
    :data:`ROUTES`: the route that first computed each verdict.
    :func:`repro.properties.ledger.delivery_flags` reads the
    ``deliveries`` matrix as it is.
    """

    deliveries: np.ndarray
    attempts: np.ndarray
    routes: np.ndarray


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
    whole slab of placements through ``evaluate`` (its outcomes as
    :class:`Placements` columns, in input order), and expose their
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
    replay is checked against.  The batch evaluator reuses the network
    and the engine run.
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

    def evaluate(self, combos: Iterable[Sequence[Site]]) -> Placements:
        """One engine run per placement; rows follow the input."""
        found = [self._engine_outcome(combo) for combo in combos]
        n = len(self.node_names)
        table = np.array(found, dtype=np.int64).reshape(len(found), n + 2)
        return Placements(table[:, :n], table[:, n], table[:, n + 1])

    def _engine_outcome(self, combo: Sequence[Site]) -> Verdict:
        outcome = run_placement(
            self.protocol, self.m, self.node_names, combo, self.frame
        )
        deliveries = tuple(outcome.deliveries[name] for name in self.node_names)
        return deliveries + (outcome.attempts, ENGINE)


# Site codes: ``node << _NODE_SHIFT | position id``, so a sorted row of
# codes is sorted by node.  ``_PAD`` fills the tail of every row and
# sorts last; ``_UNKNOWN`` marks a site naming a node outside the network.
_NODE_SHIFT = 32
_POSITION_MASK = (1 << _NODE_SHIFT) - 1
_PAD = np.iinfo(np.int64).max
_UNKNOWN = -1

#: Process-wide ids of ``(field, index)`` fault positions, in first-seen
#: order, and the positions behind them.  Never cleared: the canonical
#: keys in :data:`_COMBO_CACHE` are spelt in these ids.
_POSITION_IDS: Dict[Tuple[str, int], int] = {}
_POSITIONS: List[Tuple[str, int]] = []

#: Position classes beside the tail keys of :func:`_site_key`: a header
#: position this frame announces, and one it does not.
_ANNOUNCED = -3
_SILENT = -4

#: Position id -> tail key, :data:`_INERT`, :data:`_UNSUPPORTED`,
#: :data:`_ANNOUNCED` or :data:`_SILENT`, per ``(protocol, m, frame)``;
#: grown as position ids appear, shared by that frame's evaluators.
_POSITION_ROUTES: Dict[Tuple, np.ndarray] = {}

# What :meth:`BatchReplayEvaluator._resolve` makes of a canonical row.
_FAST, _REDUCED, _FULL = range(3)


class _Slab(NamedTuple):
    """The canonical form of a slab of placements.

    ``codes`` holds each row's sorted canonical site codes, ``_PAD``
    after the last; ``place[p, v]`` is the canonical label of real node
    ``v`` (a permutation of ``0..n-1`` fixing the transmitter); ``known``
    is False for a row naming an unknown node (its codes are all
    ``_PAD``, its ``place`` the identity).
    """

    codes: np.ndarray
    place: np.ndarray
    known: np.ndarray


class _SiteCodes(dict):
    """Site -> site code, each computed on its first lookup."""

    def __init__(self, node_index: Dict[str, int]) -> None:
        super().__init__()
        self.node_index = node_index

    def __missing__(self, site: Site) -> int:
        name, field_name, index = site
        node = self.node_index.get(name)
        position = _POSITION_IDS.get((field_name, index))
        if position is None:
            position = _POSITION_IDS[(field_name, index)] = len(_POSITIONS)
            _POSITIONS.append((field_name, index))
        code = self[site] = _UNKNOWN if node is None else node << _NODE_SHIFT | position
        return code


class BatchReplayEvaluator(EngineClassifier):
    """Classify batches of error placements, mostly without engine runs.

    Placements the micro-model cannot represent (unsupported fields,
    bailed simulations) transparently fall back to the engine, so every
    returned outcome is exact.
    """

    def __init__(
        self, protocol: str, m: int, node_names: Sequence[str], frame: Frame
    ) -> None:
        super().__init__(protocol, m, node_names, frame)
        self.geometry = frame_end(protocol, m)
        self.protocol = self.geometry.protocol
        self.attempt_cap = _attempt_cap(self.geometry)
        self._config = (self.protocol, m, frame, len(self.node_names))
        self._node_index = {name: i for i, name in enumerate(self.node_names)}
        self._site_codes = _SiteCodes(self._node_index)
        #: Outcome provenance counters, one per :data:`ROUTES` label.
        self.stats: Dict[str, int] = dict.fromkeys(ROUTES, 0)

    # -- public API ----------------------------------------------------

    def evaluate(self, combos: Iterable[Sequence[Site]]) -> Placements:
        """Classify every placement; rows follow the input.

        The slab is canonicalised as integer arrays (:meth:`_canonical`)
        and its verdicts memoised in the process-wide
        :data:`_COMBO_CACHE` under the canonical rows; the cached
        deliveries are permuted back to the real receivers on retrieval.
        Repeated placements (Monte-Carlo draws across chunks, the F1
        universe re-visiting tail-window sites) therefore classify at
        dictionary-lookup cost.  A slab narrower than
        :data:`_ARRAY_BREAK_EVEN` looks its placements up in
        :data:`_ROW_CACHE` and canonicalises only the missing ones, one
        at a time (:meth:`_row_verdicts`).  Each placement adds 1 to
        ``stats`` under the label of the route that first computed its
        verdict, cache hits included.
        """
        combos = [tuple(combo) for combo in combos]
        verdicts = self._verdicts()
        n = len(self.node_names)
        if len(combos) < _ARRAY_BREAK_EVEN:
            rows = _ROW_CACHE.setdefault(self._config, {})
            missing = list(dict.fromkeys(combo for combo in combos if combo not in rows))
            if missing:
                rows.update(zip(missing, self._row_verdicts(missing, verdicts)))
            found = [rows[combo] for combo in combos]
            table = np.array(found, dtype=np.int64).reshape(len(combos), n + 2)
        else:
            table = self._verdict_rows(combos, verdicts)
        routes = table[:, n + 1]
        for label, count in zip(ROUTES, np.bincount(routes, minlength=len(ROUTES)).tolist()):
            self.stats[label] += count
        return Placements(table[:, :n], table[:, n], routes)

    # -- internals -----------------------------------------------------

    def _verdicts(self) -> Dict[bytes, Verdict]:
        """This configuration's verdicts in :data:`_COMBO_CACHE`.

        Looked up once per :meth:`evaluate` call, so :func:`clear_caches`
        reaches evaluators built before it.  The whole cache is cleared,
        with :data:`_ROW_CACHE`, once it holds :data:`_COMBO_CACHE_LIMIT`
        verdicts.
        """
        if sum(map(len, _COMBO_CACHE.values())) >= _COMBO_CACHE_LIMIT:
            _COMBO_CACHE.clear()
            _ROW_CACHE.clear()
        return _COMBO_CACHE.setdefault(self._config, {})

    def _verdict_rows(
        self, combos: Sequence[Sequence[Site]], verdicts: Dict[bytes, Verdict]
    ) -> np.ndarray:
        """The front end: one :data:`Verdict` row per placement, in real
        node order, looked up under (or classified into) the canonical
        keys of :meth:`_canonical`."""
        slab = self._canonical(combos)
        keys = _row_keys(slab.codes)
        fresh: Dict[bytes, int] = {}
        for row, (key, known) in enumerate(zip(keys, slab.known.tolist())):
            if known and key not in verdicts and key not in fresh:
                fresh[key] = row
        verdicts.update(zip(fresh, self._classify(slab.codes[list(fresh.values())])))
        found = [verdicts.get(key) for key in keys]
        for row in np.flatnonzero(~slab.known).tolist():
            # A site names an unknown node: exact semantics live in the
            # engine and the combo is not worth a canonical entry.
            found[row] = self._engine_outcome(combos[row])
        n = len(self.node_names)
        table = np.array(found, dtype=np.int64).reshape(len(found), n + 2)
        table[:, :n] = table[np.arange(len(found))[:, None], slab.place]
        return table

    def _row_verdicts(
        self, combos: Sequence[Tuple[Site, ...]], verdicts: Dict[bytes, Verdict]
    ) -> List[Verdict]:
        """The front end of a narrow slab: :meth:`_verdict_rows` one
        placement at a time, in Python.

        The same canonical keys (:meth:`_row_form`), the same cache and
        the same routes (:meth:`_row_verdict`), without the array front
        end's fixed cost of some fifty numpy operations per call, which
        outweighs its per-placement saving on a narrow slab.
        """
        forms = [self._row_form(combo) for combo in combos]
        for form in forms:
            if form is not None and form[0] not in verdicts:
                verdicts[form[0]] = self._row_verdict(form[1])
        n = len(self.node_names)
        found = []
        for combo, form in zip(combos, forms):
            if form is None:
                found.append(self._engine_outcome(combo))
                continue
            verdict = verdicts[form[0]]
            found.append(tuple(verdict[label] for label in form[2]) + verdict[n:])
        return found

    def _row_form(
        self, combo: Sequence[Site]
    ) -> Optional[Tuple[bytes, List[int], List[int]]]:
        """One placement's canonical ``(key, codes, place)``, exactly as
        :meth:`_canonical` and :func:`_row_keys` give its row of a slab:
        the key bytes, the sorted canonical codes, and ``place[v]``, the
        canonical label of real node ``v``.  None when a site names an
        unknown node."""
        codes = sorted(self._site_codes[site] for site in combo)
        if codes and codes[0] == _UNKNOWN:
            return None
        odd: List[int] = []
        for code in codes:  # parity: sorted, so equal codes are adjacent
            if odd and odd[-1] == code:
                odd.pop()
            else:
                odd.append(code)
        groups: Dict[int, List[int]] = {}
        for code in odd:
            node = code >> _NODE_SHIFT
            if node:
                groups.setdefault(node, []).append(code & _POSITION_MASK)
        faulted = sorted(groups, key=lambda node: (groups[node], node))
        clean = [node for node in range(1, len(self.node_names)) if node not in groups]
        place = [0] * len(self.node_names)
        for label, node in enumerate(faulted + clean, 1):
            place[node] = label
        codes = sorted(
            place[code >> _NODE_SHIFT] << _NODE_SHIFT | code & _POSITION_MASK for code in odd
        )
        return array("q", codes).tobytes(), codes, place

    def _site_matrix(self, combos: Sequence[Sequence[Site]]) -> np.ndarray:
        """The slab as a ``[P, W]`` matrix of site codes, ``_PAD`` after
        each row's last site: one dictionary lookup per site."""
        codes = self._site_codes
        flat = [codes[site] for combo in combos for site in combo]
        lengths = np.fromiter(map(len, combos), dtype=np.intp, count=len(combos))
        width = max(int(lengths.max(initial=0)), 1)
        matrix = np.full((len(combos), width), _PAD, dtype=np.int64)
        matrix[np.arange(width) < lengths[:, None]] = flat
        return matrix

    def _canonical(self, combos: Sequence[Sequence[Site]]) -> _Slab:
        """The canonical form of every placement of the slab.

        Two exact reductions happen here so equivalent combos share one
        canonical row:

        * *parity*: duplicate triggers on one ``(node, field, index)``
          position all fire at the same first announcement, and a flip
          of a flip is the identity — an even repeat count cancels to
          nothing, an odd one collapses to a single flip.  Each sorted
          row keeps one code of each odd-length run;
        * *receiver symmetry*: the receivers are identical
          deterministic controllers, so permuting which of them carry
          which fault group permutes the deliveries and nothing else.
          The faulted receivers are ranked by ``(group, node)`` — a
          group being the node's sorted position ids — and relabelled
          ``1..k`` in that order, the clean ones ``k+1..n-1`` in node
          order; ``place`` records each real node's label.
        """
        codes = self._site_matrix(combos)
        known = (codes != _UNKNOWN).all(axis=1)
        codes[~known] = _PAD
        codes, place = _relabel(_odd_runs(codes), len(self.node_names))
        return _Slab(codes, place, known)

    def _classify(self, codes: np.ndarray) -> List[Verdict]:
        """The verdict of each fresh canonical row.

        Header placements take a reduced engine run and placements
        outside every model the engine.  Pure tail placements replay on
        the transition table: on the array driver from
        :data:`_ARRAY_BREAK_EVEN` fast placements up, on the scalar one
        below (its per-placement cost beats the array loop's fixed
        per-call cost on narrow batches) and for the array's bails.
        """
        if not len(codes):
            return []
        verdicts: List[Optional[Verdict]] = [None] * len(codes)
        routes, nodes, keys, live = self._resolve(codes)
        for row in np.flatnonzero(routes == _REDUCED).tolist():
            verdicts[row] = self._reduced_outcome(_index_sites(codes[row][live[row]].tolist()))
        for row in np.flatnonzero(routes == _FULL).tolist():
            verdicts[row] = self._engine_outcome(self._named(_index_sites(codes[row].tolist())))
        fast = np.flatnonzero(routes == _FAST)
        if not len(fast):
            return verdicts
        nodes, keys = nodes[fast], keys[fast]
        scalar = range(len(fast))
        if len(fast) >= _ARRAY_BREAK_EVEN:
            flips = (keys >= 0).sum(axis=1)
            deliveries, attempts, finished = _replay_array(
                transition_table(self.geometry),
                len(self.node_names),
                nodes,
                keys,
                _step_cap(self.attempt_cap, int(flips.max())),
            )
            # Column lists zip straight into the verdict tuples: a list per
            # row would raise the peak RSS of wide runs (~0.3 MB on verify_m5).
            found = deliveries[finished].T.tolist() + [attempts[finished].tolist()]
            for row, verdict in zip(fast[finished].tolist(), zip(*found, repeat(BATCH))):
                verdicts[row] = verdict
            scalar = np.flatnonzero(~finished).tolist()
        rows = fast.tolist()
        for i in scalar:
            verdicts[rows[i]] = self._scalar_outcome(
                _arm(nodes[i], keys[i]), codes[rows[i]].tolist()
            )
        return verdicts

    def _row_verdict(self, codes: List[int]) -> Verdict:
        """One fresh canonical row's verdict (its codes without padding),
        routed site by site by the rule of :meth:`_resolve`."""
        table = self._position_routes()
        kinds = [int(table[code & _POSITION_MASK]) for code in codes]
        if _UNSUPPORTED in kinds:
            return self._engine_outcome(self._named(_index_sites(codes)))
        nodes = [code >> _NODE_SHIFT for code in codes]
        live_nodes = {
            node for node, kind in zip(nodes, kinds) if kind >= 0 or kind == _ANNOUNCED
        }
        header = [
            kind == _ANNOUNCED or (kind == _SILENT and node in live_nodes)
            for node, kind in zip(nodes, kinds)
        ]
        if any(header):
            return self._reduced_outcome(_index_sites([
                code for code, kind, rides in zip(codes, kinds, header) if kind >= 0 or rides
            ]))
        return self._scalar_outcome(
            [(node, kind) for node, kind in zip(nodes, kinds) if kind >= 0], codes
        )

    def _scalar_outcome(self, arm: List[Tuple[int, int]], codes: List[int]) -> Verdict:
        """A pure tail placement on the scalar driver: ``arm`` holds its
        armed ``(node, key)`` pairs, ``codes`` its canonical codes.

        The common bail on dense placements is the step budget: every
        flip can restart the frame and the cascade outruns the nominal
        cap.  The scalar driver's widened budget stays exact (same
        transition table, more steps) and keeps these off the engine;
        genuine envelope violations bail at the same step under any
        budget and fall through to the oracle.
        """
        replay = _replay_scalar(
            transition_table(self.geometry),
            len(self.node_names),
            arm,
            _step_cap(self.attempt_cap, len(arm), 8),
        )
        if replay is not None:
            return replay[0] + (replay[1], SCALAR)
        return self._engine_outcome(self._named(_index_sites(codes)))

    def _named(self, sites: Sequence[IndexSite]) -> Tuple[Site, ...]:
        return tuple((self.node_names[node], f, i) for node, f, i in sites)

    def _header_shape(self):
        return header_shape(self.frame, self.geometry.eof_length)

    def _position_route(self, field_name: str, index: int) -> int:
        if field_name in HEADER_SITE_FIELDS:
            announced = (field_name, index) in self._header_shape().announced
            return _ANNOUNCED if announced else _SILENT
        return _site_key(self.geometry, field_name, index)

    def _position_routes(self) -> np.ndarray:
        """This frame's :data:`_POSITION_ROUTES` entry, grown to every
        position id issued so far."""
        shape_key = self._config[:3]
        table = _POSITION_ROUTES.get(shape_key, np.zeros(0, dtype=np.int64))
        if len(table) < len(_POSITIONS):
            grown = [self._position_route(*position) for position in _POSITIONS[len(table):]]
            table = _POSITION_ROUTES[shape_key] = np.append(table, grown)
        return table

    def _resolve(
        self, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Route canonical rows to one of the three classification paths.

        Returns ``(routes, nodes, keys, live)``: per row ``_FAST`` for
        a pure tail placement, ``_REDUCED`` for one touching an
        announced header site, ``_FULL`` for anything outside the
        modelled envelope (unknown fields);
        per site its node, its tail key where it arms the micro-model
        (-1 elsewhere), and whether it rides into a reduced run.

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
        table = self._position_routes()
        valid = codes != _PAD
        nodes = np.where(valid, codes >> _NODE_SHIFT, 0)
        kinds = np.full(codes.shape, _INERT, dtype=np.int64)
        kinds[valid] = table[codes[valid] & _POSITION_MASK]
        armed = kinds >= 0
        announced = kinds == _ANNOUNCED
        live_nodes = np.zeros((len(codes), len(self.node_names)), dtype=bool)
        rows, columns = np.nonzero(armed | announced)
        live_nodes[rows, nodes[rows, columns]] = True
        riding = (kinds == _SILENT) & np.take_along_axis(live_nodes, nodes, axis=1)
        header = (announced | riding).any(axis=1)
        routes = np.where(header, _REDUCED, _FAST)
        routes[(kinds == _UNSUPPORTED).any(axis=1)] = _FULL
        return routes, nodes, np.where(armed, kinds, -1), armed | announced | riding

    def _reduced_outcome(self, sites: Tuple[IndexSite, ...]) -> Verdict:
        """Classify a combo touching header sites exactly.

        ``sites`` are its live canonical sites (see :meth:`_resolve`),
        sorted.  Rests on receiver symmetry: the controllers are
        deterministic and a view fault never disturbs the bus until the
        faulted node itself drives, so every non-faulted in-sync
        receiver behaves bit-identically, and the wired-AND bus is
        invariant under collapsing all clean receivers into a single
        witness.  The n-node verdict therefore follows from one
        *reduced* engine run over transmitter + the distinct faulted
        receivers + one witness (the witness is dropped when every
        receiver is faulted — its ACK and error flags would change the
        bus).  Verdicts are cached per fault-group arrangement in
        :data:`_REDUCED_CACHE`; combined with the canonical relabelling
        in :meth:`_canonical`, one run serves every placement of the
        same fault groups over any receivers.  A lone receiver flip in
        the mid-frame DATA/CRC fields shares one entry per
        :class:`~repro.can.encoding.HeaderSiteRow` parse signature
        instead (identical flipped-stream trajectories drive the
        faulted receiver — and hence the whole bus — identically).
        """
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
        return deliveries + (attempts, HEADER)


def _odd_runs(codes: np.ndarray) -> np.ndarray:
    """Parity over each row: one code per odd-length run of equal codes.

    Rows come back sorted with ``_PAD`` last.
    """
    codes = np.sort(codes, axis=1)
    if not ((codes[:, 1:] == codes[:, :-1]) & (codes[:, 1:] != _PAD)).any():
        return codes  # no repeated site: nothing cancels
    column = np.arange(codes.shape[1])
    starts = np.ones(codes.shape, dtype=bool)
    starts[:, 1:] = codes[:, 1:] != codes[:, :-1]
    ends = np.ones(codes.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    run_start = np.maximum.accumulate(np.where(starts, column, 0), axis=1)
    keep = ends & ((column - run_start) % 2 == 0)
    codes = np.where(keep, codes, _PAD)
    codes.sort(axis=1)
    return codes


def _relabel(codes: np.ndarray, n_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Receiver symmetry over sorted rows: ``(relabelled codes, place)``.

    Each receiver's fault group becomes a row of ``position id + 1``
    values padded with 0, so comparing the rows lexicographically
    compares the groups as tuples (a prefix first, an empty group
    first of all).  One ``lexsort`` ranks every slab row's receivers by
    ``(group, node)``.  After the clean receivers come the faulted
    ones, so rank ``r`` of a row with ``k`` faulted receivers gets label
    ``(r + k) mod (n - 1) + 1``.
    """
    rows, width = codes.shape
    receivers = max(n_nodes - 1, 1)
    # Padding sits in a dummy node column past the last node, and maps
    # back to ``_PAD`` through it.
    nodes = np.minimum(codes >> _NODE_SHIFT, n_nodes)
    positions = codes & _POSITION_MASK
    column = np.arange(width)
    starts = np.ones(codes.shape, dtype=bool)
    starts[:, 1:] = nodes[:, 1:] != nodes[:, :-1]
    depth = column - np.maximum.accumulate(np.where(starts, column, 0), axis=1)
    at = np.nonzero(nodes < n_nodes)
    span = int(depth[at].max(initial=0)) + 1
    groups = np.zeros((rows, n_nodes, span), dtype=np.int64)
    groups[at[0], nodes[at], depth[at]] = positions[at] + 1
    groups = groups[:, 1:]
    flat = groups.reshape(-1, span)
    index = np.arange(len(flat))
    order = np.lexsort(
        (index,) + tuple(flat[:, d] for d in range(span - 1, -1, -1)) + (index // receivers,)
    )
    ranked = order.reshape(rows, -1) % receivers + 1
    faulted = np.count_nonzero(groups[:, :, 0], axis=1)
    row = np.arange(rows)[:, None]
    place = np.empty((rows, n_nodes + 1), dtype=np.int64)
    place[:, 0] = 0
    place[:, n_nodes] = _PAD >> _NODE_SHIFT
    place[row, ranked] = (np.arange(n_nodes - 1) + faulted[:, None]) % receivers + 1
    relabelled = place[row, nodes] << _NODE_SHIFT | positions
    relabelled.sort(axis=1)
    return relabelled, place[:, :n_nodes]


def _row_keys(codes: np.ndarray) -> List[bytes]:
    """Each row's canonical key: the bytes of its codes up to the first
    ``_PAD``, so a key does not depend on the slab's width."""
    codes = np.ascontiguousarray(codes)
    stride = codes.shape[1] * codes.itemsize
    sizes = ((codes != _PAD).sum(axis=1) * codes.itemsize).tolist()
    data = codes.tobytes()
    return [
        data[start : start + size]
        for start, size in zip(range(0, len(data), stride), sizes)
    ]


def _arm(nodes: np.ndarray, keys: np.ndarray) -> List[Tuple[int, int]]:
    """The armed ``(node, key)`` pairs of one row, for the scalar driver."""
    return [
        (node, key) for node, key in zip(nodes.tolist(), keys.tolist()) if key >= 0
    ]


def _index_sites(codes: Sequence[int]) -> Tuple[IndexSite, ...]:
    """The ``(node index, field, index)`` sites of one row of codes."""
    return tuple(
        (code >> _NODE_SHIFT,) + _POSITIONS[code & _POSITION_MASK]
        for code in codes
        if code != _PAD
    )


#: Reduced-run verdicts per fault-group arrangement, keyed by
#: ``(protocol, m, frame, groups, has_witness)`` — ``groups`` being the
#: per-carrier fault-site tuples, transmitter first, or
#: ``("sig", signature)`` for a lone DATA/CRC receiver flip — and
#: holding ``(tx_count, faulted_counts, witness_count, attempts)``.
#: Module-level so every evaluator in a process (and every chunk a pool
#: worker runs) shares one cache; entries are tiny tuples.
_REDUCED_CACHE: Dict[Tuple, Tuple[int, Tuple[int, ...], int, int]] = {}

#: Final verdicts per configuration ``(protocol, m, frame, n_nodes)``,
#: each a dict from canonical keys (:func:`_row_keys`) to
#: :data:`Verdict`.  Shared by every
#: evaluator in a process, so chunked Monte-Carlo draws and overlapping
#: verification universes classify repeats at lookup cost.  Bounded by
#: a wholesale clear — entries are tiny and the universes that feed it
#: are small, so the limit only guards runaway many-frame campaigns.
_COMBO_CACHE: Dict[Tuple, Dict[bytes, Verdict]] = {}
_COMBO_CACHE_LIMIT = 1 << 19

#: The verdicts of narrow slabs' placements as given (real node order),
#: per configuration.  Monte-Carlo chunks and campaign rounds draw the
#: same few placements call after call; a hit skips the per-placement
#: canonical form of :meth:`BatchReplayEvaluator._row_form`.  Cleared with
#: :data:`_COMBO_CACHE`, so a row keeps the route label of its
#: canonical verdict.
_ROW_CACHE: Dict[Tuple, Dict[Tuple[Site, ...], Verdict]] = {}

#: Minimum slab for the array front end and minimum fresh-placement
#: batch for the array pass; below this the per-placement front end and
#: the scalar driver (~15-30 us/placement) beat the array code's fixed
#: per-call cost.  The measured crossover of the node-major driver is
#: ~48-128 placements (MajorCAN_5 over five nodes to CAN over three,
#: 2-vCPU Xeon VM; ~64-192 for the placement-major one it replaced).
#: The value stays 96 because the route label it picks is persisted
#: (sweep ``backend_stats``, ``verify`` stdout, benchmark fingerprints).
_ARRAY_BREAK_EVEN = 96


def clear_caches() -> None:
    """Empty the process-wide verdict caches (benchmarks and tests),
    including the per-universe tail-pattern verdicts of
    :mod:`repro.analysis.enumeration` and the compiled transition
    tables."""
    # Local import: the enumeration module imports this one.
    from repro.analysis.enumeration import tail_verdicts

    _REDUCED_CACHE.clear()
    _COMBO_CACHE.clear()
    _ROW_CACHE.clear()
    _POSITION_ROUTES.clear()
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


def warm_shapes() -> None:
    """Pre-populate the wire and header shape caches in this process.

    An untimed warm-up for benchmarks that time warm-cache passes.
    Covers the one-byte placement frame under the protocols and ``m``
    values the sweeps iterate over; other frames still warm lazily
    through the ``lru_cache``s.
    """
    frame = data_frame(0x123, b"\x55", message_id="m")
    for protocol, ms in (
        ("can", (5,)),
        ("minorcan", (5,)),
        ("majorcan", (3, 4, 5, 6, 7)),
    ):
        for m in ms:
            header_shape(frame, frame_end(protocol, m).eof_length)


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
        state.st == RX_PROG and t == ACK_SLOT_OFFSET
    )


def _clock(t: int) -> int:
    """The EOF-relative clock at tail time ``t`` (EOF bit ``k`` is ``k``)."""
    return t - EOF_OFFSET + 1


def _announced_key(geometry: FrameEnd, state: _NodeState, t: int) -> Optional[int]:
    """The tail key a node announces at time ``t`` (see :func:`_site_key`):
    its program position — the tail table leads the geometry's sites, so
    the key is ``t`` — or a sampled window bit while quiet."""
    if state.st in (TX_PROG, RX_PROG):
        return t
    if state.st == MAJ_QUIET:
        return _site_keys(geometry).get((SAMPLING, _clock(t)))
    return None


def _node_step(
    geometry: FrameEnd, state: _NodeState, t: int, seen: bool
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
        if t < EOF_OFFSET:
            ack = t == ACK_SLOT_OFFSET
            if (not ack and seen) or (ack and is_tx and not seen):
                # Dominant delimiter bit, or a missing ACK: an error
                # whose flag starts inside the frame tail.
                if geometry.protocol == "majorcan":
                    return S(MAJ_FLAG, FLAG_LENGTH), 0, False
                return S(FLAG, FLAG_LENGTH, first=True), 0, False
            return state, 0, False
        index = t - EOF_OFFSET
        last = geometry.eof_length - 1
        if geometry.protocol == "can":
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
            if geometry.protocol == "minorcan":
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
    clock = _clock(t)
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
def transition_table(geometry: FrameEnd) -> TransitionTable:
    """Compile :func:`_node_step` into a :class:`TransitionTable`.

    The table depends on the frame-end geometry only, so every payload
    of one (protocol, m) shares it.  A breadth-first search from the two
    program starts enumerates the reachable ``(state, t)`` pairs under
    both sampled bits.  ``t`` is clamped one step past the EOF and past
    the window end: there no node is in a program state and no quiet or
    extended MajorCAN node reads the clock, so later times step
    identically.
    """
    tmax = EOF_OFFSET + max(geometry.eof_length, geometry.window_end)
    none = len(geometry.sites)
    pairs = [(_NodeState(TX_PROG), 0), (_NodeState(RX_PROG), 0)]
    index = {pair: i for i, pair in enumerate(pairs)}
    columns: Tuple[List, ...] = tuple([] for _ in range(7))
    nxt, delivered, bail, drives, key, is_idle, ready = columns
    for state, t in pairs:  # grows as the search discovers pairs
        after_t = min(t + 1, tmax)
        for seen in (False, True):
            after, got, bails = _node_step(geometry, state, t, seen)
            code = index.setdefault((after, after_t), len(pairs))
            if code == len(pairs):
                pairs.append((after, after_t))
            nxt.append(2 * code)
            delivered.append(got)
            bail.append(bails)
        # The pair-only columns, once for both sampled bits.
        announced = _announced_key(geometry, state, t)
        idle = state.st == IDLE
        drives += [_drives(state, t)] * 2
        key += [none if announced is None else announced] * 2
        is_idle += [idle] * 2
        ready += [idle or (state.st == INTER and state.ipos == INTERMISSION_LENGTH - 1)] * 2
    # ``next`` is intp: the array driver indexes with its codes every pass.
    dtypes = (np.intp, np.uint8, bool, bool, np.min_scalar_type(none), bool, bool)
    arrays = [np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes)]
    for column in arrays:
        column.setflags(write=False)  # one cached table serves every caller
    return TransitionTable(
        *arrays, key_count=none, columns=tuple(map(tuple, columns))
    )


def _attempt_cap(geometry: FrameEnd) -> int:
    """A generous per-attempt step bound: the tail, the window, a flag,
    four delimiters, the intermission and some slack."""
    return (
        (EOF_OFFSET + geometry.eof_length)
        + (geometry.window_end + 2)
        + FLAG_LENGTH
        + 4 * geometry.delimiter_length
        + INTERMISSION_LENGTH
        + 32
    )


def _step_cap(attempt_cap: int, flips: int, scale: int = 1) -> int:
    """Step budget for replaying ``flips`` armed sites at ``attempt_cap``
    steps per attempt (``scale`` widens it for the cascade-overflow
    retry); overflow bails to the engine."""
    return ((flips + 2) * attempt_cap + 16) * scale


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
    nodes: np.ndarray,
    keys: np.ndarray,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay a batch of placements in lockstep array passes.

    Placement ``b`` arms ``(nodes[b, j], keys[b, j])`` for every ``j``
    with ``keys[b, j] >= 0``.  The same table lookups as
    :func:`_replay_scalar`, over one code per ``(node, placement)``:
    node-major, so each pass reduces over the short node axis.  A pass
    advances every live placement by one bus bit, and finished
    placements are compacted out.  ``cap`` bounds the passes of the
    whole batch.  Returns the ``[batch, n_nodes]`` deliveries, the
    attempts and the ``finished`` mask; the other placements bailed.
    """
    batch = len(keys)
    deliveries = np.zeros((batch, n_nodes), dtype=np.int64)
    attempts = np.zeros(batch, dtype=np.int64)  # stays 0 where it bails
    width = table.key_count + 1  # the last column is the "no key" sentinel
    armed = np.zeros((n_nodes, batch, width), dtype=bool)
    at = np.nonzero(keys >= 0)
    armed[nodes[at], at[0], keys[at]] = True
    start = np.full((n_nodes, 1), _RX_START, dtype=np.intp)
    start[0] = _TX_START
    codes = np.repeat(start, batch, axis=1)
    deliver = np.zeros((n_nodes, batch), dtype=np.int32)
    tries = np.ones(batch, dtype=np.int32)
    rows = np.arange(batch)
    slots = np.arange(codes.size).reshape(codes.shape) * width
    # Only a step that bails or leaves a node idle can end an attempt.
    halt = table.bail | table.is_idle[table.next]
    for _ in range(cap if batch else 0):
        flat = armed.reshape(-1)  # a view: ``armed`` stays C-contiguous
        at = slots + table.key[codes]
        fired = flat[at]
        flat[at] = False
        entry = codes + (fired ^ table.drives[codes].any(axis=0))
        codes = table.next[entry]
        deliver += table.delivered[entry]
        if not halt[entry].any():
            continue
        # End of step: finished, or an orchestrated retransmission.
        bailed = table.bail[entry].any(axis=0)
        tx_idle = table.is_idle[codes[0]]
        pending = deliver[0] == 0
        done = tx_idle & ~pending & table.is_idle[codes].all(axis=0) & ~bailed
        restart = tx_idle & pending & ~bailed
        ok = restart & table.ready[codes[1:]].all(axis=0)
        bailed |= restart & ~ok
        tries[ok] += 1
        codes[:, ok] = start
        keep = ~(done | bailed)
        if keep.all():
            continue
        deliveries[rows[done]] = deliver[:, done].T
        attempts[rows[done]] = tries[done]
        if not keep.any():
            break
        codes, deliver, armed = (
            np.compress(keep, state, axis=1) for state in (codes, deliver, armed)
        )
        tries, rows = tries[keep], rows[keep]
        slots = np.arange(codes.size).reshape(codes.shape) * width
    return deliveries, attempts, attempts > 0
