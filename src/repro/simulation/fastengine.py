"""Vectorised phase-level execution engine.

:class:`PhaseEngine` executes a phase in bulk with numpy instead of slot by
slot.  It exploits two structural facts about ε-Broadcast (and the baselines):

* within a phase, every device acts independently and identically per slot
  with a fixed probability, and
* the adversary commits to a per-phase :class:`~repro.simulation.phaseplan.JamPlan`.

The engine therefore samples *aggregate* channel outcomes (how many slots
carried a lone authentic frame, were busy, were jammed) and per-device
*aggregate* costs (how many slots each device used) from the exact
distributions the slot-faithful engine induces.  Per-node message reception
is exact: conditioned on the sampled channel outcomes, node ``u`` receives
``m`` with probability ``1 - (1 - p_listen)^{g_u}`` where ``g_u`` is the
number of delivery slots not jammed for ``u``.

The single-hop path does no work proportional to the phase's slot count
``s``.  Its slots are iid, so its channel is fully described by *how many*
slots fall in each of five classes (:func:`slot_class_probabilities`): one
multinomial draw.  Carol picks her slots independently of the correct side's
coins, so her jams and spoofs are per-class draws from that histogram
(:meth:`PhaseEngine._draw_adversary_counts`), and every channel count is an
integer identity over the three count vectors (e.g. noisy-for-victim =
active + spoofs on idle slots + jams on idle slots).  The histogram and the
per-class counts are five-element lists of Python ints: at five entries,
list arithmetic is cheaper than numpy's per-call overhead.  Alice is
half-duplex: she listens only in slots she does not send in.  The multi-hop
path needs *which* slots, so it materialises sorted offsets and s-length
masks; :func:`charge_adversary_actions` is the budget rule both paths share.

Most phases are short, so both paths pay only for the work a phase has.  A
targeting of everyone or no one makes every per-node channel count one
scalar (no victim mask); the multi-hop path builds jam and spoof masks only
when Carol jammed or spoofed, per-listener delivery windows only once
someone is informed, and listener pairs only for non-empty event classes
that some stage reads; and neither path charges the ledger an all-zero cost
vector (no listening when ``p_listen`` is 0, no nacks when none were sent).
The single-hop path draws its scalar-count per-node costs (listening heard
and quiet, nacks, relay and decoy sends) through
:func:`~repro.simulation.rng.binomial_iid`: a count of 0 — a fully jammed
phase has no quiet slots, a phase with no relays no noisy ones — gives zeros
without a generator call (numpy's ``binomial`` consumes no bits for
``n = 0``; ``tests/test_sim_rng.py`` pins this), and a draw for a cohort of
``rng.WINDOW_MIN_SIZE`` or more nodes, such as a 4,096-node listen or nack,
looks one uniform per node up in the binomial's cumulative table instead of
running numpy's per-node inversion loop or BTPE.  Smaller cohorts keep
numpy's own draws.

Results are arrays: ``newly_informed`` is a sorted ``int64`` id array, and a
request phase reports its cohort's noisy-slot counts as the ``int64``
``node_noisy_heard`` array aligned with the sorted ``noisy_listeners`` ids
(both empty in other phases).  Set operations on ids and on event keys
(``device·s + slot``) go through :mod:`repro.simulation.setops`, which sorts:
numpy's ``np.unique`` without a ``return_*`` flag, and ``np.isin`` on its
second argument, take a hash path that is 15–60× slower (lint rule R9).

Three deliberate, documented approximations (validated against
:class:`~repro.simulation.engine.SlotEngine` by integration tests):

* per-device cost draws are sampled marginally, so the joint correlation
  between "which slot carried a transmission" and "which device paid for it"
  is not preserved (totals and distributions are);
* a node that becomes informed stops listening at a *sampled* position within
  the phase (a truncated-geometric draw over its delivery opportunities,
  placed proportionally in the phase) rather than at the exact slot the slot
  engine would have chosen;
* a listener's own nacks and decoys do not take slots from its listening,
  and an informed listener keeps decoying (the slot engine mutes it).

Spatial topologies
------------------

Over a multi-hop :class:`~repro.simulation.topology.Topology` the aggregate
shortcut above no longer applies — what a listener hears depends on *which*
of its neighbours transmitted.  :meth:`PhaseEngine._run_phase_multihop`
therefore resolves the phase from its transmission *events* over the
topology's :class:`~repro.simulation.topology.NeighborCSR` adjacency.  It
exploits the protocol's own sparsity: per-slot action probabilities are
``O(1/n)`` (sends) or geometrically decaying (listens), so the events of a
phase — who transmitted in which slot — number ``O(n)`` rather than
``O(n·slots)``, and one path serves every network size.  The path:

* samples each sender class's transmission events exactly in ``O(events)``
  time and memory, with no device×slot grid at any size: a binomial count
  of successes, then a uniform subset of that many device×slot cells
  (:func:`_sample_bernoulli_events`),
* maps the events onto the active listeners (:func:`_listener_pairs`):
  each distinct sender's CSR row is sliced once and cut to the listeners
  still active, and each of its events repeats those positions as keys
  ``pos·s + slot`` — ``O(events · active degree)`` pairs, built in place,
  never the ``events × degree`` pairs of whole rows,
* resolves delivery per listener from its candidate clean-delivery slots
  (exact: collision, spoof, jamming, and half-duplex rules all applied per
  pair); a candidate is a payload key that, after an in-place sort, equals
  neither neighbour, and
* draws listening costs and request-phase noisy-slot counts as binomials
  over the per-listener slot classification; a request phase sorts its
  audible keys in place and counts them through one mask.

A phase's working set is therefore about two ``int64`` arrays of its
active-listener pairs, its O(events) event arrays, and the slot-length
masks below.

Documented approximations of the multi-hop path (validated statistically
against the slot engine in ``tests/test_sparse_topology.py``):

* a node informed mid-phase stops listening at its delivery slot (exact),
  but its pre-delivery listening cost is drawn marginally over its active
  window — the single-hop path's marginal truncation;
* a listener's listening cost and its request-phase noisy-slot count are
  independent binomial draws, so each marginal is exact but their joint
  correlation is not preserved;
* a node informed mid-phase keeps its sampled nack and decoy events until
  the phase ends — neighbours still hear them, and its decoys still cost it
  — where the slot engine mutes it.  The protocol's schedules never put
  nacks and payload in one phase, so in protocol runs this only perturbs
  the decoy variant; engine-API phases that mix them over-count noise.
"""

from __future__ import annotations

import numpy as np

from .auth import ALICE_ID
from .channel import JamMode
from .energy import EnergyLedger, EnergyOperation
from .jamming import materialize_jam_slots, materialize_spoof_slots
from .network import Network
from .phaseplan import JamPlan, PhaseKind, PhasePlan, PhaseResult, PhaseRoles
from .rng import binomial_iid
from .setops import isin_sorted, unique_sorted
from .topology import NeighborCSR, _gather_ranges

__all__ = ["PhaseEngine"]

# Shared "nobody" id array for results with no newly informed or noisy
# listeners; read-only, so no result can alias a mutation into another.
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.setflags(write=False)


def _sample_bernoulli_events(
    rng: np.random.Generator, num: int, s: int, p: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Sample the success cells of a ``num × s`` Bernoulli(``p``) grid.

    Returns ``(idx, slots)`` — the row (device) and column (slot) of every
    success, as ``int64`` arrays grouped by row with slots ascending (the
    flat keys ``idx·s + slots`` are strictly increasing).  Distribution-exact
    at every grid size: a Bernoulli grid conditioned on its total count
    ``m ~ Binomial(num·s, p)`` is a uniform ``m``-subset of the cells, drawn
    by rejection of duplicates.  When ``m`` exceeds half the cells, the
    ``cells − m`` *empty* cells are drawn instead and complemented, so every
    rejection round keeps at least half its draws.  Time and memory are
    ``O(m log m)`` — the grid is never materialised unless the output
    already fills most of it — so phases with millions of slots but
    thousands of events stay cheap.
    """

    empty = np.empty(0, dtype=np.int64)
    if num <= 0 or s <= 0 or p <= 0.0:
        return empty, empty
    cells = num * s
    m = cells if p >= 1.0 else int(rng.binomial(cells, p))
    if m == 0:
        return empty, empty
    drawn = min(m, cells - m)
    flat = empty
    while flat.size < drawn:
        extra = rng.integers(0, cells, size=drawn - flat.size, dtype=np.int64)
        flat = unique_sorted(np.concatenate([flat, extra]) if flat.size else extra)
    if drawn < m:
        keep = np.ones(cells, dtype=bool)
        keep[flat] = False
        flat = np.flatnonzero(keep)
    return flat // s, flat % s


def _listener_pairs(
    csr: NeighborCSR,
    u_pos: "np.ndarray | None",
    s: int,
    cohort: np.ndarray,
    idx: np.ndarray,
    slots: np.ndarray,
    alice_listens: bool,
) -> "tuple[np.ndarray, np.ndarray]":
    """Listener keys ``pos·s + slot`` of every event's active neighbours.

    Event ``e`` is sent by row ``cohort[idx[e]]`` in slot ``slots[e]``, with
    ``idx`` non-decreasing (events grouped by sender, as
    :func:`_sample_bernoulli_events` returns them); ``u_pos`` maps a row to
    its listener position, ``-1`` for rows not listening, and is ``None``
    when no keys are wanted.  Each distinct sender's CSR row is sliced once
    and cut to its active listeners, and each event repeats its sender's
    positions.  Keys come out event by event, positions ascending within an
    event: the order of expanding every event's row and then dropping the
    inactive listeners, without the ``events × degree`` pairs in between.
    Also returns the slot of every event whose sender neighbours Alice
    (empty unless ``alice_listens``).
    """

    if idx.size == 0:
        return np.empty(0, dtype=np.int64), _NO_IDS
    events = np.bincount(idx)
    senders = np.flatnonzero(events)
    events = events[senders]
    rows = cohort[senders]
    heard = _NO_IDS
    if alice_listens:
        alice_nbrs = csr.row(csr.num_rows - 1)
        heard = slots[np.repeat(isin_sorted(rows, alice_nbrs), events)]
    if u_pos is None:
        return np.empty(0, dtype=np.int64), heard
    starts = csr.indptr[rows]
    degree = csr.indptr[rows + 1] - starts
    pos = u_pos[csr.indices[_gather_ranges(starts, degree)]]
    active = pos >= 0
    if not active.any():
        return np.empty(0, dtype=np.int64), heard
    # Each sender's active listeners form one block of `pos[active]`; the
    # running count of `active` at the sender's row bounds gives the block.
    seen = np.zeros(pos.size + 1, dtype=np.int64)
    np.cumsum(active, out=seen[1:])
    ends = np.cumsum(degree)
    first = seen[ends - degree]
    per_event = np.repeat(seen[ends] - first, events)
    keys = pos[active][_gather_ranges(np.repeat(first, events), per_event)]
    keys *= s
    keys += np.repeat(slots, per_event)
    return keys, heard


def _joined(parts: "list[np.ndarray]") -> np.ndarray:
    """The parts' concatenation; a lone non-empty part is returned as is."""

    parts = [part for part in parts if part.size]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _globally_noisy(
    num_u: int,
    spoof_busy: "np.ndarray | None",
    jam_hits: "np.ndarray | None",
    victim: "np.ndarray | None",
    cutoff: "np.ndarray | None",
) -> np.ndarray:
    """Per-listener count of the phase's globally noisy slots in its window.

    A slot is globally noisy for every listener when spoofed, and also for a
    victim when jammed.  ``spoof_busy`` and ``jam_hits`` are slot masks
    (``None``: no such slot); ``victim`` is the per-listener victim mask,
    ``None`` when every listener is a victim; ``cutoff`` is each listener's
    last active slot, ``None`` when every window is the whole phase.
    Returns a fresh ``int64`` array.
    """

    def within_window(mask: "np.ndarray | None") -> "int | np.ndarray":
        if mask is None:
            return 0
        if cutoff is None:
            return int(np.count_nonzero(mask))
        return np.cumsum(mask)[cutoff]

    hit = jam_hits if spoof_busy is None else (
        spoof_busy if jam_hits is None else spoof_busy | jam_hits
    )
    when_victim = within_window(hit)
    if victim is not None:
        return np.where(victim, when_victim, within_window(spoof_busy))
    if np.ndim(when_victim):
        return when_victim
    return np.full(num_u, when_victim, dtype=np.int64)


# Single-hop slot classes: indices into slot_class_probabilities' result.
IDLE, CLEAN_ALICE, CLEAN_RELAY, BUSY_ALICE, BUSY_OTHER = range(5)


def slot_class_probabilities(plan: PhasePlan, roles: PhaseRoles) -> np.ndarray:
    """Per-slot probabilities of the five single-hop slot classes of a phase.

    With ``a`` = Alice sends, ``r`` = relays sending and ``z`` = nacks plus
    decoys sent in a slot, the classes are IDLE (``a=0, r=0, z=0``),
    CLEAN_ALICE (``a=1, r=0, z=0``), CLEAN_RELAY (``a=0, r=1, z=0``),
    BUSY_ALICE (``a=1, r+z≥1``) and BUSY_OTHER (the rest).  Every sender acts
    independently, so each class has a closed form; BUSY_OTHER is the
    remainder, clipped at zero and not renormalised.
    """

    alice_p = plan.alice_send_prob if roles.alice_active else 0.0
    relays, relay_p = roles.relay_ids.size, plan.relay_send_prob
    no_noise = (1.0 - plan.nack_send_prob) ** roles.active_uninformed_ids.size
    no_noise *= (1.0 - plan.decoy_send_prob) ** roles.decoy_ids.size
    quiet = (1.0 - relay_p) ** relays * no_noise  # r = 0 and z = 0
    lone_relay = relays * relay_p * (1.0 - relay_p) ** (relays - 1) * no_noise if relays else 0.0
    probs = np.zeros(5)
    probs[IDLE] = (1.0 - alice_p) * quiet
    probs[CLEAN_ALICE] = alice_p * quiet
    probs[CLEAN_RELAY] = (1.0 - alice_p) * lone_relay
    probs[BUSY_ALICE] = alice_p * (1.0 - quiet)
    probs[BUSY_OTHER] = max(1.0 - float(probs.sum()), 0.0)
    return probs


def _draw_from(rng: np.random.Generator, counts: "list[int]", k: int) -> "list[int]":
    """Per-class counts of ``k`` slots drawn without replacement from ``counts``."""

    if k <= 0:
        return [0] * len(counts)
    if k >= sum(counts):
        return list(counts)
    return rng.multivariate_hypergeometric(counts, k).tolist()


def charge_adversary_actions(
    ledger: EnergyLedger, s: int, jams: int, jam_plan: JamPlan
) -> "tuple[int, int, int, float]":
    """Charge a phase's ``jams`` selected slots and its spoofs to Carol's ledger.

    The one budget rule of both :class:`PhaseEngine` paths: jams are charged
    first; payload spoofs go in unjammed slots, nack spoofs in the slots
    still free; when the budget binds, nack spoofs are dropped before payload
    spoofs.  Returns the kept ``(jams, payload_spoofs, nack_spoofs, spend)``.
    """

    affordable = int(min(jams, np.floor(ledger.remaining)))
    jam_spend = ledger.charge_bulk(EnergyOperation.JAM, float(affordable))
    jams = int(jam_spend)
    payload = min(max(jam_plan.spoof_payload_slots, 0), s - jams)
    nack = min(max(jam_plan.spoof_nack_slots, 0), s - jams - payload)
    spoof_spend = ledger.charge_bulk(EnergyOperation.SPOOF, float(payload + nack))
    spoofs = int(spoof_spend)
    kept_payload = min(payload, spoofs)
    return jams, kept_payload, min(nack, spoofs - kept_payload), float(jam_spend + spoof_spend)


class PhaseEngine:
    """Vectorised phase executor, statistically equivalent to :class:`SlotEngine`."""

    name = "phase"

    def __init__(self, network: Network) -> None:
        self.network = network
        self._rng = network.random_source.stream("fastengine")

    # ------------------------------------------------------------------ #
    # Public API                                                          #
    # ------------------------------------------------------------------ #

    def run_phase(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        jam_plan: JamPlan,
        start_slot: int = 0,
    ) -> PhaseResult:
        """Execute one phase in bulk and return its :class:`PhaseResult`."""

        network = self.network
        rng = self._rng
        s = plan.num_slots
        if s == 0:
            return PhaseResult(
                plan=plan, newly_informed=_NO_IDS, jammed_slots=0, adversary_spend=0.0
            )

        topology = network.topology
        if topology is not None and not topology.is_single_hop:
            return self._run_phase_multihop(plan, roles, jam_plan, start_slot)

        uninformed = roles.active_uninformed_ids
        relays = roles.relay_ids
        decoys = roles.decoy_ids
        num_u = uninformed.size

        # ------------------------------------------------------------------ #
        # 1. How many slots fall in each slot class                          #
        # ------------------------------------------------------------------ #
        hist = rng.multinomial(s, slot_class_probabilities(plan, roles)).tolist()

        # ------------------------------------------------------------------ #
        # 2. Carol's jams and spoofs per class (disjoint, one frame per      #
        #    spoof), and the channel counts they leave                       #
        # ------------------------------------------------------------------ #
        jammed, spoofed, adversary_spend = self._draw_adversary_counts(jam_plan, s, rng, hist)
        noisy_for_spared = s - hist[IDLE] + spoofed[IDLE]
        noisy_for_victim = noisy_for_spared + jammed[IDLE]
        good_unjammed = (
            hist[CLEAN_ALICE] + hist[CLEAN_RELAY] - spoofed[CLEAN_ALICE] - spoofed[CLEAN_RELAY]
        )
        good_when_victim = good_unjammed - jammed[CLEAN_ALICE] - jammed[CLEAN_RELAY]
        # Victims come from the plan's targeting every phase: mobile and
        # reactive disk jammers re-target, so nothing here is cached per run.
        # Targeting everyone or no one makes every per-node quantity below
        # one scalar; only ONLY needs the per-node victim mask.
        mode = jam_plan.targeting.mode
        victim: np.ndarray | None = None
        if mode is JamMode.ALL:
            jam_victims = num_u
        elif mode is JamMode.NONE:
            jam_victims = 0
        else:
            victim = jam_plan.targeting.affects_array(uninformed)
            jam_victims = int(np.count_nonzero(victim))

        def per_node(when_victim: int, when_spared: int) -> "int | np.ndarray":
            if victim is None:
                return when_victim if mode is JamMode.ALL else when_spared
            return np.where(victim, when_victim, when_spared)

        newly_informed = _NO_IDS
        informed_mask: np.ndarray | None = None
        good_per_node: "int | np.ndarray" = 0
        p_listen = plan.uninformed_listen_prob
        if plan.carries_payload and num_u and p_listen > 0:
            good_per_node = per_node(good_when_victim, good_unjammed)
            p_informed = 1.0 - np.power(1.0 - p_listen, good_per_node)
            informed_mask = rng.random(num_u) < p_informed
            newly_informed = uninformed[informed_mask]

        delivery_slots = good_unjammed if mode is JamMode.NONE else good_when_victim

        # ------------------------------------------------------------------ #
        # 3. Costs                                                            #
        # ------------------------------------------------------------------ #
        alice_send_slots = hist[CLEAN_ALICE] + hist[BUSY_ALICE]
        if alice_send_slots:
            network.alice_ledger.charge_bulk(EnergyOperation.SEND, float(alice_send_slots))

        alice_listen_slots = 0
        alice_noisy = 0
        if roles.alice_active and plan.alice_listen_prob > 0:
            alice_is_victim = jam_plan.targeting.affects(ALICE_ID)
            noisy_for_alice = noisy_for_victim if alice_is_victim else noisy_for_spared
            quiet_for_alice = s - noisy_for_alice
            # Half-duplex: Alice listens only in slots she does not send in,
            # and every slot she sends in is noisy.
            p_alice = plan.alice_listen_prob
            alice_noisy = int(rng.binomial(noisy_for_alice - alice_send_slots, p_alice))
            alice_listen_slots = alice_noisy + int(rng.binomial(quiet_for_alice, p_alice))
            if alice_listen_slots:
                network.alice_ledger.charge_bulk(EnergyOperation.LISTEN, float(alice_listen_slots))

        noisy_listeners = node_noisy = _NO_IDS
        ledgers = network.node_ledgers
        if num_u:
            if p_listen > 0:
                noisy_per_node = per_node(noisy_for_victim, noisy_for_spared)
                # A scalar count draws one binomial per node, as an array does.
                size = None if victim is not None else num_u
                heard = binomial_iid(rng, noisy_per_node, p_listen, size)
                listen_cost = heard + binomial_iid(rng, s - noisy_per_node, p_listen, size)
                if informed_mask is not None and informed_mask.any():
                    listen_cost = self._truncate_informed_listening(
                        rng, listen_cost, informed_mask, good_per_node, p_listen, s
                    )
                # One vector charge per operation over the whole cohort.
                ledgers.charge_bulk_many(EnergyOperation.LISTEN, uninformed, listen_cost)
            else:
                heard = np.zeros(num_u, dtype=np.int64)

            if plan.nack_send_prob > 0:
                nack_cost = binomial_iid(rng, s, plan.nack_send_prob, num_u)
                ledgers.charge_bulk_many(EnergyOperation.SEND, uninformed, nack_cost)
            if plan.kind is PhaseKind.REQUEST:
                noisy_listeners, node_noisy = uninformed, heard

        if relays.size and plan.relay_send_prob > 0:
            relay_cost = binomial_iid(rng, s, plan.relay_send_prob, relays.size)
            ledgers.charge_bulk_many(EnergyOperation.SEND, relays, relay_cost)

        if decoys.size and plan.decoy_send_prob > 0:
            decoy_cost = binomial_iid(rng, s, plan.decoy_send_prob, decoys.size)
            ledgers.charge_bulk_many(EnergyOperation.SEND, decoys, decoy_cost)

        return PhaseResult(
            plan=plan,
            newly_informed=newly_informed,
            jammed_slots=sum(jammed),
            adversary_spend=adversary_spend,
            alice_noisy_heard=alice_noisy,
            noisy_listeners=noisy_listeners,
            node_noisy_heard=node_noisy,
            delivery_slots=delivery_slots,
            busy_slots=noisy_for_victim,
            alice_send_slots=alice_send_slots,
            alice_listen_slots=alice_listen_slots,
            spoofed_transmissions=sum(spoofed),
            path="single-hop",
            jam_victims=jam_victims,
        )

    # ------------------------------------------------------------------ #
    # Multi-hop (spatial-topology) execution                              #
    # ------------------------------------------------------------------ #

    def _run_phase_multihop(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        jam_plan: JamPlan,
        start_slot: int = 0,
    ) -> PhaseResult:
        """Event-driven execution over a spatial (CSR-backed) topology.

        Instead of materialising ``(devices × slots)`` indicator matrices, the
        phase is resolved from its transmission *events*: each sender's CSR
        row is sliced once onto the currently-active listeners, and each of
        its sends repeats them.  See the module docstring for the exact /
        approximate split; statistical equivalence with the slot engine is
        covered by the sparse-topology test suite.
        """

        network = self.network
        topology = network.topology
        rng = self._rng
        s = plan.num_slots
        n = topology.n
        csr = topology.neighbor_csr()

        uninformed = roles.active_uninformed_ids
        relays = roles.relay_ids
        decoys = roles.decoy_ids
        num_u, num_r, num_d = uninformed.size, relays.size, decoys.size
        p_listen = plan.uninformed_listen_prob
        listening = bool(num_u) and p_listen > 0
        deliver = listening and plan.carries_payload
        count_noise = listening and plan.kind is PhaseKind.REQUEST

        # Listener-position lookup: device row -> index into `uninformed`
        # (None: no row listens).
        u_pos = None
        if num_u:
            u_pos = np.full(n + 1, -1, dtype=np.int64)
            u_pos[uninformed] = np.arange(num_u, dtype=np.int64)

        # ------------------------------------------------------------------ #
        # 1. Transmission events                                             #
        # ------------------------------------------------------------------ #
        alice_slots = _NO_IDS
        if roles.alice_active and plan.alice_send_prob > 0:
            _, alice_slots = _sample_bernoulli_events(rng, 1, s, plan.alice_send_prob)

        relay_idx, relay_slots = _sample_bernoulli_events(rng, num_r, s, plan.relay_send_prob)
        nack_idx, nack_slots = _sample_bernoulli_events(rng, num_u, s, plan.nack_send_prob)
        decoy_idx, decoy_slots = _sample_bernoulli_events(rng, num_d, s, plan.decoy_send_prob)

        # Slots in which each *listener* transmits (it cannot listen there),
        # as keys ``pos·s + slot``.  `nack_idx` already indexes into
        # `uninformed`, i.e. it *is* the sender's listener position, and the
        # sampler returns keys strictly increasing.
        own_keys = nack_idx * s + nack_slots
        if decoy_idx.size:
            if nack_idx.size:
                # Half-duplex, mirroring the slot engine: a decoy sender that
                # chose a nack in the same slot keeps the nack.
                nack_device_keys = uninformed[nack_idx] * s + nack_slots
                keep = ~isin_sorted(decoys[decoy_idx] * s + decoy_slots, nack_device_keys)
                decoy_idx, decoy_slots = decoy_idx[keep], decoy_slots[keep]
            if u_pos is not None:
                decoy_lpos = u_pos[decoys[decoy_idx]]
                active_decoy = decoy_lpos >= 0
                if active_decoy.any():
                    own_keys = unique_sorted(
                        np.concatenate(
                            [own_keys, decoy_lpos[active_decoy] * s + decoy_slots[active_decoy]]
                        )
                    )

        # ------------------------------------------------------------------ #
        # 2. Adversary actions (jamming + spoofed transmissions)             #
        # ------------------------------------------------------------------ #
        correct_activity = np.zeros(s, dtype=bool)
        correct_activity[alice_slots] = True
        correct_activity[relay_slots] = True
        correct_activity[nack_slots] = True
        correct_activity[decoy_slots] = True

        jam_offsets, spoof_slots, adversary_spend = self._materialize_adversary_actions(
            jam_plan, s, rng, correct_activity
        )
        jammed_slots = int(jam_offsets.size)
        spoofed_transmissions = int(spoof_slots.size)
        # Slot masks of the adversary's actions, built only when it acted
        # (None: no such slot).  Busy slots carry any frame or jam.
        jam_mask = spoof_busy = None
        busy = correct_activity
        if jammed_slots:
            jam_mask = np.zeros(s, dtype=bool)
            jam_mask[jam_offsets] = True
            busy = busy | jam_mask
        if spoofed_transmissions:
            spoof_busy = np.zeros(s, dtype=bool)
            spoof_busy[spoof_slots] = True
            busy = busy | spoof_busy
        busy_slots = int(np.count_nonzero(busy))
        del correct_activity, busy

        # Targeting everyone or no one needs no per-listener victim mask.
        mode = jam_plan.targeting.mode
        victim = None
        if mode is JamMode.ALL:
            jam_victims = num_u
        elif mode is JamMode.NONE:
            jam_victims = 0
        else:
            victim = jam_plan.targeting.affects_array(uninformed)
            jam_victims = int(np.count_nonzero(victim))
        # Jammed for the listener at each position (None: never).
        jam_hits = jam_mask if mode is not JamMode.NONE else None

        def jammed_for(slot: np.ndarray, pos: np.ndarray) -> np.ndarray:
            hit = jam_hits[slot]
            return hit if victim is None else hit & victim[pos]

        # ------------------------------------------------------------------ #
        # 3. Events onto their senders' active listeners                     #
        # ------------------------------------------------------------------ #
        # Delivery needs the payload keys; the noise keys matter only where
        # there is payload to collide with, or noise to count.
        alice_listens = roles.alice_active and plan.alice_listen_prob > 0
        payload_pos = u_pos if deliver or count_noise else None
        relay_keys, relay_heard = _listener_pairs(
            csr, payload_pos, s, relays, relay_idx, relay_slots, alice_listens
        )
        alice_keys = _NO_IDS
        if alice_slots.size and payload_pos is not None:
            # Alice is one sender: her active listeners, repeated per send.
            alice_pos = payload_pos[csr.row(n)]
            alice_pos = alice_pos[alice_pos >= 0]
            alice_keys = (alice_slots[:, None] + alice_pos[None, :] * s).reshape(-1)
        payload_keys = _joined([relay_keys, alice_keys])
        noise_pos = u_pos if count_noise or (deliver and payload_keys.size) else None
        nack_keys, nack_heard = _listener_pairs(
            csr, noise_pos, s, uninformed, nack_idx, nack_slots, alice_listens
        )
        decoy_keys, decoy_heard = _listener_pairs(
            csr, noise_pos, s, decoys, decoy_idx, decoy_slots, alice_listens
        )
        noise_keys = _joined([nack_keys, decoy_keys])
        del relay_keys, alice_keys, nack_keys, decoy_keys

        # ------------------------------------------------------------------ #
        # 4. Delivery (payload phases)                                       #
        # ------------------------------------------------------------------ #
        newly_informed = _NO_IDS
        delivery_slots = 0
        # Per-listener delivery slot and inclusive active window (a node
        # informed in slot t stops after t); None while nobody is informed,
        # when every window is the whole phase.
        informed_mask = cutoff = None
        clean_keys = _NO_IDS
        if deliver and payload_keys.size:
            # A delivery candidate is a key exactly one payload sender hit:
            # after an in-place sort, one that equals neither neighbour.
            payload_keys.sort()
            repeated = payload_keys[1:] == payload_keys[:-1]
            lone = np.ones(payload_keys.size, dtype=bool)
            lone[1:] &= ~repeated
            lone[:-1] &= ~repeated
            del repeated
            cand = payload_keys[lone]
            del lone
            clean = np.ones(cand.size, dtype=bool)
            if noise_keys.size:
                noise_keys.sort()
                clean &= ~isin_sorted(cand, noise_keys)
            if own_keys.size:
                clean &= ~isin_sorted(cand, own_keys)
            cand_pos = cand // s
            cand_slot = cand % s
            if spoof_busy is not None:
                clean &= ~spoof_busy[cand_slot]
            if jam_hits is not None:
                clean &= ~jammed_for(cand_slot, cand_pos)
            clean_keys = cand[clean]
            cand_pos, cand_slot = cand_pos[clean], cand_slot[clean]
            heard = rng.random(cand_pos.size) < p_listen
            heard_pos, heard_slot = cand_pos[heard], cand_slot[heard]
            if heard_pos.size:
                # `cand` was sorted by (listener, slot): the first occurrence
                # of each listener is its earliest heard clean delivery.
                first_pos, first_index = np.unique(heard_pos, return_index=True)
                first_slot = heard_slot[first_index]
                informed_at = np.full(num_u, -1, dtype=np.int64)
                informed_at[first_pos] = first_slot
                informed_mask = informed_at >= 0
                cutoff = np.where(informed_mask, informed_at, s - 1)
                newly_informed = uninformed[first_pos]
                delivery_slots = int(unique_sorted(first_slot).size)

        # ------------------------------------------------------------------ #
        # 5. Listener costs and request-phase noise counts                   #
        # ------------------------------------------------------------------ #
        noisy_listeners = node_noisy = _NO_IDS
        if num_u:
            # Each listener's own sends within its active window.
            own_in = own_pos = own_slot = _NO_IDS
            if own_keys.size:
                own_in = own_keys
                own_pos = own_keys // s
                own_slot = own_keys % s
                if cutoff is not None:
                    in_window = own_slot <= cutoff[own_pos]
                    own_in, own_pos, own_slot = (
                        own_keys[in_window], own_pos[in_window], own_slot[in_window]
                    )

            if listening:
                listenable = s if cutoff is None else cutoff + 1
                if own_pos.size:
                    listenable = np.maximum(
                        listenable - np.bincount(own_pos, minlength=num_u), 0
                    )
                if informed_mask is None:
                    # A scalar window draws one binomial per node, as an array does.
                    listen_cost = rng.binomial(
                        listenable, p_listen, size=None if np.ndim(listenable) else num_u
                    )
                else:
                    # Marginal truncation (documented approximation, as in the
                    # single-hop path): an informed node's pre-delivery
                    # listening cost is a binomial over its active window,
                    # plus the delivery slot it actually heard.
                    draw_window = np.where(
                        informed_mask, np.maximum(listenable - 1, 0), listenable
                    )
                    listen_cost = rng.binomial(draw_window, p_listen)
                    listen_cost += informed_mask

            if count_noise:
                # Exact per-listener noisy-slot counts within each listener's
                # active window: globally-noisy slots (spoofing, and jamming
                # for victims) plus the listener's own audible slots, minus
                # clean deliveries, overlap, and half-duplex exclusions: a
                # slot is noisy for a listener iff it is jammed for it, or
                # anything is audible there and it is not a clean delivery.
                n_noisy = _globally_noisy(num_u, spoof_busy, jam_hits, victim, cutoff)

                # Every audible key, sorted in place (repeats kept).
                audible = _joined([noise_keys, payload_keys])
                del noise_keys, payload_keys
                audible.sort()
                if own_in.size:
                    # A transmitting node cannot hear the slot it sends in.
                    # Own keys are never clean deliveries, so membership in
                    # `audible` is membership in its non-clean part.
                    own_noisy = isin_sorted(own_in, audible)
                    if spoof_busy is not None:
                        own_noisy |= spoof_busy[own_slot]
                    if jam_hits is not None:
                        own_noisy |= jammed_for(own_slot, own_pos)
                    n_noisy -= np.bincount(own_pos[own_noisy], minlength=num_u)
                if audible.size:
                    # Count each key once, unless it is a clean delivery (each
                    # occurs exactly once in `audible`), outside its
                    # listener's window, or already globally noisy.
                    counted = np.empty(audible.size, dtype=bool)
                    counted[0] = True
                    np.not_equal(audible[1:], audible[:-1], out=counted[1:])
                    if clean_keys.size:
                        counted[np.searchsorted(audible, clean_keys)] = False
                    a_slot = audible % s
                    a_pos = np.floor_divide(audible, s, out=audible)
                    if cutoff is not None:
                        counted &= a_slot <= cutoff[a_pos]
                    if spoof_busy is not None:
                        counted &= ~spoof_busy[a_slot]
                    if jam_hits is not None:
                        counted &= ~jammed_for(a_slot, a_pos)
                    del a_slot
                    n_noisy += np.bincount(a_pos[counted], minlength=num_u)
                noisy_listeners = uninformed
                node_noisy = rng.binomial(np.maximum(n_noisy, 0), p_listen)

            if listening:
                network.node_ledgers.charge_bulk_many(
                    EnergyOperation.LISTEN, uninformed, listen_cost
                )
            if nack_idx.size:
                in_window = nack_idx
                if cutoff is not None:
                    in_window = nack_idx[nack_slots <= cutoff[nack_idx]]
                network.node_ledgers.charge_bulk_many(
                    EnergyOperation.SEND, uninformed, np.bincount(in_window, minlength=num_u)
                )

        # ------------------------------------------------------------------ #
        # 6. Alice                                                           #
        # ------------------------------------------------------------------ #
        alice_send_slots = int(alice_slots.size)
        if alice_send_slots:
            network.alice_ledger.charge_bulk(EnergyOperation.SEND, float(alice_send_slots))

        alice_noisy = 0
        alice_listen_slots = 0
        if alice_listens:
            noisy_for_alice = (
                np.zeros(s, dtype=bool) if spoof_busy is None else spoof_busy.copy()
            )
            for heard_slots in (relay_heard, nack_heard, decoy_heard):
                noisy_for_alice[heard_slots] = True
            if jam_mask is not None and jam_plan.targeting.affects(ALICE_ID):
                noisy_for_alice |= jam_mask
            if alice_send_slots:
                noisy_for_alice[alice_slots] = False  # half-duplex
            n_noisy_alice = int(np.count_nonzero(noisy_for_alice))
            n_quiet_alice = s - alice_send_slots - n_noisy_alice
            alice_noisy = int(rng.binomial(n_noisy_alice, plan.alice_listen_prob))
            alice_listen_slots = alice_noisy + int(
                rng.binomial(max(n_quiet_alice, 0), plan.alice_listen_prob)
            )
            if alice_listen_slots:
                network.alice_ledger.charge_bulk(EnergyOperation.LISTEN, float(alice_listen_slots))

        # ------------------------------------------------------------------ #
        # 7. Relay and decoy send costs (exact event counts)                 #
        # ------------------------------------------------------------------ #
        if relay_idx.size:
            network.node_ledgers.charge_bulk_many(
                EnergyOperation.SEND, relays, np.bincount(relay_idx, minlength=num_r)
            )
        if decoy_idx.size:
            network.node_ledgers.charge_bulk_many(
                EnergyOperation.SEND, decoys, np.bincount(decoy_idx, minlength=num_d)
            )

        return PhaseResult(
            plan=plan,
            newly_informed=newly_informed,
            jammed_slots=jammed_slots,
            adversary_spend=adversary_spend,
            alice_noisy_heard=alice_noisy,
            noisy_listeners=noisy_listeners,
            node_noisy_heard=node_noisy,
            delivery_slots=delivery_slots,
            busy_slots=busy_slots,
            alice_send_slots=alice_send_slots,
            alice_listen_slots=alice_listen_slots,
            spoofed_transmissions=spoofed_transmissions,
            path="multihop-sparse",
            jam_victims=jam_victims,
        )

    # ------------------------------------------------------------------ #
    # Internals                                                           #
    # ------------------------------------------------------------------ #

    def _draw_adversary_counts(
        self, jam_plan: JamPlan, s: int, rng: np.random.Generator, hist: "list[int]"
    ) -> "tuple[list[int], list[int], float]":
        """Resolve a single-hop phase's jams and spoofs as per-class counts.

        Slots are iid within the phase and Carol picks hers independently of
        the correct side's coins, so the classes of any set she picks — a
        random subset, explicit indices, a sorted prefix of either, the
        earliest active slots — are a draw without replacement from ``hist``.
        Returns per-class ``(jammed, spoofed)`` slot counts and the spend.
        """

        pool = hist  # the slots Carol's jams are drawn from, per class
        if jam_plan.slot_indices is not None:
            wanted = materialize_jam_slots(jam_plan, s, rng).size
        else:
            if jam_plan.reactive:
                pool = [0] + hist[1:]  # reactive jams hit only slots with traffic
            wanted = min(max(jam_plan.num_jam_slots, 0), sum(pool))
        jams, payload, nack, spend = charge_adversary_actions(
            self.network.adversary_ledger, s, wanted, jam_plan
        )
        jammed = _draw_from(rng, pool, jams)
        free = [h - j for h, j in zip(hist, jammed)]
        spoofed = _draw_from(rng, free, payload)
        rest = _draw_from(rng, [f - p for f, p in zip(free, spoofed)], nack)
        return jammed, [p + r for p, r in zip(spoofed, rest)], spend

    def _materialize_adversary_actions(
        self, jam_plan: JamPlan, s: int, rng: np.random.Generator, correct_activity: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, float]":
        """Materialise one multi-hop phase's jams and spoofs within budget.

        ``correct_activity`` is the per-slot activity mask reactive plans
        read.  Returns ``(jam_offsets, spoof_slots, adversary_spend)``: sorted,
        pairwise-disjoint offsets, one forged frame per spoofed slot.
        """

        activity_mask = correct_activity if jam_plan.reactive else None
        jam_offsets = materialize_jam_slots(jam_plan, s, rng, activity_mask=activity_mask)
        jams, payload, nack, spend = charge_adversary_actions(
            self.network.adversary_ledger, s, jam_offsets.size, jam_plan
        )
        jam_offsets = jam_offsets[:jams]
        if jam_plan.spoof_payload_slots <= 0 and jam_plan.spoof_nack_slots <= 0:
            return jam_offsets, _NO_IDS, spend  # no spoof draws, nothing to merge
        spoof_payload = materialize_spoof_slots(
            jam_plan.spoof_payload_slots, s, rng, exclude=jam_offsets
        )
        spoof_nack = materialize_spoof_slots(
            jam_plan.spoof_nack_slots,
            s,
            rng,
            exclude=np.concatenate([jam_offsets, spoof_payload])
            if jam_plan.spoof_nack_slots > 0
            else (),
        )
        spoof_slots = np.sort(np.concatenate([spoof_payload[:payload], spoof_nack[:nack]]))
        return jam_offsets, spoof_slots, spend

    @staticmethod
    def _truncate_informed_listening(
        rng: np.random.Generator,
        listen_cost: np.ndarray,
        informed_mask: np.ndarray,
        good_per_node: "int | np.ndarray",
        p_listen: float,
        num_slots: int,
    ) -> np.ndarray:
        """Stop charging listening once a node has received the message.

        A node that becomes informed stops listening for the remainder of the
        phase (the slot engine models this exactly).  For each informed node
        we sample which of its ``g`` delivery opportunities was the first one
        it actually heard — a geometric draw truncated to ``g`` trials — place
        that opportunity proportionally within the phase (delivery slots are
        spread roughly uniformly), and charge listening only up to that point.
        ``good_per_node`` is one count for every node or a per-node array.
        """

        informed_idx = np.flatnonzero(informed_mask)
        if np.ndim(good_per_node):
            good_per_node = good_per_node[informed_idx]
        g = np.maximum(good_per_node, 1)
        if p_listen >= 1.0:
            first_success = np.ones(informed_idx.size, dtype=np.int64)
        else:
            q = 1.0 - p_listen
            truncation = 1.0 - np.power(q, g)
            u = rng.random(informed_idx.size) * truncation
            with np.errstate(divide="ignore"):
                first_success = np.ceil(np.log1p(-u) / np.log(q)).astype(np.int64)
            first_success = np.clip(first_success, 1, g)
        # Position of the first-heard delivery opportunity within the phase.
        position = np.minimum(
            np.ceil(first_success / g * num_slots).astype(np.int64), num_slots
        )
        truncated = rng.binomial(np.maximum(position - 1, 0), p_listen) + 1
        result = listen_cost.copy()
        result[informed_idx] = np.minimum(truncated, listen_cost[informed_idx] + 1)
        return result
