"""Search a network graph for GHZ / Bell-pair extraction plans.

A plan measures every non-participating vertex in a Pauli basis and leaves
the participants in the target resource up to outcome-conditioned Pauli
corrections.  It compiles down to per-vertex measurement settings on the
network state.

The search tries the 3^k Pauli bases of the k nonparticipants, fewest
non-Z letters first, and is complete over plans of this kind.  A local
complementation leaves the physical state unchanged and only relabels the
Pauli basis each vertex is measured in, so a plan that first complements
the graph still measures the same state in one of the same 3^k physical
bases (Bouchet's vertex-minor lemma, as used by Dahlberg, Helsen and
Wehner, arXiv:1805.05306).  Turning a graph state into a specific GHZ state
or set of Bell pairs by local operations is NP-complete in general
(arXiv:1907.08019), so the exhaustive search stays behind small caps: at
most DENSE_CAP vertices, so every plan it returns is checked against the
dense oracle, and at most NONPARTICIPANT_CAP nonparticipants.

The pairwise (2QKD) side needs Bell pairs that together link all users,
cast from as few network copies as the greedy cover finds.  The cover makes
one ordered scan over link sets, largest first, and takes every disjoint
set that can be cast and that joins two components of the links taken so
far.  Whether a set can be cast never changes, and a set inside the
components stays inside them, so no set is searched twice.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphstate import (
    DENSE_CAP,
    Graph,
    GraphState,
    SizeCapError,
    _apply_single_qubit,
    local_complement,
    measure_vertex,
    project_dense,
    to_dense,
)
from .pauli import (
    HADAMARD,
    IDENTITY,
    PAULI_GATES,
    LocalClifford,
    compose,
    from_name,
    pauli_layer,
    paulis_commute,
)

ORBIT_CAP = 12
NONPARTICIPANT_CAP = 6


@dataclass(frozen=True)
class RoundSetting:
    """Per-vertex physical measurement bases for one protocol round type."""

    round_type: str                              # "type-1" | "type-2"
    per_vertex_basis: Mapping[int, str]
    sign_convention: Mapping[int, int]           # vertex -> +1/-1 outcome-bit sign

    def basis_string(self, vertices: Sequence[int]) -> str:
        return "".join(self.per_vertex_basis[v] for v in vertices)


@dataclass(frozen=True)
class ExtractionPlan:
    """A verified recipe turning the network graph state into a target resource.

    nonparticipant_bases holds the compiled physical letters; the logical
    (graph-rule) bases chosen by the plan are kept alongside.  Searched plans
    have lc_sequence == (); only explicit routes (e.g. networks.ghz_plan)
    set it.  Those complementations are virtual: together with the
    preparation frame they are folded into the physical bases.

    The outcome bits of the nonparticipants act on the participants by
    byproducts linear over GF(2): byproduct_terms[v] is the Pauli letter per
    participant that an outcome 1 at v multiplies in, and the all-zero
    branch defines the frames, so a branch's byproduct is the product of the
    terms of the nonparticipants that read 1.
    """

    graph: Graph
    kind: str                                    # "ghz" | "bell_multicast"
    targets: tuple[int, ...]                     # participants, sorted
    pairs: tuple[tuple[int, int], ...]           # for multicast plans
    lc_sequence: tuple[int, ...]
    nonparticipant_bases: Mapping[int, str]      # compiled physical basis letters
    nonparticipant_logical_bases: Mapping[int, str]
    participant_frame: Mapping[int, LocalClifford]
    byproduct_terms: Mapping[int, Mapping[int, str]]
    preparation_frame: Mapping[int, LocalClifford]
    copies_required: int = 1

    @property
    def nonparticipants(self) -> tuple[int, ...]:
        return tuple(sorted(self.nonparticipant_bases))

    @cached_property
    def round_cache(self) -> dict:
        """Per-round-type data derived from this instance (keyrates.plan_round);
        outside ==, repr and plan_to_json, and empty on a replaced plan."""
        return {}


class NoPlanFoundError(ValueError):
    """No extraction plan exists within the search caps."""


# ---------------------------------------------------------------------------
# orbit enumeration


def lc_orbit(g: Graph) -> set[Graph]:
    """All labelled graphs reachable from g by local complementations."""
    if g.n > ORBIT_CAP:
        raise SizeCapError(f"orbit enumeration capped at {ORBIT_CAP} vertices")
    seen = {g}
    queue = deque([g])
    while queue:
        cur = queue.popleft()
        for v in cur.vertices:
            nxt = cur.toggle_neighborhood(v)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# plan realization


def _star_reduction(residual: Graph) -> tuple[tuple[int, ...], int] | None:
    """LC sequence turning the residual graph into a star, plus the center.

    The labelled LC orbit of a star on n >= 3 vertices is the n stars and
    the complete graph, which complementing at v turns into the star
    centred at v; a single vertex or an edge is its own star.  Returns None
    for any other graph (the post-measurement state is not GHZ-type).
    """
    verts = residual.vertices
    n = len(verts)
    degrees = [mask.bit_count() for mask in residual.adj]
    if sorted(degrees) == [1] * (n - 1) + [n - 1]:
        return (), verts[degrees.index(n - 1)]
    if degrees == [n - 1] * n:
        return (verts[0],), verts[0]
    return None


def _measure_branch(gs: GraphState, logical_bases: Mapping[int, str],
                    outcomes: Mapping[int, int],
                    ) -> tuple[GraphState, dict[int, str]] | None:
    """Measure vertices in label order, each in its logical (graph-rule) basis.

    The physical basis is the logical one conjugated through the vertex frame
    at measurement time; outcomes are physical bits.  Returns the remaining
    state and the compiled physical letters, or None when a requested outcome
    has probability zero and its counterpart also fails.
    """
    physical: dict[int, str] = {}
    for v in sorted(logical_bases):
        letter, _ = gs.frame[v].conjugate((logical_bases[v], 1))
        physical[v] = letter
        want = outcomes[v]
        try:
            gs, _ = measure_vertex(gs, letter, v, want)
        except ValueError:
            try:
                gs, _ = measure_vertex(gs, letter, v, 1 - want)
            except ValueError:
                return None
    return gs, physical


def _logical_target_vector(plan_kind: str, targets: tuple[int, ...],
                           pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Dense logical resource: N-GHZ over targets, or a tensor of Bell pairs."""
    n = len(targets)
    if plan_kind == "ghz":
        vec = np.zeros(1 << n, dtype=complex)
        vec[0] = vec[-1] = 1 / np.sqrt(2)
        return vec
    pos = {v: i for i, v in enumerate(targets)}
    full = np.zeros(1 << n, dtype=complex)
    for idx in range(1 << n):
        amp = 1.0
        for a, b in pairs:
            ba = (idx >> (n - 1 - pos[a])) & 1
            bb = (idx >> (n - 1 - pos[b])) & 1
            amp *= (1 / np.sqrt(2)) if ba == bb else 0.0
        full[idx] = amp
    return full


def realize_plan(graph: Graph, kind: str, participants: Iterable[int],
                 lc_sequence: Sequence[int], logical_bases: Mapping[int, str],
                 pairs: Sequence[tuple[int, int]] = (), verify: bool = True,
                 preparation_frame: Mapping[int, LocalClifford] | None = None,
                 ) -> ExtractionPlan | None:
    """Build the full plan (frames, byproduct terms) for a candidate recipe.

    logical_bases gives the graph-rule basis per nonparticipant; the compiled
    physical letters are derived from the frames.  The search passes an
    empty lc_sequence; a nonempty one gives an explicit route, measured after
    those virtual complementations.  Returns None when the recipe does not
    produce the requested resource.
    """
    targets = tuple(sorted(participants))
    pairs = tuple(tuple(sorted(p)) for p in pairs)
    nonparts = sorted(logical_bases)
    prep = dict(preparation_frame) if preparation_frame else {
        v: IDENTITY for v in graph.vertices}

    gs = GraphState(graph, prep)
    for v in lc_sequence:
        gs = local_complement(gs, v)

    ref = _measure_branch(gs, logical_bases, {v: 0 for v in nonparts})
    if ref is None:
        return None
    gs_ref, physical_bases = ref
    residual = gs_ref.graph
    if residual.vertices != targets:
        return None

    if kind == "ghz":
        if len(residual.connected_components()) != 1:
            return None
        red = _star_reduction(residual)
        if red is None:
            return None
        star_path, center = red
    else:
        comps = {frozenset(p) for p in pairs}
        if {frozenset(c) for c in residual.connected_components()} != comps:
            return None
        star_path, center = (), None

    def participant_frames(gs_branch: GraphState) -> dict[int, LocalClifford]:
        for v in star_path:
            gs_branch = local_complement(gs_branch, v)
        frames = {}
        if kind == "ghz":
            for u in targets:
                f = gs_branch.frame[u]
                frames[u] = f if u == center else compose(f, HADAMARD)
        else:
            for a, b in pairs:
                frames[a] = gs_branch.frame[a]
                frames[b] = compose(gs_branch.frame[b], HADAMARD)
        return frames

    frame_ref = participant_frames(gs_ref)

    # the byproducts are linear in the outcome bits: the branch with one 1,
    # at v, gives the term of v
    byproduct_terms: dict[int, dict[int, str]] = {}
    for v in nonparts:
        branch = _measure_branch(gs, logical_bases, {w: int(w == v) for w in nonparts})
        if branch is None:
            return None
        frames_b = participant_frames(branch[0])
        terms: dict[int, str] = {}
        for u in targets:
            rep, letter = pauli_layer(compose(frame_ref[u].inverse(), frames_b[u]))
            if rep != IDENTITY:
                return None  # branches differ by more than a Pauli: not a valid plan
            terms[u] = letter
        byproduct_terms[v] = terms

    plan = ExtractionPlan(
        graph=graph, kind=kind, targets=targets, pairs=pairs,
        lc_sequence=tuple(lc_sequence),
        nonparticipant_bases=physical_bases,
        nonparticipant_logical_bases=dict(logical_bases),
        participant_frame=frame_ref,
        byproduct_terms=byproduct_terms,
        preparation_frame=prep,
    )
    if verify and graph.n <= DENSE_CAP and not verify_plan_dense(plan):
        return None
    return plan


def network_vector(plan: ExtractionPlan) -> np.ndarray:
    """Dense amplitudes of the plan's network state, preparation frame applied."""
    return to_dense(GraphState(plan.graph, dict(plan.preparation_frame)))


def verify_plan_dense(plan: ExtractionPlan, tol: float = 1e-10) -> bool:
    """Dense-oracle check: every nonparticipant outcome branch of the plan
    leaves the participants in the ideal resource state up to the recorded
    frames and the product of the byproduct terms of the nonparticipants
    that read 1.  Raises SizeCapError above DENSE_CAP vertices."""
    graph = plan.graph
    network = network_vector(plan)
    nonparts = plan.nonparticipants
    target_vec = _logical_target_vector(plan.kind, plan.targets, plan.pairs)
    n_t = len(plan.targets)
    for combo in itertools.product((0, 1), repeat=len(nonparts)):
        settings = {v: (plan.nonparticipant_bases[v], bit)
                    for v, bit in zip(nonparts, combo)}
        try:
            proj = project_dense(network, graph.vertices, settings)
        except ValueError:
            continue  # probability-0 branch
        expect = target_vec
        for i, u in enumerate(plan.targets):
            e = plan.participant_frame[u]
            for v, bit in zip(nonparts, combo):
                if bit:
                    e = compose(e, PAULI_GATES[plan.byproduct_terms[v][u]])
            expect = _apply_single_qubit(expect, n_t, i, e.matrix)
        fid = abs(np.vdot(proj, expect)) ** 2
        if abs(fid - 1) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# plan search


def _search_plans(g: Graph, kind: str, participants: frozenset[int],
                  pairs: tuple[tuple[int, int], ...] = (),
                  preparation_frame: Mapping[int, LocalClifford] | None = None):
    """First plan over the 3^k nonparticipant bases, fewest non-Z letters first."""
    if g.n > DENSE_CAP:
        raise SizeCapError(f"plan search capped at {DENSE_CAP} vertices, got {g.n}")
    nonparts = sorted(set(g.vertices) - participants)
    if len(nonparts) > NONPARTICIPANT_CAP:
        raise SizeCapError(
            f"search capped at {NONPARTICIPANT_CAP} nonparticipants, got {len(nonparts)}")
    basis_assignments = sorted(
        itertools.product("ZXY", repeat=len(nonparts)),
        key=lambda bs: (sum(b != "Z" for b in bs), bs))
    for bases in basis_assignments:
        plan = realize_plan(
            g, kind, participants, (), dict(zip(nonparts, bases)), pairs,
            verify=True, preparation_frame=preparation_frame)
        if plan is not None:
            return plan
    return None


def find_ghz_plan(g: Graph, targets: Iterable[int],
                  preparation_frame: Mapping[int, LocalClifford] | None = None,
                  ) -> ExtractionPlan | None:
    """Plan extracting a GHZ state over the target vertices, or None."""
    targets = frozenset(targets)
    if not targets <= set(g.vertices):
        raise ValueError("targets must be vertices of the graph")
    if len(targets) < 2:
        raise ValueError("GHZ extraction needs at least 2 targets")
    return _search_plans(g, "ghz", targets, preparation_frame=preparation_frame)


def find_bell_multicast_plan(g: Graph, pairs: Iterable[tuple[int, int]],
                             preparation_frame: Mapping[int, LocalClifford] | None = None,
                             ) -> ExtractionPlan | None:
    """Plan leaving exactly the requested disjoint Bell pairs from one copy."""
    pairs = tuple(tuple(sorted(p)) for p in pairs)
    participants = frozenset(v for p in pairs for v in p)
    if len(participants) != 2 * len(pairs):
        raise ValueError("pairs must be disjoint")
    if not participants <= set(g.vertices):
        raise ValueError("pair vertices must belong to the graph")
    return _search_plans(g, "bell_multicast", participants, pairs,
                         preparation_frame=preparation_frame)


def find_pairwise_plan_set(g: Graph, alice: int, bobs: Iterable[int],
                           preparation_frame: Mapping[int, LocalClifford] | None = None,
                           ) -> list[ExtractionPlan] | None:
    """Bell multicast plans whose pairs link alice and every bob, or None.

    One scan over the link sets, largest first, the star links (alice, bob)
    before the bridges between bobs: each disjoint set that joins two
    components of the links taken so far and has a plan is taken, one
    network copy each, until the users are linked.
    """
    bobs = sorted(bobs)
    users = [alice, *bobs]
    if len(set(users)) != len(users) or not bobs:
        raise ValueError("alice and at least one bob must be distinct vertices")
    star = [tuple(sorted((alice, b))) for b in bobs]
    links = star + [p for p in itertools.combinations(sorted(users), 2)
                    if p not in star]
    parent = {u: u for u in users}
    plans = []
    for size in range(len(users) // 2, 0, -1):
        for combo in itertools.combinations(links, size):
            flat = [v for pair in combo for v in pair]
            if len(set(flat)) != len(flat) or all(
                    _root(parent, a) == _root(parent, b) for a, b in combo):
                continue
            plan = find_bell_multicast_plan(g, combo, preparation_frame)
            if plan is not None:
                plans.append(plan)
                if _join(parent, plan.pairs) == 1:
                    return plans
    return None


# ---------------------------------------------------------------------------
# compilation and accounting


def compile_round_settings(plan: ExtractionPlan, round_type: str) -> RoundSetting:
    """Per-vertex physical bases realizing the nominal protocol bases.

    Type-1 measures the logical Z of every participant, type-2 the logical X;
    both are conjugated through the participant frames.  Nonparticipants
    always measure their plan basis.
    """
    if round_type not in ("type-1", "type-2"):
        raise ValueError("round_type must be 'type-1' or 'type-2'")
    logical = "Z" if round_type == "type-1" else "X"
    bases: dict[int, str] = {}
    signs: dict[int, int] = {}
    for u in plan.targets:
        letter, sign = plan.participant_frame[u].conjugate((logical, 1))
        bases[u] = letter
        signs[u] = sign
    for v, b in plan.nonparticipant_bases.items():
        bases[v] = b
        signs[v] = 1
    return RoundSetting(round_type, bases, signs)


def byproduct_correction(plan: ExtractionPlan, nonparticipant_outcomes: Mapping[int, int],
                         round_type: str = "type-1") -> dict[int, int]:
    """Outcome-bit flip mask for the participants, given nonparticipant bits.

    A Pauli byproduct flips a participant's bit exactly when it anticommutes
    with that participant's logical measurement basis, and the byproduct is
    a product of terms, so the flip is the XOR of the terms' flips.
    """
    missing = set(plan.nonparticipants) - set(nonparticipant_outcomes)
    if missing:
        raise ValueError(f"missing outcomes for nonparticipants {sorted(missing)}")
    logical = "Z" if round_type == "type-1" else "X"
    flips = dict.fromkeys(plan.targets, 0)
    for v, terms in plan.byproduct_terms.items():
        if nonparticipant_outcomes[v]:
            for u, letter in terms.items():
                flips[u] ^= not paulis_commute(letter, logical)
    return flips


def network_use_accounting(plans: Sequence[ExtractionPlan], protocol: str) -> int:
    """Copies of the network state consumed per conference round."""
    if protocol == "NQKD":
        ghz = [p for p in plans if p.kind == "ghz"]
        if len(ghz) != 1:
            raise ValueError("NQKD needs exactly one GHZ plan")
        return ghz[0].copies_required
    if protocol != "2QKD":
        raise ValueError("protocol must be 'NQKD' or '2QKD'")
    bell = [p for p in plans if p.kind == "bell_multicast"]
    if not bell:
        raise ValueError("2QKD needs Bell multicast plans")
    # the pairwise keys must span the participant group
    parent = {v: v for p in bell for v in p.targets}
    if _join(parent, [pair for p in bell for pair in p.pairs]) != 1:
        raise ValueError("pairwise links do not span the participants")
    return sum(p.copies_required for p in bell)


def _root(parent: dict[int, int], v: int) -> int:
    """Root of v in the union-find forest parent, halving the path."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _join(parent: dict[int, int], pairs: Iterable[tuple[int, int]]) -> int:
    """Union each pair in the forest parent; return its number of components."""
    for a, b in pairs:
        parent[_root(parent, a)] = _root(parent, b)
    return len({_root(parent, v) for v in parent})


def circuit_success_probability(gates: Sequence[str]) -> Fraction:
    """Post-selection success probability: 1/2 per fusion gate, 1/9 per CZ."""
    if not gates:
        raise ValueError("gate list must be nonempty")
    prob = Fraction(1)
    for gate in gates:
        if gate == "fusion":
            prob *= Fraction(1, 2)
        elif gate == "cz":
            prob *= Fraction(1, 9)
        else:
            raise ValueError(f"unknown gate kind {gate!r}")
    return prob


# ---------------------------------------------------------------------------
# serialization


def plan_to_json(plan: ExtractionPlan) -> str:
    doc = {
        "kind": plan.kind,
        "graph": {"n": plan.graph.n, "vertices": list(plan.graph.vertices),
                  "edges": [list(e) for e in plan.graph.edges()]},
        "targets": list(plan.targets),
        "pairs": [list(p) for p in plan.pairs],
        "lc_sequence": list(plan.lc_sequence),
        "nonparticipant_bases": {str(v): b for v, b in sorted(plan.nonparticipant_bases.items())},
        "nonparticipant_logical_bases": {
            str(v): b for v, b in sorted(plan.nonparticipant_logical_bases.items())},
        "participant_frame": {str(v): c.name for v, c in sorted(plan.participant_frame.items())},
        "preparation_frame": {str(v): c.name for v, c in sorted(plan.preparation_frame.items())},
        "byproduct_terms": {
            str(v): {str(u): letter for u, letter in sorted(terms.items())}
            for v, terms in sorted(plan.byproduct_terms.items())},
        "copies_required": plan.copies_required,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def plan_from_json(text: str) -> ExtractionPlan:
    doc = json.loads(text)
    if "byproduct_terms" not in doc:
        raise ValueError("plan has no byproduct_terms: it predates the affine "
                         "byproduct map, so extract it again")
    graph = Graph.from_edges(doc["graph"]["n"],
                             [tuple(e) for e in doc["graph"]["edges"]])
    return ExtractionPlan(
        graph=graph,
        kind=doc["kind"],
        targets=tuple(doc["targets"]),
        pairs=tuple(tuple(p) for p in doc["pairs"]),
        lc_sequence=tuple(doc["lc_sequence"]),
        nonparticipant_bases={int(v): b for v, b in doc["nonparticipant_bases"].items()},
        nonparticipant_logical_bases={
            int(v): b for v, b in doc["nonparticipant_logical_bases"].items()},
        participant_frame={int(v): from_name(name)
                           for v, name in doc["participant_frame"].items()},
        preparation_frame={int(v): from_name(name)
                           for v, name in doc["preparation_frame"].items()},
        byproduct_terms={int(v): {int(u): l for u, l in terms.items()}
                         for v, terms in doc["byproduct_terms"].items()},
        copies_required=doc["copies_required"],
    )
