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
(arXiv:1907.08019), so a search stops past SEARCH_BUDGET candidates with
SizeCapError, and None means it tried all.  Each plan is checked exactly, at
every size, by one Pauli string per stabilizer generator (verify_plan).

The pairwise (2QKD) side needs Bell pairs that together link all users,
cast from as few network copies as the greedy cover finds.  The cover makes
one ordered scan over disjoint link sets, largest first, and takes every
set that can be cast and that joins two components of the links taken so
far.  Whether a set can be cast never changes, and a set inside the
components stays inside them, so no set is searched twice.  A set of k
pairs whose cut-rank, across one end of each pair, is below k cannot be
cast (Oum, J. Combin. Theory B 95, 2005), so it is not searched.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graphstate import (
    Graph,
    GraphState,
    SizeCapError,
    _apply_single_qubit,
    local_complement,
    measure_vertex,
    project_dense,
    stabilizer_expectation,
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
SEARCH_BUDGET = 3**8  # candidates per public search: every basis of 8 nonparticipants


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
    """A recipe, checked by verify_plan, turning the network state into a resource.

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
        """Per round type and reader, data derived from this instance (keyrates.plan_round);
        outside ==, repr and plan_to_json, and empty on a replaced plan."""
        return {}


class NoPlanFoundError(ValueError):
    """The exhaustive search found no extraction plan."""


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
    degrees = [residual.adj[v].bit_count() for v in verts]
    if sorted(degrees) == [1] * (n - 1) + [n - 1]:
        return (), verts[degrees.index(n - 1)]
    if n >= 3 and degrees == [n - 1] * n:
        return (verts[0],), verts[0]
    return None


def _measure_branch(gs: GraphState, logical_bases: Mapping[int, str],
                    outcomes: Mapping[int, int]) -> tuple[GraphState, dict[int, str]]:
    """Measure vertices in label order, each in its logical (graph-rule) basis.

    The physical basis is the logical one conjugated through the vertex frame
    at measurement time; outcomes are physical bits.  Only an X-type
    measurement of an isolated vertex has an outcome of probability 0, and
    then its other outcome has probability 1 and is taken instead.  Returns
    the remaining state and the compiled physical letters.
    """
    physical: dict[int, str] = {}
    for v in sorted(logical_bases):
        letter, _ = gs.frame[v].conjugate((logical_bases[v], 1))
        physical[v] = letter
        try:
            gs, _ = measure_vertex(gs, letter, v, outcomes[v])
        except ValueError:
            gs, _ = measure_vertex(gs, letter, v, 1 - outcomes[v])
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
                 pairs: Sequence[tuple[int, int]] = (),
                 preparation_frame: Mapping[int, LocalClifford] | None = None,
                 ) -> ExtractionPlan | None:
    """Build the full plan (frames, byproduct terms) for a candidate recipe.

    logical_bases gives the graph-rule basis per nonparticipant; the compiled
    physical letters are derived from the frames.  The search passes an
    empty lc_sequence; a nonempty one gives an explicit route, measured after
    those virtual complementations.  Every branch leaves the all-zero
    branch's residual graph, with frames a Pauli away: the two outcomes of a
    measurement differ by Z on the measured vertex's neighbours, later
    complementations and gauge fixes map Paulis to Paulis, and a Pauli does
    not change the letter pulled back through a frame, which picks each
    complementation.  Returns None when the residual graph is not the
    resource's (its vertices, a star or the pairs), or when verify_plan
    rejects the plan, at every size.
    """
    targets = tuple(sorted(participants))
    pairs = tuple(tuple(sorted(p)) for p in pairs)
    nonparts = sorted(logical_bases)
    prep = dict(preparation_frame) if preparation_frame else {
        v: IDENTITY for v in graph.vertices}

    gs = GraphState(graph, prep)
    for v in lc_sequence:
        gs = local_complement(gs, v)

    gs_ref, physical_bases = _measure_branch(gs, logical_bases, dict.fromkeys(nonparts, 0))
    residual = gs_ref.graph
    if residual.vertices != targets:
        return None

    if kind == "ghz":
        red = _star_reduction(residual)
        if red is None:
            return None
        star_path, center = red
    else:
        adj = residual.adj
        if sorted(v for p in pairs for v in p) != list(targets) or any(
                adj[a] != 1 << b or adj[b] != 1 << a for a, b in pairs):
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
        branch, _ = _measure_branch(gs, logical_bases, {w: int(w == v) for w in nonparts})
        frames_b = participant_frames(branch)
        byproduct_terms[v] = {
            u: pauli_layer(compose(frame_ref[u].inverse(), frames_b[u]))[1]
            for u in targets}

    plan = ExtractionPlan(
        graph=graph, kind=kind, targets=targets, pairs=pairs,
        lc_sequence=tuple(lc_sequence),
        nonparticipant_bases=physical_bases,
        nonparticipant_logical_bases=dict(logical_bases),
        participant_frame=frame_ref,
        byproduct_terms=byproduct_terms,
        preparation_frame=prep,
    )
    return plan if verify_plan(plan) else None


def verify_plan(plan: ExtractionPlan) -> bool:
    """Whether each outcome branch leaves the participants in the resource,
    up to frames and byproducts: iff every stabilizer generator of it (Z Z
    on consecutive targets and X on all for GHZ, Z Z and X X per Bell pair)
    has corrected parity +1, the mean over branches, which is one Pauli
    string on the network state (subset_strings; Anders and Briegel,
    quant-ph/0504117).  No branch is walked."""
    n = len(plan.targets)
    if plan.kind == "ghz":
        generators = {"type-1": [3 << k for k in range(n - 1)], "type-2": [(1 << n) - 1]}
    else:
        pairs = [sum(1 << n - 1 - plan.targets.index(u) for u in p) for p in plan.pairs]
        generators = dict.fromkeys(("type-1", "type-2"), pairs)
    return all((subset_strings(plan, round_type, masks)[3] == 1).all()
               for round_type, masks in generators.items())


def network_vector(plan: ExtractionPlan) -> np.ndarray:
    """Dense amplitudes of the plan's network state, preparation frame applied."""
    return to_dense(GraphState(plan.graph, dict(plan.preparation_frame)))


def verify_plan_dense(plan: ExtractionPlan, tol: float = 1e-10) -> bool:
    """Dense-oracle check: every nonparticipant outcome branch of the plan
    leaves the participants in the ideal resource state up to the recorded
    frames and the product of the byproduct terms of the nonparticipants
    that read 1.  The test oracle of verify_plan, capped at DENSE_CAP vertices."""
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


def _bases_in_order(vertices: Sequence[int]) -> Iterator[dict[int, str]]:
    """Z, X or Y at each vertex, fewest X and Y first, then lexicographic, which
    is the combinations order of the (vertex, letter) pairs of the X and Y."""
    letters = [(v, b) for v in vertices for b in "XY"]
    for non_z in range(len(vertices) + 1):
        for combo in itertools.combinations(letters, non_z):
            if len({v for v, _ in combo}) == non_z:
                yield dict.fromkeys(vertices, "Z") | dict(combo)


def _candidate_budget(search: str) -> Iterator[None]:
    """A ticket per candidate of one public search; one more raises SizeCapError."""
    yield from itertools.repeat(None, SEARCH_BUDGET)
    raise SizeCapError(f"{search} stopped at the search budget of {SEARCH_BUDGET} candidates")


def _search_plans(g: Graph, kind: str, participants: frozenset[int],
                  pairs: tuple[tuple[int, int], ...],
                  preparation_frame: Mapping[int, LocalClifford] | None, budget: Iterator[None]):
    """First plan over _bases_in_order(nonparticipants), a budget ticket each; zip
    draws the bases first, so a search that tries them all needs no spare ticket."""
    nonparts = sorted(set(g.vertices) - participants)
    for bases, _ in zip(_bases_in_order(nonparts), budget):
        plan = realize_plan(g, kind, participants, (), bases, pairs,
                            preparation_frame=preparation_frame)
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
    return _search_plans(g, "ghz", targets, (), preparation_frame,
                         _candidate_budget("GHZ plan search"))


def find_bell_multicast_plan(g: Graph, pairs: Iterable[tuple[int, int]],
                             preparation_frame: Mapping[int, LocalClifford] | None = None,
                             *, _budget: Iterator[None] | None = None) -> ExtractionPlan | None:
    """Plan leaving exactly the requested disjoint Bell pairs from one copy."""
    pairs = tuple(tuple(sorted(p)) for p in pairs)
    participants = frozenset(v for p in pairs for v in p)
    if len(participants) != 2 * len(pairs):
        raise ValueError("pairs must be disjoint")
    if not participants <= set(g.vertices):
        raise ValueError("pair vertices must belong to the graph")
    return _search_plans(g, "bell_multicast", participants, pairs, preparation_frame,
                         _budget or _candidate_budget("Bell multicast plan search"))


def find_pairwise_plan_set(g: Graph, alice: int, bobs: Iterable[int],
                           preparation_frame: Mapping[int, LocalClifford] | None = None,
                           ) -> list[ExtractionPlan] | None:
    """Bell multicast plans whose pairs link alice and every bob, or None.

    One scan over the disjoint link sets, largest first, the star links
    (alice, bob) before the bridges between bobs: each set that joins two
    components of the links taken so far, passes the cut-rank test and has
    a plan is taken, one network copy each, until the users are linked.
    """
    bobs = sorted(bobs)
    users = [alice, *bobs]
    if len(set(users)) != len(users) or not bobs or not set(users) <= set(g.vertices):
        raise ValueError("alice and at least one bob must be distinct vertices of the graph")
    star = [tuple(sorted((alice, b))) for b in bobs]
    links = star + [p for p in itertools.combinations(sorted(users), 2)
                    if p not in star]
    parent = {u: u for u in users}
    plans = []
    budget = _candidate_budget("pairwise cover search")
    for size in range(len(users) // 2, 0, -1):
        for combo in _disjoint_link_sets(links, size):
            if all(_root(parent, a) == _root(parent, b) for a, b in combo) or (
                    _cut_rank(g, [a for a, _ in combo]) < size):
                continue
            plan = find_bell_multicast_plan(g, combo, preparation_frame, _budget=budget)
            if plan is not None:
                plans.append(plan)
                if _join(parent, plan.pairs) == 1:
                    return plans
    return None


def _disjoint_link_sets(links: Sequence[tuple[int, int]], size: int, start: int = 0,
                        used: int = 0) -> Iterable[tuple[tuple[int, int], ...]]:
    """The size-element sets of pairwise disjoint links, in the order of
    itertools.combinations(links, size); used masks the vertices taken."""
    if not size:
        yield ()
        return
    for i in range(start, len(links) - size + 1):
        a, b = links[i]
        if not used >> a & 1 and not used >> b & 1:
            for rest in _disjoint_link_sets(links, size - 1, i + 1, used | 1 << a | 1 << b):
                yield (links[i], *rest)


def _cut_rank(g: Graph, side: Sequence[int]) -> int:
    """GF(2) rank of the adjacency between the vertices of side and the rest:
    local complementation keeps it and deleting a vertex does not raise it,
    and k Bell pairs split by the cut have cut-rank k."""
    inside = sum(1 << v for v in side)
    pivots: dict[int, int] = {}
    for v in side:
        row = g.adj[v] & ~inside
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


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


def parity_strings(plan: ExtractionPlan, round_type: str) -> np.ndarray:
    """strings[i, k] = 1 when vertex k's compiled letter enters the parity
    string of participant i's corrected bit: its own, and each
    nonparticipant's whose byproduct term anticommutes with the logical
    basis of i.  A participant subset's string is the XOR of its rows."""
    logical = "Z" if round_type == "type-1" else "X"
    verts = plan.graph.vertices
    strings = np.array([[int(u == v) for v in verts] for u in plan.targets])
    for v, terms in plan.byproduct_terms.items():
        strings[:, verts.index(v)] = [not paulis_commute(terms[u], logical)
                                      for u in plan.targets]
    return strings


def subset_strings(plan: ExtractionPlan, round_type: str, masks: Sequence[int],
                   ) -> tuple[RoundSetting, np.ndarray, np.ndarray, np.ndarray]:
    """The round's setting and, per participant-subset mask (participant i at
    bit N-1-i), the string S whose <S> times sign is the subset's corrected
    parity on any network state: S's letter codes per vertex (0 = I, 1 = X,
    2 = Y, 3 = Z), its sign, and that parity on the plan's ideal state."""
    setting = compile_round_settings(plan, round_type)
    verts, n_parts = plan.graph.vertices, len(plan.targets)
    subset_bits = (np.asarray(masks)[:, None] >> np.arange(n_parts - 1, -1, -1)) & 1
    letters = np.array(["IXYZ".index(setting.per_vertex_basis[v]) for v in verts])
    negated = np.array([int(setting.sign_convention[u] < 0) for u in plan.targets])
    codes = ((subset_bits @ parity_strings(plan, round_type)) & 1) * letters
    signs = 1.0 - 2.0 * ((subset_bits @ negated) & 1)
    state = GraphState(plan.graph, dict(plan.preparation_frame))
    ideal = np.array([stabilizer_expectation(state, {v: "IXYZ"[c] for v, c in zip(verts, row)})
                      for row in codes.tolist()])
    return setting, codes, signs, ideal * signs


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
