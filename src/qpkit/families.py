"""Graph constructions: odd-cycle wing families, replication, blow-ups.

The wing family F(n, {k_1..k_o}) is an odd cycle v_1..v_n plus one wing
vertex w_k per chosen position k, adjacent to v_k and v_{k+1} (indices
wrap).  These graphs are quasiperfect but not perfect, and they come
with hand-picked prime sets whose residues are forests or block graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .graphs import Graph, bit_members, cycle_graph, from_edges, induced_subgraph, iter_bits, \
    mask_of
from .invariants import is_forest, is_perfect, maximal_cliques, maximum_independent_sets
from .recognition import is_prime_independent_set, prime_independent_sets


@dataclass(frozen=True)
class FamilySpec:
    """Odd cycle length n >= 5 and strictly increasing wing positions in 1..n."""

    n: int
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 5 or self.n % 2 == 0:
            raise ValueError(f"cycle length must be odd and >= 5, got {self.n}")
        if not self.positions:
            raise ValueError("at least one wing position is required")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("wing positions must be strictly increasing")
        if self.positions[0] < 1 or self.positions[-1] > self.n:
            raise ValueError(f"wing positions must lie in 1..{self.n}")

    @property
    def o(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class FamilyGraph:
    """A built wing family with vertex-role lookups.

    Cycle vertex v_i (1-based) sits at index i-1; the wing at position k
    sits at n + rank of k among the positions.
    """

    spec: FamilySpec
    graph: Graph

    def cycle_vertex(self, i: int) -> int:
        if not 1 <= i <= self.spec.n:
            raise ValueError(f"cycle label {i} outside 1..{self.spec.n}")
        return i - 1

    def wing_vertex(self, k: int) -> int:
        try:
            return self.spec.n + self.spec.positions.index(k)
        except ValueError as exc:
            raise ValueError(f"no wing at position {k}") from exc


def odd_cycle_family(spec: FamilySpec) -> FamilyGraph:
    n = spec.n
    edges = list(cycle_graph(n).edges())
    for rank, k in enumerate(spec.positions):
        w = n + rank
        edges.append((k - 1, w))
        edges.append((k % n, w))  # v_{k+1}, wrapping to v_1
    return FamilyGraph(spec, from_edges(n + spec.o, edges))


def family_prime_clique(fg: FamilyGraph) -> int:
    """The wing triangle at the first position: {w_{k1}, v_{k1}, v_{k1+1}}.

    Its removal leaves a block graph.  Note this set meets every maximum
    independent set of the family graph, but its two cycle vertices lie
    in no maximum independent set, so it does not satisfy the full
    prime-clique predicate; recognition finds other prime cliques.
    """
    k = fg.spec.positions[0]
    return mask_of((fg.wing_vertex(k), fg.cycle_vertex(k),
                    fg.cycle_vertex(k % fg.spec.n + 1)))


def _forest_residue(fg: FamilyGraph, mask: int) -> bool:
    g = fg.graph
    return is_forest(induced_subgraph(g, g.vertex_mask & ~mask))


def family_prime_independent_set(fg: FamilyGraph) -> int:
    """A prime independent set whose removal leaves a forest.

    With wings on every edge the set is {w_n, v_2, v_4, ..., v_{n-1}}.
    Otherwise start from the winged cycle vertices, greedily drop any
    vertex adjacent to the previously kept one (cyclically), and check
    the result; if the repaired set fails, fall back to exhaustive
    search over all prime independent sets, preferring forest residues.
    """
    spec = fg.spec
    g = fg.graph
    if spec.o == spec.n:
        members = [fg.wing_vertex(spec.n)]
        members.extend(fg.cycle_vertex(i) for i in range(2, spec.n, 2))
        mask = mask_of(members)
        if not (is_prime_independent_set(g, mask) and _forest_residue(fg, mask)):
            raise RuntimeError(
                f"full-wing prime independent set failed validation for {spec}")
        return mask

    kept: list[int] = []
    for k in spec.positions:
        v = fg.cycle_vertex(k)
        if kept and g.has_edge(kept[-1], v):
            continue
        kept.append(v)
    if len(kept) > 1 and g.has_edge(kept[-1], kept[0]):
        kept.pop()
    mask = mask_of(kept)
    if kept and is_prime_independent_set(g, mask) and _forest_residue(fg, mask):
        return mask

    fallback = None
    for cand in prime_independent_sets(g):
        if fallback is None:
            fallback = cand
        if _forest_residue(fg, cand):
            return cand
    if fallback is None:
        raise RuntimeError(f"no prime independent set exists for {spec}")
    return fallback


# ---------------------------------------------------------------------------
# replication

def _normalize_multiplicities(g: Graph, t: Sequence[int] | Mapping[int, int]) -> list[int]:
    if isinstance(t, Mapping):
        missing = [v for v in range(g.n) if v not in t]
        if missing:
            raise ValueError(f"multiplicities missing for vertices {missing}")
        vec = [int(t[v]) for v in range(g.n)]
    else:
        vec = [int(x) for x in t]
        if len(vec) != g.n:
            raise ValueError(
                f"expected {g.n} multiplicities, got {len(vec)}")
    if any(x < 0 for x in vec):
        raise ValueError("multiplicities must be nonnegative")
    return vec


def _replicate_with_origins(g: Graph, vec: list[int]) -> tuple[Graph, tuple[int, ...]]:
    origins: list[int] = []
    first: list[int] = []
    for v in range(g.n):
        first.append(len(origins))
        origins.extend([v] * vec[v])
    edges = []
    for v in range(g.n):
        span_v = range(first[v], first[v] + vec[v])
        for a in span_v:
            for b in span_v:
                if a < b:
                    edges.append((a, b))
        for u in bit_members(g.adj[v]):
            if u < v:
                continue
            for a in span_v:
                for b in range(first[u], first[u] + vec[u]):
                    edges.append((a, b))
    return from_edges(len(origins), edges), tuple(origins)


def replicate(g: Graph, t: Sequence[int] | Mapping[int, int]) -> Graph:
    """Replace each vertex v by a clique of t[v] copies (0 deletes it).

    Copies of adjacent vertices are all adjacent; copies of the same
    vertex form a clique.  Replication preserves perfection.
    """
    vec = _normalize_multiplicities(g, t)
    return _replicate_with_origins(g, vec)[0]


def lovasz_prime_clique(g: Graph) -> int:
    """Prime clique of a perfect graph as a maximum-weight clique.

    Raises ValueError for an empty or imperfect graph; the search itself
    is replication_prime_clique.
    """
    if g.n < 1:
        raise ValueError("needs at least one vertex")
    if not is_perfect(g):
        raise ValueError("input graph is not perfect")
    return replication_prime_clique(g)


def replication_prime_clique(g: Graph) -> int:
    """The maximum-weight clique behind lovasz_prime_clique, for a nonempty perfect g.

    Vertex v weighs the number of maximum independent sets containing it,
    which is its multiplicity in Lovasz's replication argument: the
    replicated graph is perfect, so its clique number equals the number
    of maximum independent sets, and a clique reaching that weight meets
    every one of them.  Vertices of weight zero lie in none and are left
    out, so every member is covered.  Ties go to the smallest mask.  The
    caller vouches for perfection; a clique short of the weight raises
    RuntimeError.
    """
    stables = maximum_independent_sets(g)
    weight = [sum(1 for s in stables if s >> v & 1) for v in range(g.n)]

    def weigh(q: int) -> int:
        return sum(weight[v] for v in iter_bits(q))

    covered = [v for v in range(g.n) if weight[v]]
    cliques = [mask_of(covered[i] for i in iter_bits(q))
               for q in maximal_cliques(induced_subgraph(g, covered))]
    best = max(cliques, key=lambda q: (weigh(q), -q))
    if weigh(best) != len(stables):
        raise RuntimeError(
            f"replication invariant failed: clique weight {weigh(best)} "
            f"for {len(stables)} maximum independent sets")
    return best


def c5_blowup_with_apex(t: int) -> Graph:
    """Uniform 5-cycle blow-up plus an apex over one adjacent pair.

    Every cycle vertex becomes a clique of size t; an extra vertex is
    joined to both cliques replacing one edge's endpoints and is never
    replicated.  At t = 3 the clique number is 7 but the chromatic
    number is 8, so the graph is not quasiperfect.
    """
    if t < 1:
        raise ValueError("multiplicity must be at least 1")
    blown, origins = _replicate_with_origins(cycle_graph(5), [t] * 5)
    apex = blown.n
    edges = list(blown.edges())
    for v, origin in enumerate(origins):
        if origin in (0, 1):
            edges.append((v, apex))
    return from_edges(blown.n + 1, edges)
