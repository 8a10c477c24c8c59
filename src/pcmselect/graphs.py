"""Directed acyclic graphs, d-separation, and adjustment-set criteria.

The graph layer backs two jobs: checking whether a covariate set is a valid
back-door adjustment set and whether a mediator set satisfies the
front-door-like condition (interception plus two back-door conditions), and
searching for inclusion-minimal mediator sets.  Graphs are immutable after
construction and all queries are pure.

d-separation is decided by the linear-time reachability ("Bayes ball")
algorithm.  A deliberately slow path-enumeration oracle lives in the test
suite so the two implementations cross-check each other.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .errors import OverlappingSets, SearchBudgetExceeded, UnknownVertex

__all__ = [
    "Dag",
    "parse_edge_list",
    "minimal_mediator_sets",
]

# Most criterion evaluations that minimal_mediator_sets may make.
SEARCH_BUDGET = 200_000


class Dag:
    """A directed acyclic graph over named vertices.

    Parameters
    ----------
    vertices : iterable of str
        Vertex names (order is preserved and used for deterministic output).
    edges : iterable of (tail, head) pairs
        Directed edges.  Self loops, duplicate edges, and cycles are rejected.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        known = set(self.vertices)
        edge_list = []
        seen = set()
        for tail, head in edges:
            if tail not in known:
                raise UnknownVertex(tail)
            if head not in known:
                raise UnknownVertex(head)
            if tail == head:
                raise ValueError(f"self loop at {tail!r}")
            if (tail, head) in seen:
                raise ValueError(f"duplicate edge {tail!r} -> {head!r}")
            seen.add((tail, head))
            edge_list.append((tail, head))
        self.edges: frozenset[tuple[str, str]] = frozenset(edge_list)
        par: dict[str, list[str]] = {v: [] for v in self.vertices}
        chi: dict[str, list[str]] = {v: [] for v in self.vertices}
        for tail, head in edge_list:
            par[head].append(tail)
            chi[tail].append(head)
        self._parents = {v: tuple(par[v]) for v in self.vertices}
        self._children = {v: tuple(chi[v]) for v in self.vertices}
        self._topological = self._topological_order()

    # -- construction helpers -------------------------------------------------

    def _topological_order(self) -> tuple[str, ...]:
        indeg = {v: len(self._parents[v]) for v in self.vertices}
        queue = [v for v in self.vertices if indeg[v] == 0]
        order: list[str] = []
        while queue:
            v = queue.pop(0)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self.vertices):
            raise ValueError("graph contains a directed cycle")
        return tuple(order)

    # -- basic queries ---------------------------------------------------------

    @property
    def topological_order(self) -> tuple[str, ...]:
        return self._topological

    def parents(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return self._parents[v]

    def children(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return self._children[v]

    def _require(self, v: str) -> None:
        if v not in self._parents:
            raise UnknownVertex(v)

    @staticmethod
    def _closure(start: Iterable[str], step: dict[str, tuple[str, ...]]) -> frozenset[str]:
        """``start`` and every vertex reached from it by repeated ``step`` (depth first)."""
        out: set[str] = set()
        stack = list(start)
        while stack:
            u = stack.pop()
            if u not in out:
                out.add(u)
                stack.extend(step[u])
        return frozenset(out)

    def ancestors(self, v: str) -> frozenset[str]:
        """Strict ancestors of ``v`` (transitive closure over parents)."""
        self._require(v)
        return self._closure(self._parents[v], self._parents)

    def descendants(self, v: str) -> frozenset[str]:
        """Strict descendants of ``v`` (transitive closure over children)."""
        self._require(v)
        return self._closure(self._children[v], self._children)

    def drop_edges_out_of(self, vs: Iterable[str]) -> "Dag":
        """Copy of the graph with every edge whose tail is in ``vs`` removed."""
        vs = set(vs)
        for v in vs:
            self._require(v)
        return Dag(self.vertices, [e for e in sorted(self.edges) if e[0] not in vs])

    # -- d-separation ----------------------------------------------------------

    def d_separated(self, a: Iterable[str], b: Iterable[str], given: Iterable[str]) -> bool:
        """True iff every path between ``a`` and ``b`` is blocked given ``given``.

        Standard semantics: chains and forks are blocked by conditioning on
        the middle vertex; colliders block unless the collider or one of its
        descendants is conditioned on.  Decided by reachability over
        (vertex, direction) states.
        """
        a = frozenset(a)
        b = frozenset(b)
        z = frozenset(given)
        for v in a | b | z:
            self._require(v)
        if a & b or a & z or b & z:
            raise OverlappingSets("d-separation endpoint sets must be disjoint")
        if not a or not b:
            return True
        anc_z = self._closure(z, self._parents)  # z and its ancestors
        # states: (vertex, 'up') entered from a child, (vertex, 'down') entered
        # from a parent; start upward from each source.
        visited: set[tuple[str, str]] = set()
        stack: list[tuple[str, str]] = [(v, "up") for v in a]
        while stack:
            v, direction = stack.pop()
            if (v, direction) in visited:
                continue
            visited.add((v, direction))
            if v in b:
                return False
            if direction == "up":
                if v not in z:
                    for p in self._parents[v]:
                        stack.append((p, "up"))
                    for c in self._children[v]:
                        stack.append((c, "down"))
            else:
                if v not in z:
                    for c in self._children[v]:
                        stack.append((c, "down"))
                if v in anc_z:  # collider at v can be opened
                    for p in self._parents[v]:
                        stack.append((p, "up"))
        return True

    # -- identification criteria ------------------------------------------------

    def satisfies_back_door(self, x, y, z: Iterable[str]) -> bool:
        """Back-door criterion for ``z`` relative to ``(x, y)``.

        ``x`` and ``y`` may be single vertices or sets (the set version
        deletes all edges out of the treatment set).  Conditions: (i) no
        member of ``z`` descends from the treatment set, (ii) ``z``
        d-separates treatments from outcomes once edges out of the
        treatments are removed.
        """
        xs = frozenset([x]) if isinstance(x, str) else frozenset(x)
        ys = frozenset([y]) if isinstance(y, str) else frozenset(y)
        zs = frozenset(z)
        for v in xs | ys | zs:
            self._require(v)
        if xs & ys or zs & (xs | ys):
            raise OverlappingSets("back-door sets must be disjoint")
        desc = set()
        for v in xs:
            desc |= self.descendants(v)
        if zs & desc:
            return False
        return self.drop_edges_out_of(xs).d_separated(xs, ys, zs)

    def satisfies_front_door_like(
        self, x: str, y: str, s: Iterable[str], z1: Iterable[str], z2: Iterable[str]
    ) -> bool:
        """Front-door-like criterion for mediator set ``s`` relative to ``(x, y)``.

        Conditions: (i) every directed path from ``x`` to ``y`` passes
        through ``s``; (ii) ``z1`` satisfies the back-door criterion relative
        to ``(x, s)``; (iii) ``z2 + {x}`` satisfies it relative to ``(s, y)``.
        """
        ss = frozenset(s)
        z1s = frozenset(z1)
        z2s = frozenset(z2)
        for v in {x, y} | ss | z1s | z2s:
            self._require(v)
        if {x, y} & ss or ss & (z1s | z2s) or {x, y} & (z1s | z2s):
            raise OverlappingSets("front-door-like sets must be disjoint")
        if not self.intercepts_all_directed_paths(x, y, ss):
            return False
        if ss and not self.satisfies_back_door(x, ss, z1s):
            return False
        return self.satisfies_back_door(ss, y, z2s | {x})

    def intercepts_all_directed_paths(self, x: str, y: str, s: Iterable[str]) -> bool:
        """True iff no directed path from ``x`` to ``y`` avoids ``s``.

        Equivalent to: after removing the vertices of ``s``, ``y`` is not
        reachable from ``x`` along directed edges.  A direct edge x -> y is
        therefore never interceptable.
        """
        self._require(x)
        self._require(y)
        ss = set(s)
        if x in ss or y in ss:
            raise OverlappingSets("mediator set cannot contain x or y")
        stack = [x]
        seen = {x}
        while stack:
            v = stack.pop()
            for c in self._children[v]:
                if c in ss or c in seen:
                    continue
                if c == y:
                    return False
                seen.add(c)
                stack.append(c)
        return True


def minimal_mediator_sets(
    g: Dag,
    x: str,
    y: str,
    candidate_z: Sequence[str] = (),
) -> list[frozenset[str]]:
    """All inclusion-minimal mediator sets satisfying the front-door-like criterion.

    Candidate mediators are the vertices that are simultaneously descendants
    of ``x`` and ancestors of ``y``.  For each mediator subset the search
    tries conditioning sets drawn from ``candidate_z``: shared ``z1 == z2``
    subsets first (the common case), then independent pairs.  Exhaustive by
    design; intended for small graphs.

    Raises
    ------
    SearchBudgetExceeded
        When the number of criterion evaluations would exceed ``SEARCH_BUDGET``.
    """
    g._require(x)
    g._require(y)
    mediators = sorted(g.descendants(x) & g.ancestors(y))
    z_pool = sorted(set(candidate_z) - {x, y})
    z_subsets = _subsets(z_pool)
    n_pairs = len(z_subsets) + len(z_subsets) ** 2
    if (2 ** len(mediators)) * max(n_pairs, 1) > SEARCH_BUDGET:
        raise SearchBudgetExceeded(
            f"{2 ** len(mediators)} mediator subsets x {n_pairs} conditioning "
            f"pairs exceeds budget {SEARCH_BUDGET}"
        )
    found: list[frozenset[str]] = []
    for size in range(0, len(mediators) + 1):
        for combo in combinations(mediators, size):
            s = frozenset(combo)
            if any(prev <= s for prev in found):
                continue
            if _admits_conditioning(g, x, y, s, z_subsets):
                found.append(s)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _admits_conditioning(g: Dag, x, y, s, z_subsets) -> bool:
    s_and_xy = set(s) | {x, y}
    usable = [zc for zc in z_subsets if not (set(zc) & s_and_xy)]
    for zc in usable:  # shared conditioning set first
        if g.satisfies_front_door_like(x, y, s, zc, zc):
            return True
    for z1 in usable:
        for z2 in usable:
            if z1 == z2:
                continue
            if g.satisfies_front_door_like(x, y, s, z1, z2):
                return True
    return False


def _subsets(pool: Sequence[str]) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for size in range(len(pool) + 1):
        out.extend(combinations(pool, size))
    return out


# -- plain-text edge-list files ------------------------------------------------


def parse_edge_list(text: str) -> Dag:
    """Parse a graph from ``tail -> head`` lines.

    Vertices appear in first-mention order; lines starting with ``#`` and
    blank lines are ignored.  Isolated vertices can be declared by writing
    the bare vertex name on its own line.  Each name is one token without
    whitespace or ``->``; any other line raises :class:`ValueError` naming
    its line number.
    """
    vertices: dict[str, None] = {}  # in first-mention order
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        names = [name.strip() for name in line.split("->")]
        if len(names) > 2 or any(name.split() != [name] for name in names):
            raise ValueError(f"line {lineno}: malformed {'edge' if len(names) > 1 else 'line'}"
                             f" {raw!r}")
        vertices.update(dict.fromkeys(names))
        if len(names) == 2:
            edges.append((names[0], names[1]))
    return Dag(vertices, edges)
