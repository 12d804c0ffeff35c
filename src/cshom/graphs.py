"""Finite graphs with 1-indexed vertices and lexicographically sorted edges.

The homology pipeline assumes simple graphs whose edge list is strictly
sorted; `Graph` itself also tolerates loops and duplicate edges so that
`normalize` can report what it removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A graph on vertices 1..n with an ordered edge tuple."""

    n: int
    edges: tuple[Edge, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph, sorting each endpoint pair and the edge list."""
        es = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {(u, v)} out of range for n={n}")
            es.append((u, v) if u <= v else (v, u))
        return Graph(n, tuple(sorted(es)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_canonical(self) -> bool:
        """True when the edge list is loop-free and strictly increasing."""
        prev = None
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                return False
            if prev is not None and (u, v) <= prev:
                return False
            prev = (u, v)
        return True

    def assert_canonical(self) -> None:
        if not self.is_canonical():
            raise ValueError("graph has loops, duplicate edges, or unsorted edge list")

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> dict[int, int]:
        return {v: len(nb) for v, nb in self.adjacency().items()}

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def relabel(self, mapping: dict[int, int]) -> "Graph":
        """Relabel vertices by a bijection of 1..n."""
        if sorted(mapping) != list(range(1, self.n + 1)) or sorted(
            mapping.values()
        ) != list(range(1, self.n + 1)):
            raise ValueError("relabeling must be a bijection of 1..n")
        return Graph.from_edges(self.n, ((mapping[u], mapping[v]) for u, v in self.edges))


@dataclass(frozen=True)
class NormalizationReport:
    had_loop: bool
    collapsed_multiedges: int


def normalize(g: Graph) -> tuple[Graph, NormalizationReport]:
    """Drop loops, collapse duplicate edges, and sort the edge list."""
    had_loop = False
    seen: set[Edge] = set()
    collapsed = 0
    for u, v in g.edges:
        if u == v:
            had_loop = True
            continue
        e = (u, v) if u < v else (v, u)
        if e in seen:
            collapsed += 1
        else:
            seen.add(e)
    return Graph(g.n, tuple(sorted(seen))), NormalizationReport(had_loop, collapsed)


def connected_components(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """Components of the graph (1..n, edges), vertices sorted within each."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return [sorted(c) for c in groups.values()]


def is_connected(g: Graph) -> bool:
    return len(connected_components(g.n, g.edges)) == 1


def edge_pairs_by_type(g: Graph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split index pairs i<j into (nonconsecutive, consecutive) edge pairs.

    A pair is consecutive when the two edges share an endpoint.  Both lists
    are lexicographic in (i, j); indices are 0-based.
    """
    noncons: list[tuple[int, int]] = []
    cons: list[tuple[int, int]] = []
    for i, j in combinations(range(g.m), 2):
        a, b = g.edges[i], g.edges[j]
        if set(a) & set(b):
            cons.append((i, j))
        else:
            noncons.append((i, j))
    return noncons, cons


def subdivide(g: Graph, e: Edge) -> Graph:
    """Replace edge e=(u,v) by a path u - (n+1) - v."""
    g.assert_canonical()
    e = (min(e), max(e))
    if e not in g.edges:
        raise ValueError(f"{e} is not an edge of the graph")
    w = g.n + 1
    new_edges = [x for x in g.edges if x != e]
    new_edges.append((e[0], w))
    new_edges.append((e[1], w))
    return Graph(g.n + 1, tuple(sorted(new_edges)))


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header format; '#' starts a comment."""
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) < 2:
        raise ValueError("edge list needs an 'n m' header")
    try:
        nums = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"bad edge-list token: {exc}") from None
    n, m = nums[0], nums[1]
    if n < 0 or m < 0 or len(nums) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges after header, got {(len(nums) - 2) // 2}")
    raw = []
    for k in range(m):
        u, v = nums[2 + 2 * k], nums[3 + 2 * k]
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        raw.append((u, v) if u <= v else (v, u))
    # loops and duplicate edges survive until normalize reports them
    return Graph(n, tuple(sorted(raw)))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string (n <= 62 supported)."""
    s = line.strip()
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("graph6 characters out of range")
    if data[0] == 63:
        raise ValueError("graph6 n > 62 not supported")
    n = data[0]
    bits_needed = n * (n - 1) // 2
    expected = (bits_needed + 5) // 6
    if len(data) - 1 != expected:
        raise ValueError(
            f"graph6 length mismatch: n={n} needs {expected} data characters, got {len(data) - 1}"
        )
    bits: list[int] = []
    for b in data[1:]:
        bits.extend((b >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i + 1, j + 1))
            idx += 1
    return Graph(n, tuple(sorted(edges)))


def to_graph6(g: Graph) -> str:
    """Encode a simple graph as graph6 (n <= 62)."""
    g.assert_canonical()
    if g.n > 62:
        raise ValueError("graph6 n > 62 not supported")
    eset = set(g.edges)
    bits: list[int] = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i + 1, j + 1) in eset else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_graph(text: str) -> Graph:
    """Parse a graph from edge-list or graph6 text.

    An edge list starts with a digit and graph6 text never contains one, so
    the first character outside comments decides the format.
    """
    lines = [ln for ln in (l.split("#", 1)[0].strip() for l in text.splitlines()) if ln]
    if lines and lines[0][0].isdigit():
        return parse_edge_list(text)
    if len(lines) != 1:
        raise ValueError("expected exactly one graph6 line")
    return parse_graph6(lines[0])


# ---------------------------------------------------------------------------
# standard constructions


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i, j in combinations(range(1, n + 1), 2)))


def complete_bipartite(part_a: Sequence[int], part_b: Sequence[int]) -> Graph:
    n = max(max(part_a), max(part_b))
    if sorted(list(part_a) + list(part_b)) != list(range(1, n + 1)):
        raise ValueError("parts must partition 1..n")
    return Graph.from_edges(n, ((a, b) for a in part_a for b in part_b))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def petersen_graph() -> Graph:
    """Kneser graph K(5,2): outer C5, inner pentagram, five spokes."""
    edges = [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(i, i + 5) for i in range(1, 6)]
    edges += [(6, 8), (7, 9), (8, 10), (6, 9), (7, 10)]
    return Graph.from_edges(10, edges)


# ---------------------------------------------------------------------------
# Kuratowski subdivisions

K5_MODEL_EDGES: tuple[tuple[int, int], ...] = tuple(combinations(range(5), 2))
K33_MODEL_EDGES: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(3) for j in range(3, 6)
)


@dataclass(frozen=True)
class SubdivisionWitness:
    """An explicit K5 or K3,3 subdivision inside a host graph.

    ``paths[k]`` joins ``branch_vertices[i]`` to ``branch_vertices[j]`` where
    (i, j) is the k-th model edge: all pairs for K5, and (position i, position
    j) with i in 0..2, j in 3..5 for K3,3 (positions 0..2 and 3..5 are the two
    sides).  Paths list their endpoints and are internally disjoint.
    """

    kind: str  # "K5" | "K33"
    branch_vertices: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]

    def model_edges(self) -> tuple[tuple[int, int], ...]:
        return K5_MODEL_EDGES if self.kind == "K5" else K33_MODEL_EDGES

    def subgraph_edges(self) -> list[Edge]:
        out: set[Edge] = set()
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                out.add((a, b) if a < b else (b, a))
        return sorted(out)

    def validate(self, g: Graph) -> None:
        kinds = {"K5": 5, "K33": 6}
        if self.kind not in kinds:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        bv = self.branch_vertices
        if len(bv) != kinds[self.kind] or len(set(bv)) != len(bv):
            raise ValueError("branch vertices must be distinct")
        model = self.model_edges()
        if len(self.paths) != len(model):
            raise ValueError("one path per model edge required")
        eset = set(g.edges)
        interior_seen: set[int] = set()
        for (i, j), p in zip(model, self.paths):
            if len(p) < 2 or p[0] != bv[i] or p[-1] != bv[j]:
                raise ValueError("path endpoints do not match model edge")
            for a, b in zip(p, p[1:]):
                if ((a, b) if a < b else (b, a)) not in eset:
                    raise ValueError(f"path step ({a},{b}) is not an edge")
            interior = p[1:-1]
            if len(set(interior)) != len(interior):
                raise ValueError("path revisits a vertex")
            for v in interior:
                if v in bv or v in interior_seen:
                    raise ValueError("paths are not internally disjoint")
            interior_seen.update(interior)


def _paths_between(
    nbrs: dict[int, list[int]],
    start: int,
    goal: int,
    blocked: set[int],
) -> Iterator[tuple[int, ...]]:
    """Simple paths start->goal avoiding ``blocked`` internally, short first,
    then in depth-first order (``nbrs`` lists neighbours descending).

    dist(v), from one breadth-first pass out of ``goal`` through unblocked
    vertices, bounds below the edges a path still needs from v.  So the
    search ends at once when ``start`` cannot reach ``goal``, begins at
    length dist(start), and drops a prefix of l edges at v once l + dist(v)
    exceeds the target length: such a prefix extends to no path of that
    length, so the paths and their order are unchanged.
    """
    dist = {goal: 0}
    queue = [goal]
    for v in queue:
        for w in nbrs[v]:
            if w not in dist and w not in blocked:
                dist[w] = dist[v] + 1
                queue.append(w)
    max_len = len(nbrs)
    first = min((dist[w] for w in nbrs[start] if w in dist), default=max_len)
    for target_len in range(first + 1, max_len + 1):
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            if v == goal:
                if len(path) - 1 == target_len:
                    yield path
                continue
            for w in nbrs[v]:
                if w in dist and len(path) + dist[w] <= target_len and w not in path:
                    stack.append((w, path + (w,)))


def _complete_paths(
    nbrs: dict[int, list[int]], branch: tuple[int, ...], model: Sequence[Edge]
) -> tuple[tuple[int, ...], ...] | None:
    branch_set = set(branch)
    used: set[int] = set()
    paths: list[tuple[int, ...]] = []

    def bt(idx: int) -> bool:
        if idx == len(model):
            return True
        i, j = model[idx]
        u, v = branch[i], branch[j]
        for path in _paths_between(nbrs, u, v, branch_set | used):
            interior = set(path[1:-1])
            used.update(interior)
            paths.append(path)
            if bt(idx + 1):
                return True
            paths.pop()
            used.difference_update(interior)
        return False

    return tuple(paths) if bt(0) else None


def _search_subdivision(g: Graph) -> SubdivisionWitness | None:
    """Exhaustive search for a K5 or K3,3 subdivision; None when none exists.

    Branch sets are tried in lexicographic order, so the witness found is a
    function of the labelled graph alone.  Exponential in the worst case and
    on every planar input, so only `find_kuratowski_subdivision` calls it,
    after `is_planar` has ruled planar input out.

    Degree cut: a set is skipped unless each branch vertex b has deg_M(b)
    (4 in K5, 3 in K3,3) edges to non-branch vertices or model neighbours,
    the distinct first edges its paths need; for K5 that is degree >= 4.
    A skipped set carries no subdivision, so the witness is unchanged.
    """
    adj = g.adjacency()
    nbrs = {v: sorted(adj[v], reverse=True) for v in adj}
    if g.m >= 10:
        quads = sorted(v for v in adj if len(adj[v]) >= 4)
        for branch in combinations(quads, 5):
            paths = _complete_paths(nbrs, branch, K5_MODEL_EDGES)
            if paths is not None:
                return SubdivisionWitness("K5", branch, paths)
    if g.m >= 9:
        cubs = sorted(v for v in adj if len(adj[v]) >= 3)

        @cache
        def fits(side: tuple[int, ...]) -> bool:
            return all(len(adj[b].difference(side)) >= 3 for b in side)

        for side_a in filter(fits, combinations(cubs, 3)):
            # side_b > side_a at the first vertex: each pair of sides once
            rest = [v for v in cubs if v > side_a[0] and v not in side_a]
            for side_b in filter(fits, combinations(rest, 3)):
                branch = side_a + side_b
                paths = _complete_paths(nbrs, branch, K33_MODEL_EDGES)
                if paths is not None:
                    return SubdivisionWitness("K33", branch, paths)
    return None


def find_kuratowski_subdivision(g: Graph) -> SubdivisionWitness | None:
    """A K5 or K3,3 subdivision inside g, or None when g is planar.

    Planarity is decided first by `is_planar` in polynomial time; only a
    non-planar graph reaches the exhaustive branch-set search, whose witness
    depends on the labelled graph alone.  The search skips branch sets by a
    degree count and path prefixes by a distance bound; both cuts drop only
    what cannot lead to a witness, so the witness is the one the unpruned
    search finds.  A search that comes back empty on a graph the planarity
    test rejected is a defect and raises AssertionError rather than
    returning None, which would read as planar.
    """
    if is_planar(g):
        return None
    witness = _search_subdivision(g)
    if witness is None:
        raise AssertionError(
            f"planarity test rejected a graph with {g.m} edges "
            "but the search found no Kuratowski subdivision"
        )
    return witness


def _biconnected_blocks(n: int, adj: dict[int, set[int]]) -> list[list[Edge]]:
    """Edge sets of the biconnected blocks, by Tarjan's lowpoint pass.

    The depth-first search keeps an explicit stack, so deep graphs such as
    long cycles do not hit the interpreter's recursion limit.
    """
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    clock = 0
    blocks: list[list[Edge]] = []
    edge_stack: list[Edge] = []
    for root in range(1, n + 1):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        stack = [(root, 0, iter(sorted(adj[root])))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if not disc[w]:
                    edge_stack.append((v, w))
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, v, iter(sorted(adj[w]))))
                    break
                if w != parent and disc[w] < disc[v]:  # back edge to an ancestor
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:  # u separates v's subtree: close a block
                    block: list[Edge] = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    blocks.append(block)
    return blocks


def _some_cycle(adj: dict[int, list[int]]) -> list[int]:
    """A cycle of the graph as a vertex list: the first edge outside the
    search tree, closed through the tree."""
    start = min(adj)
    parent = {start: 0}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w == parent[v]:
                continue
            if w in parent:  # non-tree edge: close the cycle through the tree
                path_v = [v]
                while path_v[-1] != start:
                    path_v.append(parent[path_v[-1]])
                on_v = set(path_v)
                path_w = [w]
                while path_w[-1] not in on_v:
                    path_w.append(parent[path_w[-1]])
                top = path_w[-1]
                return path_v[: path_v.index(top) + 1] + path_w[-2::-1]
            parent[w] = v
            stack.append(w)
    raise ValueError("graph has no cycle")


def _path_addition_planar(block: list[Edge]) -> bool:
    """Planarity of one biconnected block by Demoucron, Malgrange and
    Pertuiset's path addition (1964).

    Start from an embedded cycle with its two faces.  Each round splits the
    rest of the block into fragments: an unembedded edge between embedded
    vertices, or a component of the unembedded vertices with the edges
    attaching it.  A fragment fits a face that holds all its attachment
    vertices.  No fitting face means non-planar; otherwise a fragment with
    the fewest fitting faces contributes a path between two of its
    attachments, drawn across its first fitting face.
    """
    edges = sorted((u, v) if u < v else (v, u) for u, v in block)
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if len(edges) > 3 * len(adj) - 6:
        return False
    cycle = _some_cycle(adj)
    faces: list[list[int]] = [cycle, list(cycle)]
    faces_at: dict[int, set[int]] = {v: {0, 1} for v in cycle}
    drawn: set[Edge] = {
        (a, b) if a < b else (b, a) for a, b in zip(cycle, cycle[1:] + cycle[:1])
    }
    while len(drawn) < len(edges):
        best = None
        for attach, comp in _fragments(adj, edges, faces_at, drawn):
            fits = set.intersection(*(faces_at[a] for a in attach))
            if not fits:
                return False
            if best is None or len(fits) < len(best[2]):
                best = (attach, comp, fits)
                if len(fits) == 1:
                    break
        attach, comp, fits = best
        path = _bridge_path(adj, faces_at, comp, min(attach)) if comp else list(attach)
        f = min(fits)
        face = faces[f]
        i, j = face.index(path[0]), face.index(path[-1])
        if i < j:
            arc_ab, arc_ba = face[i : j + 1], face[j:] + face[: i + 1]
        else:
            arc_ab, arc_ba = face[i:] + face[: j + 1], face[j : i + 1]
        inner = path[1:-1]
        faces[f] = arc_ab + inner[::-1]
        faces.append(arc_ba + inner)
        for v in face:
            faces_at[v].discard(f)
        for v in inner:
            faces_at[v] = set()
        for k in (f, len(faces) - 1):
            for v in faces[k]:
                faces_at[v].add(k)
        drawn.update((a, b) if a < b else (b, a) for a, b in zip(path, path[1:]))
    return True


def _fragments(
    adj: dict[int, list[int]],
    edges: list[Edge],
    faces_at: dict[int, set[int]],
    drawn: set[Edge],
) -> Iterator[tuple[Iterable[int], list[int]]]:
    """Fragments of a partly drawn block as (attachments, unembedded vertices).

    A fragment that is a single edge between drawn vertices has no
    unembedded vertices and its endpoints as attachments.
    """
    for e in edges:
        if e not in drawn and e[0] in faces_at and e[1] in faces_at:
            yield e, []
    seen: set[int] = set()
    for s in adj:
        if s in faces_at or s in seen:
            continue
        seen.add(s)
        comp, attach = [s], set()
        for v in comp:
            for w in adj[v]:
                if w in faces_at:
                    attach.add(w)
                elif w not in seen:
                    seen.add(w)
                    comp.append(w)
        yield attach, comp


def _bridge_path(
    adj: dict[int, list[int]], faces_at: dict[int, set[int]], comp: list[int], a: int
) -> list[int]:
    """A path from attachment a through comp to another drawn vertex."""
    inside = set(comp)
    parent = {a: a}
    queue = [a]
    for v in queue:
        for w in adj[v]:
            if w in inside:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
            elif v != a and w != a and w in faces_at:
                path = [w, v]
                while path[-1] != a:
                    path.append(parent[path[-1]])
                return path[::-1]
    raise ValueError("fragment has a single attachment; block is not biconnected")


def is_planar(g: Graph) -> bool:
    """Planarity in polynomial time, by path addition on each block.

    Fewer than 9 edges is planar (K3,3 has 9, K5 has 10) and more than
    3n - 6 is not (Euler).  Otherwise the graph is planar exactly when each
    of its biconnected blocks is; a block with fewer than 9 edges is, and
    each larger block goes to `_path_addition_planar`, O(n^2) per block.
    """
    g.assert_canonical()
    if g.m < 9:
        return True
    if g.m > 3 * g.n - 6:
        return False
    blocks = _biconnected_blocks(g.n, g.adjacency())
    return all(len(b) < 9 or _path_addition_planar(b) for b in blocks)
