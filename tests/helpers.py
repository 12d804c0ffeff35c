"""Test helpers shared by several test modules: an exact determinant, used
only to judge the Smith normal form, and graphs that recur across suites."""

from cshom.graphs import Graph, complete_graph, subdivide


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    r = len(m)
    if any(len(row) != r for row in m):
        raise ValueError("determinant needs a square matrix")
    if r == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(r - 1):
        if a[k][k] == 0:
            for i in range(k + 1, r):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[r - 1][r - 1]


def heawood_graph():
    edges = [(i + 1, (i + 1) % 14 + 1) for i in range(14)]
    edges += [(i + 1, (i + 5) % 14 + 1) for i in range(0, 14, 2)]
    return Graph.from_edges(14, edges)


def subdivided(g, edges=None):
    """g with each of edges (every edge of g when omitted) subdivided once,
    in order."""
    for e in g.edges if edges is None else edges:
        g = subdivide(g, e)
    return g


def k5_six_subdivided():
    return subdivided(
        complete_graph(5), ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4))
    )
