"""Incomparability graphs, acyclic-orientation enumeration, and sink-set machinery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .roots import HessenbergFunction

Edge = tuple[int, int]  # (j, i) with j < i


class NotASinkSet(ValueError):
    """The vertex set cannot be the sink set of any acyclic orientation."""


@dataclass(frozen=True)
class IncomparabilityGraph:
    """Graph on [n] with an edge {j, i} exactly when j < i <= h(j)."""

    h: HessenbergFunction
    edges: tuple[Edge, ...]  # sorted by (j, i), bijective with Phi_h^-

    @property
    def n(self) -> int:
        return self.h.n


def build_graph(h: HessenbergFunction) -> IncomparabilityGraph:
    """The incomparability graph of h."""
    edges = tuple(
        (j, i) for j in range(1, h.n + 1) for i in range(j + 1, h(j) + 1)
    )
    return IncomparabilityGraph(h, edges)


@dataclass(frozen=True)
class AcyclicOrientation:
    """An acyclic edge orientation with cached sink set and ascent count.

    rightward[k] is True when edge (j, i) is directed j -> i, i.e. toward the
    larger vertex; asc counts the rightward edges.
    """

    graph: IncomparabilityGraph
    rightward: tuple[bool, ...]
    sinks: tuple[int, ...]
    asc: int


def _sinks_and_asc(graph: IncomparabilityGraph, rightward) -> tuple[tuple[int, ...], int]:
    has_out = [False] * (graph.n + 1)
    for (j, i), right in zip(graph.edges, rightward):
        has_out[j if right else i] = True
    sinks = tuple(v for v in range(1, graph.n + 1) if not has_out[v])
    return sinks, sum(rightward)


def enumerate_acyclic_orientations(graph: IncomparabilityGraph) -> Iterator[AcyclicOrientation]:
    """Every acyclic orientation once, in binary order of the direction vector.

    Edges are assigned in sorted order; a direction is pruned as soon as it
    closes a directed cycle in the partial orientation.
    """
    edges = graph.edges
    out: list[list[int]] = [[] for _ in range(graph.n + 1)]
    bits: list[bool] = []

    def reaches(src: int, dst: int) -> bool:
        if src == dst:
            return True
        stack, seen = [src], {src}
        while stack:
            u = stack.pop()
            for v in out[u]:
                if v == dst:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    def assign(k: int) -> Iterator[AcyclicOrientation]:
        if k == len(edges):
            frozen = tuple(bits)
            sinks, asc = _sinks_and_asc(graph, frozen)
            yield AcyclicOrientation(graph, frozen, sinks, asc)
            return
        j, i = edges[k]
        for right in (False, True):
            u, v = (j, i) if right else (i, j)
            if not reaches(v, u):  # adding u -> v closes no cycle
                out[u].append(v)
                bits.append(right)
                yield from assign(k + 1)
                out[u].pop()
                bits.pop()

    yield from assign(0)


@dataclass(frozen=True)
class SinkSet:
    """An independent vertex set T with its degree (edges joining T to smaller vertices)."""

    vertices: tuple[int, ...]
    degree: int


def _check_sink_set(graph: IncomparabilityGraph, vertices: tuple[int, ...]) -> None:
    h = graph.h
    if not vertices or list(vertices) != sorted(set(vertices)):
        raise NotASinkSet(f"{vertices} is not a sorted set of vertices")
    if not all(1 <= v <= graph.n for v in vertices):
        raise NotASinkSet(f"{vertices} contains vertices outside [1, {graph.n}]")
    for a, b in zip(vertices, vertices[1:]):
        if b <= h(a):
            raise NotASinkSet(f"{vertices} is not independent: {{{a},{b}}} is an edge")


def degree_of(vertices: Iterable[int], graph: IncomparabilityGraph) -> int:
    """deg(T): the number of edges whose larger endpoint lies in T."""
    t = set(vertices)
    return sum(1 for _, i in graph.edges if i in t)


def sink_sets(graph: IncomparabilityGraph, k: int) -> list[SinkSet]:
    """SK_k: all size-k sink sets, via the criterion l_{i+1} > h(l_i), in lex order."""
    if not 1 <= k <= graph.n:
        raise ValueError(f"k must lie in [1, {graph.n}]")
    h, found = graph.h, []
    below = [0] * (graph.n + 1)  # below[i]: edges whose larger endpoint is i
    for _, i in graph.edges:
        below[i] += 1

    def extend(chain: list[int], degree: int) -> None:
        if len(chain) == k:
            found.append(SinkSet(tuple(chain), degree))
            return
        start = h(chain[-1]) + 1 if chain else 1
        for v in range(start, graph.n + 1):
            chain.append(v)
            extend(chain, degree + below[v])
            chain.pop()

    extend([], 0)
    return found


def max_sink_set_size(graph: IncomparabilityGraph) -> int:
    """m(Gamma_h): the maximum size of an independent set."""
    h = graph.h
    best = [0] * (graph.n + 1)
    for v in range(1, graph.n + 1):
        best[v] = 1 + max((best[u] for u in range(1, v) if v > h(u)), default=0)
    return max(best[1:])


def relabeling(n: int, removed: Iterable[int]) -> list[int]:
    """phi_T as a 1-indexed array: phi[j] = j minus the number of removed vertices <= j."""
    t = set(removed)
    phi = [0] * (n + 1)
    shift = 0
    for j in range(1, n + 1):
        if j in t:
            shift += 1
        phi[j] = j - shift
    return phi


def restrict(
    h: Union[HessenbergFunction, IncomparabilityGraph], T: Union[SinkSet, Iterable[int]]
) -> HessenbergFunction:
    """The Hessenberg function h_T of the induced subgraph on [n] minus T:
    h_T(phi(i)) = phi(h(i)) for i outside T. h may be given as its graph, which
    a caller restricting to many T builds once."""
    verts = T.vertices if isinstance(T, SinkSet) else tuple(sorted(int(v) for v in T))
    graph = h if isinstance(h, IncomparabilityGraph) else build_graph(h)
    h = graph.h
    _check_sink_set(graph, verts)
    if len(verts) == h.n:
        raise ValueError("cannot restrict away every vertex")
    phi = relabeling(h.n, verts)
    removed = set(verts)
    h_t = HessenbergFunction(
        tuple(phi[v] for i, v in enumerate(h.values, start=1) if i not in removed)
    )
    induced = tuple(
        sorted((phi[a], phi[b]) for a, b in graph.edges if a not in removed and b not in removed)
    )
    if build_graph(h_t).edges != induced:
        raise RuntimeError(f"graph of h_T does not match the induced subgraph for h={h}, T={verts}")
    return h_t
