"""Graph-level queries over concept relations.

All traversal is "as read": a directional edge contributes its own name
forward and its declared inverse name backward; symmetric edges read the
same from both ends.  Every function is a pure read over one store
snapshot, so calls are freely parallel and identical snapshots give
identical output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import KonseptaError, RelationEdge, ValidationError
from .store import StoreState


class NoPathError(KonseptaError, LookupError):
    """No relation path exists between the premise concepts."""


@dataclass(frozen=True)
class Hop:
    """One step of a labeled path: the relation as read, then the node."""

    label: str
    key: str


LabeledPath = tuple[Hop, ...]


@dataclass(frozen=True)
class SemanticNetwork:
    """BFS neighborhood of seed concepts: layered nodes plus their edges."""

    nodes: tuple[tuple[str, int], ...]
    edges: tuple[RelationEdge, ...]

    def to_payload(self) -> dict:
        return {
            "nodes": [{"key": key, "depth": depth} for key, depth in self.nodes],
            "edges": [
                {"source": e.source, "target": e.target, "type": e.type}
                for e in self.edges
            ],
        }


def _path_sort_key(path: LabeledPath):
    return (len(path), tuple(h.label for h in path), tuple(h.key for h in path))


def path_relations(state: StoreState, a: str, b: str, max_len: int = 3) -> list[LabeledPath]:
    """All simple as-read label paths from ``a`` to ``b`` of bounded length.

    Sorted by length, then label sequence, then hop keys.  ``a == b`` gives
    an empty list: paths are simple and at least one hop long.
    """
    if max_len not in (1, 2, 3):
        raise ValidationError([f"max_len must be 1..3, got {max_len}"])
    start = state.require(a).key.canonical
    goal = state.require(b).key.canonical
    found: list[LabeledPath] = []

    def walk(node: str, hops: tuple[Hop, ...], visited: frozenset[str]) -> None:
        if len(hops) == max_len:
            return
        for label, neighbor in state.as_read_neighbors(node):
            if neighbor in visited:
                continue
            extended = hops + (Hop(label, neighbor),)
            if neighbor == goal:
                found.append(extended)
                continue
            walk(neighbor, extended, visited | {neighbor})

    walk(start, (), frozenset((start,)))
    return sorted(found, key=_path_sort_key)


def _layers(state: StoreState, seeds: list[str], max_depth: int, follow) -> dict[str, int]:
    """BFS from ``seeds`` over as-read labels that ``follow`` accepts.

    Maps every node reached within ``max_depth`` hops, seeds included, to
    its minimum depth.
    """
    depths = dict.fromkeys(seeds, 0)
    frontier = deque(depths)
    while frontier:
        node = frontier.popleft()
        depth = depths[node]
        if depth == max_depth:
            continue
        for label, neighbor in state.as_read_neighbors(node):
            if follow(label) and neighbor not in depths:
                depths[neighbor] = depth + 1
                frontier.append(neighbor)
    return depths


def _by_depth(depths: dict[str, int]) -> list[tuple[str, int]]:
    return sorted(depths.items(), key=lambda item: (item[1], item[0]))


def transitive_closure(
    state: StoreState, key: str, type_name: str, max_depth: int
) -> list[tuple[str, int]]:
    """BFS over edges of a single as-read type; nodes at their minimum depth."""
    start = state.require(key).key.canonical
    state.registry.get(type_name)
    if max_depth < 0:
        raise ValidationError([f"max_depth must be >= 0, got {max_depth}"])
    depths = _layers(state, [start], max_depth, lambda label: label == type_name)
    del depths[start]
    return _by_depth(depths)


def semantic_network(
    state: StoreState,
    seeds: list[str],
    depth: int,
    type_filter: set[str] | None = None,
) -> SemanticNetwork:
    """Concept-map data: BFS layering to ``depth`` plus all edges among nodes.

    Edges are emitted once each with an as-read label that passes the filter;
    a directional edge whose forward name is filtered out but whose inverse
    passes is emitted reversed under the inverse name.
    """
    if depth < 0:
        raise ValidationError([f"depth must be >= 0, got {depth}"])
    if type_filter is not None:
        for name in type_filter:
            state.registry.get(name)

    def allowed(label: str) -> bool:
        return type_filter is None or label in type_filter

    layer = _layers(state, [state.require(seed).key.canonical for seed in seeds], depth, allowed)

    edges: set[RelationEdge] = set()
    for edge in state.edges():
        if edge.source not in layer or edge.target not in layer:
            continue
        if allowed(edge.type):
            edges.add(edge)
            continue
        back = state.registry.reading_back(edge.type)
        if back is not None and back != edge.type and allowed(back):
            edges.add(RelationEdge(edge.target, edge.source, back))

    nodes = tuple(_by_depth(layer))
    ordered_edges = tuple(sorted(edges, key=lambda e: (e.source, e.target, e.type)))
    return SemanticNetwork(nodes, ordered_edges)


def to_dot(graph: dict) -> str:
    """Graphviz text for a :meth:`SemanticNetwork.to_payload` dict; deterministic output."""
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph konsepta {"]
    for node in graph["nodes"]:
        lines.append(f"  {quote(node['key'])} [depth={node['depth']}];")
    for edge in graph["edges"]:
        lines.append(f"  {quote(edge['source'])} -> {quote(edge['target'])} [label={quote(edge['type'])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def solve_analogy(
    state: StoreState,
    a1: str,
    b1: str,
    a2: str,
    max_len: int = 2,
    k: int = 10,
) -> list[tuple[str, LabeledPath]]:
    """Proportional analogy: find b2 so that a2 relates to b2 as a1 to b1.

    Every label sequence of a simple a1-to-b1 path (up to ``max_len`` hops)
    is replayed from a2; endpoints reached this way are candidates.  Ranking
    prefers shorter explaining paths, then more distinct supporting label
    sequences, then canonical key order.  The top ``k`` candidates are
    returned with one explanation each.  Raises :class:`NoPathError` when a1
    and b1 are not connected at all - distinct from paths existing but
    leading nowhere from a2, which returns an empty list.
    """
    if max_len not in (1, 2):
        raise ValidationError([f"max_len must be 1 or 2, got {max_len}"])
    if k < 1:
        raise ValidationError([f"k must be >= 1, got {k}"])
    start = state.require(a2).key.canonical
    key_a1 = state.require(a1).key.canonical
    key_b1 = state.require(b1).key.canonical
    premise = path_relations(state, key_a1, key_b1, max_len)
    if not premise:
        raise NoPathError(f"no relation path from {key_a1} to {key_b1} within {max_len} hops")
    sequences = sorted({tuple(h.label for h in path) for path in premise}, key=lambda s: (len(s), s))

    excluded = {key_a1, key_b1, start}
    support: dict[str, set[tuple[str, ...]]] = {}
    explanations: dict[str, list[LabeledPath]] = {}

    def replay(node: str, sequence: tuple[str, ...], pos: int, hops: tuple[Hop, ...], visited: frozenset[str]) -> None:
        if pos == len(sequence):
            endpoint = hops[-1].key
            if endpoint in excluded:
                return
            support.setdefault(endpoint, set()).add(sequence)
            explanations.setdefault(endpoint, []).append(hops)
            return
        wanted = sequence[pos]
        for label, neighbor in state.as_read_neighbors(node):
            if label != wanted or neighbor in visited:
                continue
            replay(neighbor, sequence, pos + 1, hops + (Hop(label, neighbor),), visited | {neighbor})

    for sequence in sequences:
        replay(start, sequence, 0, (), frozenset((start,)))

    def rank(endpoint: str):
        best = min(len(p) for p in explanations[endpoint])
        return (best, -len(support[endpoint]), endpoint)

    ranked = sorted(explanations, key=rank)
    results = []
    for endpoint in ranked[:k]:
        explanation = min(explanations[endpoint], key=_path_sort_key)
        results.append((endpoint, explanation))
    return results
