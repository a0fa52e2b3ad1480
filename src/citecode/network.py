"""Coauthorship graph and the capital-based relation coder (C).

The graph is undirected and unweighted: each document's author list
contributes a clique, and repeated collaborations do not add weight.
Three centralities feed a composite capital score; the relation coder
uses shared authorship, coauthorship edges, then the capital gap.

Adjacency lists are kept sorted so every traversal, and therefore every
floating-point accumulation, is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .codebook import Uncodable
from .models import DocumentMetadata

DEFAULT_DELTA = 0.2
_NEUTRAL_COMPOSITE = 0.5


@dataclass
class CoauthorGraph:
    """Undirected simple graph over normalized author keys."""

    adjacency: dict[str, list[str]]

    @property
    def nodes(self) -> list[str]:
        return list(self.adjacency)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """Each edge once, in order: build_coauthor_graph sorts the adjacency."""
        seen = []
        for node, neighbors in self.adjacency.items():
            for other in neighbors:
                if node < other:
                    seen.append((node, other))
        return seen

    @property
    def edge_count(self) -> int:
        """len(self.edges), without building the list."""
        return sum(map(len, self.adjacency.values())) // 2


def build_coauthor_graph(corpus_metadata: list[DocumentMetadata]) -> CoauthorGraph:
    """Union of per-document author cliques, nodes and edges sorted."""
    # Each author's set gains the whole clique, the author too.
    adjacency: dict[str, set[str]] = {}
    for metadata in corpus_metadata:
        keys = {author.key for author in metadata.authors}
        for key in keys:
            adjacency.setdefault(key, set()).update(keys)
    return CoauthorGraph({key: sorted(peers - {key}) for key, peers in sorted(adjacency.items())})


def centrality_degree(graph: CoauthorGraph) -> dict[str, float]:
    return {node: float(len(peers)) for node, peers in graph.adjacency.items()}


def _int_adjacency(graph: CoauthorGraph) -> tuple[list[str], list[list[int]]]:
    """Node keys in graph order, and each node's peers as indices into them."""
    nodes = list(graph.adjacency)
    index = {node: i for i, node in enumerate(nodes)}
    return nodes, [[index[peer] for peer in peers] for peers in graph.adjacency.values()]


def centrality_harmonic(graph: CoauthorGraph) -> dict[str, float]:
    """Harmonic closeness: sum of 1/d to every other node, 1/inf = 0.

    One breadth-first sweep from every node at once, with one bit per
    source (a multi-source BFS; Then et al. 2014, "The More the
    Merrier", PVLDB 8(4)). Each node holds an int of the sources that
    have reached it and one of those that reached it at the last level.
    A level ORs the neighbours' last-level bits and drops those already
    seen; what is left are the sources at exactly that distance. The
    graph is undirected, so their count is also the number of nodes at
    that distance from this one. A node that gains no bits at a level
    has reached its whole component and leaves the sweep.

    A per-source BFS sums its 1/d terms in visit order, level by level,
    and every term of one level is the same 1/d. So at level d each node
    adds 1/d to its running total once per newly reached source, one
    float addition at a time, left to right. The floats are the ones a
    BFS per source gives, bit for bit, on every Python version (sum()
    of floats is compensated from 3.12 on, so it is not used here).

    Cost: D levels, where D is the largest eccentricity, each ORing a
    V-bit int along every edge of the nodes still in the sweep. That is
    O(D * E * V) bit operations, done a machine word at a time, plus
    the V^2 float additions of the totals. The three int lists hold
    about 3 * V^2 / 8 bytes, and each node keeps one float. Coauthorship
    graphs have small diameters, so the sweep takes a few levels; a long
    path, where D is V - 1, is its worst case in time.
    """
    nodes, adjacency = _int_adjacency(graph)
    seen = [1 << node for node in range(len(nodes))]
    frontier = seen[:]
    totals = [0.0] * len(nodes)
    live = list(range(len(nodes)))
    depth = 0
    while live:
        depth += 1
        term = 1.0 / depth
        reached = [0] * len(nodes)
        still_live = []
        for node in live:
            bits = 0
            for peer in adjacency[node]:
                bits |= frontier[peer]
            bits &= ~seen[node]
            if bits:
                reached[node] = bits
                seen[node] |= bits
                total = totals[node]
                for _ in range(bits.bit_count()):
                    total += term
                totals[node] = total
                still_live.append(node)
        frontier = reached
        live = still_live
    return dict(zip(nodes, totals))


def centrality_betweenness(graph: CoauthorGraph) -> dict[str, float]:
    """Shortest-path betweenness via per-source dependency accumulation.

    Each unordered pair is counted once, so a single bridge node on a
    three-node path scores 1.0. The per-node arrays are allocated once;
    a node's sigma, dependency and predecessors are set when a source's
    BFS first reaches it, and only the distances of the nodes it reached
    are reset afterwards.
    """
    nodes, adjacency = _int_adjacency(graph)
    count = len(nodes)
    betweenness = [0.0] * count
    distance = [-1] * count
    sigma = [0.0] * count
    dependency = [0.0] * count
    predecessors: list[list[int]] = [[] for _ in range(count)]
    for source in range(count):
        distance[source] = 0
        sigma[source] = 1.0
        order = [source]
        for node in order:
            step = distance[node] + 1
            paths = sigma[node]
            for neighbor in adjacency[node]:
                reached = distance[neighbor]
                if reached < 0:
                    distance[neighbor] = step
                    sigma[neighbor] = paths
                    dependency[neighbor] = 0.0
                    predecessors[neighbor] = [node]
                    order.append(neighbor)
                elif reached == step:
                    sigma[neighbor] += paths
                    predecessors[neighbor].append(node)
        # Reverse BFS order without the source, whose dependency is unused.
        for node in order[:0:-1]:
            paths = sigma[node]
            share = 1.0 + dependency[node]
            for pred in predecessors[node]:
                dependency[pred] += (sigma[pred] / paths) * share
            betweenness[node] += dependency[node]
        for node in order:
            distance[node] = -1
    return {key: value / 2.0 for key, value in zip(nodes, betweenness)}


def percentile_ranks(values: dict[str, float]) -> dict[str, float]:
    """Mean-rank percentiles in (0, 1]; a zero-variance metric is 0.5.

    Ranks run 1..n with ties sharing the mean rank of their block, then
    divide by n. When every value is identical the metric carries no
    ordering information, so everyone sits at the midpoint.
    """
    if not values:
        return {}
    distinct = set(values.values())
    if len(distinct) == 1:
        return {key: 0.5 for key in values}
    ordered = sorted(values.items(), key=lambda item: (item[1], item[0]))
    n = len(ordered)
    ranks: dict[str, float] = {}
    i = 0
    while i < n:
        j = i
        while j + 1 < n and ordered[j + 1][1] == ordered[i][1]:
            j += 1
        mean_rank = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[ordered[k][0]] = mean_rank / n
        i = j + 1
    return ranks


def capital_scores(graph: CoauthorGraph) -> dict[str, float]:
    """Composite capital per author: unweighted mean of the three percentile ranks."""
    degree_pct = percentile_ranks(centrality_degree(graph))
    harmonic_pct = percentile_ranks(centrality_harmonic(graph))
    betweenness_pct = percentile_ranks(centrality_betweenness(graph))
    return {
        node: (degree_pct[node] + harmonic_pct[node] + betweenness_pct[node]) / 3.0
        for node in graph.adjacency
    }


def _max_composite(keys: set[str], scores: dict[str, float]) -> float:
    # Authors outside the corpus graph carry no capital information and
    # sit at the neutral midpoint, mirroring the degenerate-graph rule.
    return max(scores.get(key, _NEUTRAL_COMPOSITE) for key in keys)


def code_relation(
    citing_authors: list[str],
    cited_authors: list[str],
    graph: CoauthorGraph,
    scores: dict[str, float],
    delta: float = DEFAULT_DELTA,
) -> tuple[str | Uncodable, str]:
    """Relation between citing and cited author sets.

    Priority: shared author key, then a coauthorship edge between the
    sets, then a capital gap of at least delta, then the parallel
    default (flagged as such in the rule id).
    """
    if not citing_authors or not cited_authors:
        return Uncodable("missing-authors"), "C:missing"
    citing = set(citing_authors)
    cited = set(cited_authors)
    shared = citing & cited
    if shared:
        return "C1", f"C:shared-author:{sorted(shared)[0]}"
    for citing_key in sorted(citing):
        peers = graph.adjacency.get(citing_key, ())
        for cited_key in sorted(cited):
            if cited_key in peers:
                return "C2", f"C:coauthor-edge:{citing_key}~{cited_key}"
    gap = _max_composite(cited, scores) - _max_composite(citing, scores)
    if gap >= delta:
        return "C3", f"C:capital-gap:{gap:.3f}"
    return "C2", "C:parallel-default"


def write_edge_list(graph: CoauthorGraph, path: str | Path) -> None:
    """Write the sorted tab-separated edge list."""
    lines = [f"{a}\t{b}" for a, b in graph.edges]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
