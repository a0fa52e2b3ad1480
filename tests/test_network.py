"""Coauthorship graph, centralities, capital scores, and relation coding.

Betweenness gets a second, independent implementation here: BFS layers
plus explicit enumeration of every shortest path. The production module
uses dependency accumulation instead, so agreement between the two is a
real check rather than the same algorithm twice.

The dict-based harmonic and Brandes passes below are the reference the
integer-indexed production code must match exactly, not approximately:
same visit order, same float summation order, same bits.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecode.codebook import Uncodable
from citecode.models import AuthorName, DocumentMetadata
from citecode.network import (
    CoauthorGraph,
    build_coauthor_graph,
    capital_scores,
    centrality_betweenness,
    centrality_degree,
    centrality_harmonic,
    code_relation,
    percentile_ranks,
    write_edge_list,
)


def meta(doc_id, *keys):
    return DocumentMetadata(
        doc_id=doc_id, authors=[AuthorName(raw=k, key=k) for k in keys]
    )


def graph_of(nodes, edges):
    adjacency = {node: set() for node in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return CoauthorGraph({n: sorted(peers) for n, peers in sorted(adjacency.items())})


def test_clique_per_document():
    graph = build_coauthor_graph([meta("d1", "a", "b", "c")])
    assert graph.edges == [("a", "b"), ("a", "c"), ("b", "c")]


def test_union_over_documents():
    graph = build_coauthor_graph(
        [meta("d1", "a", "b"), meta("d2", "b", "c"), meta("d3", "x")]
    )
    assert graph.nodes == ["a", "b", "c", "x"]
    assert graph.edges == [("a", "b"), ("b", "c")]
    assert graph.adjacency["x"] == []


def test_repeated_author_key_makes_no_self_loop():
    graph = build_coauthor_graph([meta("d1", "a", "a")])
    assert graph.nodes == ["a"]
    assert graph.edges == []


def test_duplicate_edges_collapse():
    graph = build_coauthor_graph([meta("d1", "a", "b"), meta("d2", "a", "b")])
    assert graph.edges == [("a", "b")]


def test_build_is_order_independent():
    docs = [meta("d1", "a", "b"), meta("d2", "b", "c"), meta("d3", "x")]
    baseline = build_coauthor_graph(docs)
    for ordering in permutations(docs):
        assert build_coauthor_graph(list(ordering)).adjacency == baseline.adjacency


@given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=5), max_size=8))
def test_graph_is_the_union_of_document_cliques(author_lists):
    docs = [meta(f"d{i}", *keys) for i, keys in enumerate(author_lists)]
    graph = build_coauthor_graph(docs)
    nodes = {key for keys in author_lists for key in keys}
    edges = {pair for keys in author_lists for pair in combinations(sorted(set(keys)), 2)}
    assert graph.adjacency == graph_of(nodes, edges).adjacency
    assert list(graph.adjacency) == sorted(nodes)
    assert graph.edge_count == len(graph.edges) == len(edges)


PATH = graph_of(["x", "y", "z"], [("x", "y"), ("y", "z")])
TRIANGLE = graph_of(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
STAR4 = graph_of(["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")])


def test_degree_counts_neighbors():
    assert centrality_degree(PATH) == {"x": 1.0, "y": 2.0, "z": 1.0}


def test_harmonic_on_a_path():
    values = centrality_harmonic(PATH)
    assert values["y"] == pytest.approx(2.0)
    assert values["x"] == pytest.approx(1.5)
    assert values["z"] == pytest.approx(1.5)


def test_harmonic_adds_terms_left_to_right():
    # 1 + 1/2 + 1/3 + 1/4 added in visit order; a compensated sum (the
    # sum() of Python 3.12+) rounds it to 2.0833333333333335 instead.
    graph = graph_of("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    assert centrality_harmonic(graph)["a"] == 2.083333333333333


def test_harmonic_ignores_unreachable_nodes():
    graph = graph_of(["a", "b", "i"], [("a", "b")])
    values = centrality_harmonic(graph)
    assert values == {"a": 1.0, "b": 1.0, "i": 0.0}


def test_betweenness_path_middle():
    assert centrality_betweenness(PATH)["y"] == pytest.approx(1.0)
    assert centrality_betweenness(PATH)["x"] == pytest.approx(0.0)


def test_betweenness_triangle_is_zero():
    assert centrality_betweenness(TRIANGLE) == {
        "a": pytest.approx(0.0),
        "b": pytest.approx(0.0),
        "c": pytest.approx(0.0),
    }


def test_betweenness_star_center():
    values = centrality_betweenness(STAR4)
    assert values["c"] == pytest.approx(3.0)
    assert values["l1"] == pytest.approx(0.0)


def _bfs(adjacency, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adjacency[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def oracle_betweenness(adjacency):
    """Enumerate every shortest path for every pair, then count."""
    nodes = sorted(adjacency)
    score = {v: 0.0 for v in nodes}
    for i, s in enumerate(nodes):
        dist = _bfs(adjacency, s)
        for t in nodes[i + 1 :]:
            if t not in dist:
                continue
            paths = []
            stack = [(s,)]
            while stack:
                path = stack.pop()
                last = path[-1]
                if last == t:
                    paths.append(path)
                    continue
                if dist[last] >= dist[t]:
                    continue
                for nb in adjacency[last]:
                    if nb in dist and dist[nb] == dist[last] + 1:
                        stack.append(path + (nb,))
            if not paths:
                continue
            share = 1.0 / len(paths)
            for path in paths:
                for v in path[1:-1]:
                    score[v] += share
    return score


def oracle_harmonic_fraction(adjacency, source):
    dist = _bfs(adjacency, source)
    return sum(
        (Fraction(1, d) for node, d in dist.items() if node != source),
        Fraction(0),
    )


def random_graph(rng):
    n = rng.randint(2, 8)
    nodes = [f"a{i}" for i in range(n)]
    p = rng.choice((0.2, 0.4, 0.6))
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return graph_of(nodes, edges)


def test_betweenness_matches_path_enumeration():
    rng = random.Random(20240601)
    for _ in range(40):
        graph = random_graph(rng)
        fast = centrality_betweenness(graph)
        slow = oracle_betweenness(graph.adjacency)
        for node in graph.nodes:
            assert abs(fast[node] - slow[node]) <= 1e-9, graph.adjacency


def test_harmonic_matches_exact_fractions():
    rng = random.Random(20240602)
    for _ in range(40):
        graph = random_graph(rng)
        values = centrality_harmonic(graph)
        for node in graph.nodes:
            exact = oracle_harmonic_fraction(graph.adjacency, node)
            assert abs(values[node] - float(exact)) <= 1e-12


def reference_harmonic(graph):
    """Dict-keyed BFS per source, summing 1/d in visit order."""
    result = {}
    for source in graph.adjacency:
        distances = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in graph.adjacency[node]:
                if neighbor not in distances:
                    distances[neighbor] = distances[node] + 1
                    queue.append(neighbor)
        total = 0.0
        for other, d in distances.items():
            if other != source:
                total += 1.0 / d
        result[source] = total
    return result


def reference_betweenness(graph):
    """Brandes with fresh V-sized dicts for every source."""
    betweenness = {node: 0.0 for node in graph.adjacency}
    for source in graph.adjacency:
        stack = []
        predecessors = {node: [] for node in graph.adjacency}
        sigma = {node: 0.0 for node in graph.adjacency}
        sigma[source] = 1.0
        distance = {node: -1 for node in graph.adjacency}
        distance[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            stack.append(node)
            for neighbor in graph.adjacency[node]:
                if distance[neighbor] < 0:
                    distance[neighbor] = distance[node] + 1
                    queue.append(neighbor)
                if distance[neighbor] == distance[node] + 1:
                    sigma[neighbor] += sigma[node]
                    predecessors[neighbor].append(node)
        dependency = {node: 0.0 for node in graph.adjacency}
        while stack:
            node = stack.pop()
            for pred in predecessors[node]:
                dependency[pred] += (sigma[pred] / sigma[node]) * (1.0 + dependency[node])
            if node != source:
                betweenness[node] += dependency[node]
    return {node: value / 2.0 for node, value in betweenness.items()}


def clique_union_graph(seed, authors=300):
    """Random 1-4 author cliques inside four disjoint author blocks.

    Every author in a block leads one document, so all of them appear;
    the last 15 authors only ever write alone and stay isolated.
    """
    rng = random.Random(seed)
    pool = [f"author{i:03d},x" for i in range(authors)]
    blocks = [pool[0:150], pool[150:230], pool[230:270], pool[270 : authors - 15]]
    docs = []
    for block in blocks:
        for lead in block:
            peers = rng.sample(block, rng.randint(0, 3))
            docs.append(meta(f"d{len(docs)}", lead, *peers))
    docs.extend(meta(f"solo{i}", key) for i, key in enumerate(pool[authors - 15 :]))
    return build_coauthor_graph(docs)


def _component_count(adjacency):
    seen = set()
    components = 0
    for node in adjacency:
        if node not in seen:
            components += 1
            seen.update(_bfs(adjacency, node))
    return components


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_centralities_bit_identical_to_dict_reference(seed):
    graph = clique_union_graph(seed)
    isolated = [node for node, peers in graph.adjacency.items() if not peers]
    assert len(isolated) >= 15 and len(graph.nodes) == 300
    assert _component_count(graph.adjacency) >= len(isolated) + 4
    harmonic = centrality_harmonic(graph)
    betweenness = centrality_betweenness(graph)
    expected_harmonic = reference_harmonic(graph)
    expected_betweenness = reference_betweenness(graph)
    # Same keys in the same order, same types (an isolate's harmonic is
    # the float 0.0 that sum() starts from), and equal floats.
    assert list(harmonic.items()) == list(expected_harmonic.items())
    assert list(betweenness.items()) == list(expected_betweenness.items())
    assert [type(v) for v in harmonic.values()] == [
        type(v) for v in expected_harmonic.values()
    ]
    assert {type(v) for v in harmonic.values()} == {float}


def test_centralities_empty_graph():
    empty = CoauthorGraph({})
    assert centrality_harmonic(empty) == reference_harmonic(empty) == {}
    assert centrality_betweenness(empty) == reference_betweenness(empty) == {}


@st.composite
def component_graphs(draw):
    """Isolates, paths, cycles and small random parts, labels shuffled.

    Paths and cycles run past 64 nodes, so the harmonic sweep's bit
    masks span several machine words and its levels go deep; shuffled
    labels spread each component's bits across the masks.
    """
    kinds = draw(
        st.lists(st.sampled_from(["isolate", "path", "cycle", "random"]), min_size=1, max_size=5)
    )
    edges = []
    size = 0
    for kind in kinds:
        if kind == "isolate":
            count = 1
        elif kind == "random":
            count = draw(st.integers(2, 10))
            pairs = draw(
                st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)))
            )
            edges += [(size + a, size + b) for a, b in pairs if a != b]
        else:
            count = draw(st.integers(3 if kind == "cycle" else 2, 140))
            edges += [(size + i, size + i + 1) for i in range(count - 1)]
            if kind == "cycle":
                edges.append((size + count - 1, size))
        size += count
    labels = draw(st.permutations(range(size)))
    names = [f"n{label:03d}" for label in labels]
    return graph_of(names, [(names[a], names[b]) for a, b in edges])


def _path_cycle_and_isolate():
    """A 130-node path, a 70-node cycle and an isolate, labels interleaved."""
    path = [f"n{2 * i:03d}" for i in range(130)]
    cycle = [f"n{2 * i + 1:03d}" for i in range(70)]
    edges = list(zip(path, path[1:])) + list(zip(cycle, cycle[1:] + cycle[:1]))
    return graph_of(path + cycle + ["n999"], edges)


@given(graph=component_graphs())
@example(graph=_path_cycle_and_isolate())
@settings(max_examples=60, deadline=None)
def test_harmonic_sweep_bit_identical_to_dict_reference(graph):
    harmonic = centrality_harmonic(graph)
    assert list(harmonic.items()) == list(reference_harmonic(graph).items())
    assert {type(v) for v in harmonic.values()} == {float}


def test_percentiles_zero_variance_sits_midway():
    assert percentile_ranks({"a": 2.0, "b": 2.0, "c": 2.0}) == {
        "a": 0.5,
        "b": 0.5,
        "c": 0.5,
    }


def test_percentiles_split_tied_block():
    ranks = percentile_ranks({"a": 1.0, "b": 1.0, "c": 2.0})
    assert ranks["a"] == pytest.approx(0.5)
    assert ranks["b"] == pytest.approx(0.5)
    assert ranks["c"] == pytest.approx(1.0)


def test_percentiles_distinct_values():
    ranks = percentile_ranks({"a": 3.0, "b": 1.0, "c": 2.0, "d": 9.0})
    assert ranks == {
        "b": pytest.approx(0.25),
        "c": pytest.approx(0.5),
        "a": pytest.approx(0.75),
        "d": pytest.approx(1.0),
    }


def test_percentiles_empty():
    assert percentile_ranks({}) == {}


@given(
    values=st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=2),
        st.integers(min_value=-50, max_value=50),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=150)
def test_percentiles_invariant_under_monotone_rescaling(values):
    floats = {k: float(v) for k, v in values.items()}
    rescaled = {k: 3.0 * v + 7.0 for k, v in floats.items()}
    assert percentile_ranks(floats) == percentile_ranks(rescaled)


@given(
    values=st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=2),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=150)
def test_percentiles_land_in_unit_interval(values):
    ranks = percentile_ranks(values)
    n = len(values)
    for rank in ranks.values():
        assert 0.0 < rank <= 1.0
        assert rank >= 1.0 / (2 * n)


def test_composite_all_tied_graph():
    scores = capital_scores(TRIANGLE)
    for node in TRIANGLE.nodes:
        assert scores[node] == pytest.approx(0.5)


def test_composite_star_center_tops_out():
    scores = capital_scores(STAR4)
    assert scores["c"] == pytest.approx(1.0)


def test_composite_single_author():
    graph = build_coauthor_graph([meta("d1", "solo")])
    assert capital_scores(graph)["solo"] == pytest.approx(0.5)


def test_composite_empty_graph():
    assert capital_scores(CoauthorGraph({})) == {}


# One hub with four spokes plus one isolated author. Percentile ranks
# by hand: hub tops every metric (1.0); spokes rank 2..5 on degree and
# harmonic (mean 3.5/6) and tie the zero block on betweenness (0.5);
# the isolate takes 1/6, 1/6, 0.5.
HUB_DOCS = [
    meta("d1", "hub,h", "s1,a"),
    meta("d2", "hub,h", "s2,b"),
    meta("d3", "hub,h", "s3,c"),
    meta("d4", "hub,h", "s4,d"),
    meta("d5", "iso,x"),
]


@pytest.fixture(scope="module")
def hub_graph():
    return build_coauthor_graph(HUB_DOCS)


@pytest.fixture(scope="module")
def hub_scores(hub_graph):
    return capital_scores(hub_graph)


def test_hub_fixture_composites(hub_graph, hub_scores):
    assert centrality_betweenness(hub_graph)["hub,h"] == pytest.approx(6.0)
    assert hub_scores["hub,h"] == pytest.approx(1.0)
    expected_spoke = (3.5 / 6 + 3.5 / 6 + 0.5) / 3
    for spoke in ("s1,a", "s2,b", "s3,c", "s4,d"):
        assert hub_scores[spoke] == pytest.approx(expected_spoke)
    assert hub_scores["iso,x"] == pytest.approx((1 / 6 + 1 / 6 + 0.5) / 3)


def test_relation_shared_author_wins(hub_graph, hub_scores):
    value, trace = code_relation(["iso,x", "hub,h"], ["hub,h"], hub_graph, hub_scores)
    assert value == "C1"
    assert trace == "C:shared-author:hub,h"


def test_relation_coauthor_edge(hub_graph, hub_scores):
    value, trace = code_relation(["s1,a"], ["hub,h"], hub_graph, hub_scores)
    assert value == "C2"
    assert trace == "C:coauthor-edge:s1,a~hub,h"


def test_relation_capital_gap(hub_graph, hub_scores):
    value, trace = code_relation(["iso,x"], ["hub,h"], hub_graph, hub_scores)
    assert value == "C3"
    gap = 1.0 - (1 / 6 + 1 / 6 + 0.5) / 3
    assert trace == f"C:capital-gap:{gap:.3f}"


def test_relation_parallel_default(hub_graph, hub_scores):
    value, trace = code_relation(["s1,a"], ["s2,b"], hub_graph, hub_scores)
    assert value == "C2"
    assert trace == "C:parallel-default"


def test_relation_unknown_cited_author_takes_midpoint(hub_graph, hub_scores):
    # An author absent from the corpus graph scores the neutral 0.5, so
    # a low-capital citer still opens a gap against them.
    value, trace = code_relation(["iso,x"], ["stranger,s"], hub_graph, hub_scores)
    assert value == "C3"
    gap = 0.5 - (1 / 6 + 1 / 6 + 0.5) / 3
    assert trace == f"C:capital-gap:{gap:.3f}"


def test_relation_missing_authors(hub_graph, hub_scores):
    value, trace = code_relation([], ["hub,h"], hub_graph, hub_scores)
    assert isinstance(value, Uncodable)
    assert value.reason == "missing-authors"
    assert trace == "C:missing"
    value, _ = code_relation(["hub,h"], [], hub_graph, hub_scores)
    assert isinstance(value, Uncodable)


def test_relation_gap_below_delta_defaults(hub_graph, hub_scores):
    # A spoke sits about 0.056 above the neutral midpoint: a real but
    # sub-threshold gap, so the parallel default applies.
    value, trace = code_relation(["stranger,s"], ["s1,a"], hub_graph, hub_scores)
    assert value == "C2"
    assert trace == "C:parallel-default"


def test_relation_respects_custom_delta(hub_graph, hub_scores):
    value, _ = code_relation(
        ["stranger,s"], ["s1,a"], hub_graph, hub_scores, delta=0.05
    )
    assert value == "C3"


def test_edge_list_file(tmp_path):
    path = tmp_path / "edges.tsv"
    write_edge_list(build_coauthor_graph(HUB_DOCS), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "hub,h\ts1,a"
    assert len(lines) == 4
    assert lines == sorted(lines)


def test_edge_list_empty_graph(tmp_path):
    path = tmp_path / "edges.tsv"
    write_edge_list(CoauthorGraph({}), path)
    assert path.read_text(encoding="utf-8") == ""
