import itertools

import pytest

from konsepta import (
    NoPathError,
    path_relations,
    semantic_network,
    solve_analogy,
    transitive_closure,
)
from konsepta.core import UnknownConceptError, ValidationError
from konsepta.semantics import Hop, to_dot

import oracles

MUZ = "človek/muž"
ZENA = "človek/žena"
KRAL = "človek/panovník/kráľ"
KRALOVNA = "človek/panovník/kráľovná"
FRUIT = "jedlo/ovocie/hruška"


@pytest.fixture(scope="module")
def adjacency(raw):
    return oracles.as_read_adjacency(raw)


class TestPathRelations:
    def test_diminutive_single_hop(self, snap):
        paths = path_relations(snap, "meno/Miro", "meno/Mirko", 1)
        assert paths == [(Hop("diminutive", "meno/Mirko"),)]

    def test_same_endpoints_empty(self, snap):
        assert path_relations(snap, MUZ, MUZ, 3) == []

    def test_unknown_key(self, snap):
        with pytest.raises(UnknownConceptError):
            path_relations(snap, MUZ, "meno/Nikto", 2)

    def test_max_len_bounds(self, snap):
        with pytest.raises(ValidationError):
            path_relations(snap, MUZ, ZENA, 4)
        with pytest.raises(ValidationError):
            path_relations(snap, MUZ, ZENA, 0)

    def test_sorted_by_length_then_labels(self, snap):
        paths = path_relations(snap, MUZ, ZENA, 2)
        keys = [(len(p), tuple(h.label for h in p)) for p in paths]
        assert keys == sorted(keys)

    def test_matches_dfs_oracle_on_all_pairs(self, snap, adjacency):
        keys = sorted(snap.concepts)
        for a, b in itertools.product(keys[::3], keys[::5]):
            if a == b:
                continue
            expected = {
                path
                for path in oracles.label_paths(adjacency, a, 3).get(b, set())
            }
            got = {tuple((h.label, h.key) for h in p) for p in path_relations(snap, a, b, 3)}
            assert got == expected, (a, b)


class TestTransitiveClosure:
    def test_fruit_ancestor_chain(self, snap):
        closure = transitive_closure(snap, FRUIT, "hypernym", 5)
        assert closure == [("jedlo/ovocie", 1), ("jedlo/strava", 2)]

    def test_depth_zero_empty(self, snap):
        assert transitive_closure(snap, FRUIT, "hypernym", 0) == []

    def test_monotone_in_depth(self, snap):
        for depth in range(3):
            shallow = dict(transitive_closure(snap, FRUIT, "hypernym", depth))
            deeper = dict(transitive_closure(snap, FRUIT, "hypernym", depth + 1))
            assert set(shallow) <= set(deeper)

    def test_inverse_reading_traversal(self, snap):
        # hyponym closure of the school concept walks hypernym edges backwards
        closure = transitive_closure(snap, "veda/škola", "hyponym", 1)
        assert ("veda/škola/vysoká škola", 1) in closure
        assert ("veda/škola/základná škola", 1) in closure

    def test_matches_repeated_neighbor_expansion(self, snap, adjacency):
        for key in sorted(snap.concepts)[::4]:
            for type_name in ("hypernym", "related", "diminutive"):
                expected = {}
                frontier = {key}
                seen = {key}
                for depth in range(1, 4):
                    nxt = set()
                    for node in frontier:
                        for label, other in adjacency[node]:
                            if label == type_name and other not in seen:
                                nxt.add(other)
                    for node in nxt:
                        expected[node] = depth
                        seen.add(node)
                    frontier = nxt
                got = dict(transitive_closure(snap, key, type_name, 3))
                assert got == expected, (key, type_name)


class TestSemanticNetwork:
    def test_bratislava_one_step(self, snap, adjacency):
        network = semantic_network(snap, ["miesto/mesto/Bratislava"], 1)
        nodes = dict(network.nodes)
        assert nodes["miesto/mesto/Bratislava"] == 0
        expected_neighbors = {other for _label, other in adjacency["miesto/mesto/Bratislava"]}
        one_step = {key for key, depth in network.nodes if depth == 1}
        assert one_step == expected_neighbors
        assert "vlastnosť/bratislavský" in one_step
        assert "človek/obyvateľ/Bratislavčan" in one_step

    def test_depth_zero_edges_among_seeds_only(self, snap):
        network = semantic_network(snap, [MUZ, ZENA], 0)
        assert {key for key, _ in network.nodes} == {MUZ, ZENA}
        assert all({e.source, e.target} <= {MUZ, ZENA} for e in network.edges)
        assert {e.type for e in network.edges} == {"antonym", "feminine-form", "spouse"}

    def test_nodes_monotone_in_depth(self, snap):
        for depth in range(3):
            small = {k for k, _ in semantic_network(snap, [MUZ], depth).nodes}
            large = {k for k, _ in semantic_network(snap, [MUZ], depth + 1).nodes}
            assert small <= large

    def test_self_contained(self, snap):
        network = semantic_network(snap, ["miesto/mesto/Bratislava"], 2)
        nodes = {key for key, _ in network.nodes}
        for edge in network.edges:
            assert edge.source in nodes and edge.target in nodes

    def test_depths_are_bfs_distances(self, snap, adjacency):
        network = semantic_network(snap, [MUZ], 3)
        dist = {MUZ: 0}
        frontier = [MUZ]
        for step in range(1, 4):
            nxt = []
            for node in frontier:
                for _label, other in sorted(adjacency[node]):
                    if other not in dist:
                        dist[other] = step
                        nxt.append(other)
            frontier = nxt
        assert dict(network.nodes) == dist

    def test_type_filter_restricts_traversal_and_edges(self, snap):
        network = semantic_network(snap, ["miesto/mesto/Bratislava"], 2, {"demonym"})
        assert {key for key, _ in network.nodes} == {
            "miesto/mesto/Bratislava",
            "človek/obyvateľ/Bratislavčan",
            "človek/obyvateľ/Bratislavčanka",
        }
        assert all(e.type == "demonym" for e in network.edges)

    def test_inverse_filter_emits_reversed_edge(self, snap):
        network = semantic_network(snap, ["zviera/psík"], 1, {"augmentative"})
        assert ("zviera/pes", 1) in network.nodes
        assert any(
            (e.source, e.target, e.type) == ("zviera/psík", "zviera/pes", "augmentative")
            for e in network.edges
        )

    def test_unknown_seed(self, snap):
        with pytest.raises(UnknownConceptError):
            semantic_network(snap, ["meno/Nikto"], 1)

    def test_dot_output_deterministic(self, snap):
        network = semantic_network(snap, [MUZ], 1)
        dot = to_dot(network.to_payload())
        assert dot == to_dot(network.to_payload())
        assert dot.startswith("digraph konsepta {")
        assert '"človek/muž" -> "človek/žena" [label="spouse"];' in dot


class TestAnalogy:
    def test_man_king_woman(self, snap):
        results = solve_analogy(snap, MUZ, KRAL, ZENA)
        assert results[0][0] == KRALOVNA
        labels = [hop.label for hop in results[0][1]]
        assert labels == ["hyponym"]

    def test_reverse_direction(self, snap):
        results = solve_analogy(snap, MUZ, ZENA, KRAL)
        assert results[0][0] == KRALOVNA

    def test_same_concept_premise_is_error(self, snap):
        with pytest.raises(NoPathError):
            solve_analogy(snap, MUZ, MUZ, ZENA)

    def test_disconnected_premise_is_error(self, snap):
        with pytest.raises(NoPathError):
            solve_analogy(snap, "spôsob/blažene", "miesto/mesto/New York", MUZ, 1)

    def test_paths_exist_but_lead_nowhere_returns_empty(self, snap):
        # čítať -related-adjective-> čítajúci replayed from a leaf adjective
        results = solve_analogy(snap, "činnosť/čítať", "vlastnosť/čítajúci", "spôsob/zle", 1)
        assert results == []

    def test_explanations_replay_through_neighbors(self, snap):
        keys = sorted(snap.concepts)
        for a1, b1, a2 in [
            (MUZ, KRAL, ZENA),
            (MUZ, ZENA, KRAL),
            ("meno/Miroslav", "meno/Miro", "meno/Miro"),
            ("miesto/mesto/Bratislava", "vlastnosť/bratislavský", "miesto/krajina/Slovensko"),
        ]:
            for endpoint, explanation in solve_analogy(snap, a1, b1, a2):
                node = a2
                for hop in explanation:
                    assert (hop.label, hop.key) in snap.neighbors(node)
                    node = hop.key
                assert node == endpoint

    def test_matches_enumeration_oracle_on_sample(self, snap, raw):
        keys = sorted(snap.concepts)
        sample = keys[::7]
        seqmaps = oracles.sequence_maps(raw, 2)
        for a1, b1, a2 in itertools.product(sample, sample, sample):
            expected = oracles.analogy_rank(seqmaps, a1, b1, a2, 10)
            if expected is None:
                with pytest.raises(NoPathError):
                    solve_analogy(snap, a1, b1, a2, 2, 10)
            else:
                got = [key for key, _ in solve_analogy(snap, a1, b1, a2, 2, 10)]
                assert got == expected, (a1, b1, a2)

    def test_top_k_limits_results(self, snap):
        args = ("miesto/mesto/Bratislava", "človek/obyvateľ/Bratislavčan", "miesto/krajina/Slovensko")
        all_results = solve_analogy(snap, *args, 2, 10)
        assert [key for key, _ in all_results[:2]] == [
            "človek/obyvateľ/Slovák",
            "človek/obyvateľ/Slovenka",
        ]
        one = solve_analogy(snap, *args, 2, 1)
        assert len(one) == 1
        assert one[0] == all_results[0]
