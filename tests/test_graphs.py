import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmselect.errors import OverlappingSets, SearchBudgetExceeded, UnknownVertex
from pcmselect import graphs
from pcmselect.graphs import Dag, minimal_mediator_sets, parse_edge_list
from pcmselect.scm import experiment_criteria_dag

from oracles import d_separated_by_paths, format_edge_list, random_dag


@pytest.fixture
def chain():
    return Dag(["X", "S", "Y"], [("X", "S"), ("S", "Y")])


@pytest.fixture
def collider():
    return Dag(["X", "W", "Y"], [("X", "W"), ("Y", "W")])


class TestDagBasics:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Dag(["a", "b"], [("a", "b"), ("b", "a")])

    def test_self_loop_and_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Dag(["a"], [("a", "a")])
        with pytest.raises(ValueError):
            Dag(["a", "b"], [("a", "b"), ("a", "b")])

    def test_unknown_vertex(self):
        g = Dag(["a", "b"], [("a", "b")])
        with pytest.raises(UnknownVertex):
            g.ancestors("missing")

    def test_ancestors_descendants_chain(self, chain):
        assert chain.descendants("X") == {"S", "Y"}
        assert chain.ancestors("Y") == {"X", "S"}

    def test_isolated_vertex(self):
        g = Dag(["a", "b"], [])
        assert g.descendants("a") == frozenset()

    def test_figure_mediators_are_x_descendants_and_y_ancestors(self):
        g = experiment_criteria_dag("B")
        for i in range(1, 6):
            assert f"Sbar{i}" in g.descendants("X")
            assert f"Sbar{i}" in g.ancestors("Y")


class TestDSeparation:
    def test_chain_blocked_by_middle(self, chain):
        assert chain.d_separated({"X"}, {"Y"}, {"S"})
        assert not chain.d_separated({"X"}, {"Y"}, set())

    def test_collider_rules(self, collider):
        assert collider.d_separated({"X"}, {"Y"}, set())
        assert not collider.d_separated({"X"}, {"Y"}, {"W"})

    def test_collider_descendant_opens(self):
        g = Dag(["X", "W", "Y", "D"], [("X", "W"), ("Y", "W"), ("W", "D")])
        assert not g.d_separated({"X"}, {"Y"}, {"D"})

    def test_overlap_rejected(self, chain):
        with pytest.raises(OverlappingSets):
            chain.d_separated({"X"}, {"X"}, set())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_path_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, int(rng.integers(3, 7)))
        names = list(g.vertices)
        rng.shuffle(names)
        a, b = {names[0]}, {names[1]}
        z = set(names[2 : 2 + int(rng.integers(0, len(names) - 1))])
        assert g.d_separated(a, b, z) == d_separated_by_paths(g, a, b, z)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_symmetric_in_endpoint_sets(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, 6)
        names = list(g.vertices)
        rng.shuffle(names)
        a, b, z = {names[0], names[1]}, {names[2]}, {names[3]}
        assert g.d_separated(a, b, z) == g.d_separated(b, a, z)


class TestBackDoor:
    def test_figure_setting_a_z_is_admissible(self):
        g = experiment_criteria_dag("A")
        assert g.satisfies_back_door("X", "Y", {"Z"})

    def test_child_of_x_violates(self):
        g = Dag(["Z", "X", "W", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "W"), ("X", "Y")])
        assert g.satisfies_back_door("X", "Y", {"Z"})
        assert not g.satisfies_back_door("X", "Y", {"Z", "W"})

    def test_figure_setting_b_full_covariate_set(self):
        g = experiment_criteria_dag("B")
        covariates = {"Z"} | {f"Zbar{i}" for i in range(1, 11)}
        assert g.satisfies_back_door("X", "Y", covariates)

    def test_backdoor_implies_dsep_in_trimmed_graph(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g = random_dag(rng, 6)
            names = list(g.vertices)
            rng.shuffle(names)
            x, y = names[0], names[1]
            z = set(names[2:4])
            if g.satisfies_back_door(x, y, z):
                trimmed = g.drop_edges_out_of({x})
                assert d_separated_by_paths(trimmed, {x}, {y}, z)


class TestFrontDoorLike:
    def test_chain_single_mediator(self, chain):
        assert chain.satisfies_front_door_like("X", "Y", {"S"}, set(), set())

    def test_figure_setting_a(self):
        g = experiment_criteria_dag("A")
        assert g.satisfies_front_door_like("X", "Y", {"S"}, {"Z"}, {"Z"})

    def test_figure_setting_b_minimal_pair(self):
        g = experiment_criteria_dag("B")
        assert g.satisfies_front_door_like("X", "Y", {"S", "Sbar1"}, set(), set())
        # S alone leaves the path through Sbar1 unintercepted
        assert not g.satisfies_front_door_like("X", "Y", {"S"}, set(), set())

    def test_direct_edge_defeats_interception(self):
        g = Dag(["X", "S", "Y"], [("X", "S"), ("S", "Y"), ("X", "Y")])
        assert not g.satisfies_front_door_like("X", "Y", {"S"}, set(), set())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_interception_is_monotone(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, 6)
        names = list(g.vertices)
        rng.shuffle(names)
        x, y = names[0], names[1]
        s = set(names[2:4])
        bigger = s | {names[4]}
        if g.intercepts_all_directed_paths(x, y, s):
            assert g.intercepts_all_directed_paths(x, y, bigger)


class TestMinimalMediatorSets:
    def test_chain(self, chain):
        assert minimal_mediator_sets(chain, "X", "Y") == [frozenset({"S"})]

    def test_direct_edge_gives_nothing(self):
        g = Dag(["X", "S", "Y"], [("X", "S"), ("S", "Y"), ("X", "Y")])
        assert minimal_mediator_sets(g, "X", "Y") == []

    def test_figure_setting_b(self):
        g = experiment_criteria_dag("B")
        sets = minimal_mediator_sets(g, "X", "Y")
        assert frozenset({"S", "Sbar1"}) in sets
        assert all(len(s) >= 2 for s in sets)

    def test_figure_setting_a_with_candidates(self):
        g = experiment_criteria_dag("A")
        sets = minimal_mediator_sets(g, "X", "Y", candidate_z=["Z"])
        assert sets[0] == frozenset({"S"})

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(graphs, "SEARCH_BUDGET", 3)
        g = experiment_criteria_dag("B")
        with pytest.raises(SearchBudgetExceeded):
            minimal_mediator_sets(g, "X", "Y", candidate_z=[])


class TestEdgeListFormat:
    def test_round_trip(self):
        g = experiment_criteria_dag("A")
        parsed = parse_edge_list(format_edge_list(g))
        assert set(parsed.vertices) == set(g.vertices)
        assert parsed.edges == g.edges

    def test_comments_and_isolated_vertices(self):
        g = parse_edge_list("# comment\na -> b\n\nlonely\n")
        assert set(g.vertices) == {"a", "b", "lonely"}
        assert g.edges == frozenset({("a", "b")})

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_edge_list("a -> \n")

    @pytest.mark.parametrize("text, message", [
        ("a -> b\nX -> S -> Y\n", "line 2: malformed edge 'X -> S -> Y'"),
        ("a b -> c\n", "line 1: malformed edge 'a b -> c'"),
        ("a -> b c\n", "line 1: malformed edge 'a -> b c'"),
        ("a ->\n", "line 1: malformed edge 'a ->'"),
        ("-> b\n", "line 1: malformed edge '-> b'"),
        ("a\n\na b\n", "line 3: malformed line 'a b'"),
        ("a\tb\n", "line 1: malformed line 'a\\tb'"),
    ])
    def test_each_name_is_one_token(self, text, message):
        # a name with whitespace or an arrow in it is a malformed line, not a vertex
        with pytest.raises(ValueError) as caught:
            parse_edge_list(text)
        assert str(caught.value) == message

    def test_arrows_without_spaces_and_trailing_comments(self):
        g = parse_edge_list("a->b  # first\nb ->c\nd\n")
        assert g.vertices == ("a", "b", "c", "d")
        assert g.edges == frozenset({("a", "b"), ("b", "c")})
