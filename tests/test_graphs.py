"""Graph container and codec behavior, cross-checked against networkx."""

import itertools
import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpkit.graphs import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    add_vertex,
    bit_members,
    complement,
    complete_graph,
    cycle_graph,
    emit_edge_list,
    emit_graph6,
    empty_graph,
    from_edges,
    induced_subgraph,
    mask_of,
    parse_edge_list,
    parse_graph6,
    path_graph,
    permute,
)
from qpkit.harness import enumerate_graphs

from conftest import edge_pairs, random_graph


class TestGraphBasics:
    def test_k0(self):
        g = empty_graph(0)
        assert g.n == 0 and g.m == 0 and g.vertex_mask == 0

    def test_from_edges_symmetry(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert g.has_edge(1, 0) and g.has_edge(3, 2)
        assert not g.has_edge(0, 2)
        assert g.m == 2

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            from_edges(3, [(0, 3)])

    def test_rejects_too_many_vertices(self):
        with pytest.raises(GraphFormatError):
            empty_graph(65)

    def test_degree(self):
        g = cycle_graph(5)
        assert [g.degree(v) for v in range(5)] == [2] * 5

    def test_standard_builders(self):
        assert complete_graph(4).m == 6
        assert path_graph(4).m == 3
        assert cycle_graph(4).m == 4
        with pytest.raises(GraphFormatError):
            cycle_graph(2)

    def test_mask_helpers(self):
        m = mask_of([0, 2, 5])
        assert m == 0b100101
        assert bit_members(m) == [0, 2, 5]


class TestComplementInduced:
    def test_complement_involution(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(0, 9))
            assert complement(complement(g)) == g

    def test_complement_edge_count(self):
        g = cycle_graph(5)
        assert complement(g).m == 10 - 5

    def test_induced_relabels_in_order(self):
        g = from_edges(5, [(1, 3), (3, 4)])
        h = induced_subgraph(g, [1, 3, 4])
        assert h.n == 3
        assert edge_pairs(h) == [(0, 1), (1, 2)]

    def test_induced_mask_argument(self):
        g = cycle_graph(6)
        assert induced_subgraph(g, 0b000111) == induced_subgraph(g, [0, 1, 2])

    def test_permute_roundtrip(self, rng):
        for _ in range(20):
            n = rng.randrange(1, 10)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            inv = [0] * n
            for i, p in enumerate(perm):
                inv[p] = i
            assert permute(permute(g, perm), inv) == g

    def test_permute_moves_edges(self):
        g = from_edges(3, [(0, 1)])
        h = permute(g, [2, 0, 1])  # vertex v lands on perm[v]
        assert h.has_edge(2, 0) and not h.has_edge(0, 1)

    @pytest.mark.parametrize("perm", [[0.0, 1.0, 2.0, 3.0], [False, True, 2, 3]],
                             ids=["float", "bool"])
    def test_permute_rejects_entries_that_are_not_ints(self, perm):
        # both sort equal to range(4), but only an int can relabel a vertex
        assert sorted(perm) == [0, 1, 2, 3]
        with pytest.raises(GraphFormatError, match="not a permutation"):
            permute(cycle_graph(4), perm)


class TestGraph6:
    @pytest.mark.parametrize("g6", ["?", "@", "A_", "A?", "DQw", "D~{", "Bw"])
    def test_roundtrip_samples(self, g6):
        assert emit_graph6(parse_graph6(g6)) == g6

    def test_known_encodings(self):
        assert emit_graph6(empty_graph(0)) == "?"
        assert emit_graph6(complete_graph(2)) == "A_"
        assert emit_graph6(empty_graph(2)) == "A?"

    def test_against_networkx(self, rng):
        for _ in range(50):
            n = rng.randrange(0, 14)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            ref = nx.to_graph6_bytes(_nx_of(g), header=False).decode().strip()
            assert emit_graph6(g) == ref

    def test_parse_networkx_output(self, rng):
        for _ in range(30):
            n = rng.randrange(1, 12)
            g = random_graph(rng, n)
            data = nx.to_graph6_bytes(_nx_of(g), header=False).decode().strip()
            assert parse_graph6(data) == g

    def test_optional_header(self):
        assert parse_graph6(">>graph6<<DQw") == parse_graph6("DQw")

    def test_long_form_size(self):
        g = empty_graph(63)
        enc = emit_graph6(g)
        assert enc.startswith("~")
        assert parse_graph6(enc) == g

    def test_malformed_rejected(self):
        for bad in ["", "D", "DQwX", "D" + chr(30), "~", "~?", chr(200)]:
            with pytest.raises(GraphFormatError):
                parse_graph6(bad)

    def test_nonzero_padding_rejected(self):
        # C? is E3 on 2 vertices... craft a payload with set padding bits:
        # n=2 has 1 bit of data, 5 padding bits; 'A' + chr(63+1) sets a pad bit
        with pytest.raises(GraphFormatError):
            parse_graph6("A" + chr(63 + 1))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12), st.data())
    def test_roundtrip_property(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                           if pairs else st.just([]))
        g = from_edges(n, chosen)
        assert parse_graph6(emit_graph6(g)) == g


class TestUnvalidatedConstructions:
    """complement, induced_subgraph, permute, add_vertex and parse_graph6
    skip Graph validation."""

    def test_outputs_equal_validated_graphs(self, rng):
        for _ in range(60):
            n = rng.randrange(0, 12)
            g = random_graph(rng, n, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            outs = [complement(g), permute(g, perm),
                    induced_subgraph(g, rng.getrandbits(n) if n else 0)]
            for h in outs:
                assert type(h) is Graph
                validated = Graph(h.n, h.adj)  # raises if h were malformed
                assert h == validated and hash(h) == hash(validated)

    def test_parse_graph6_equals_validated_graph(self):
        for n in range(8):
            for g in enumerate_graphs(n):
                h = parse_graph6(emit_graph6(g))
                assert type(h) is Graph
                validated = Graph(h.n, h.adj)
                assert h == g == validated and hash(h) == hash(validated)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.binary(max_size=40),
        st.lists(st.integers(63, 126), max_size=40).map(bytes),
        # a size byte and a payload of exactly the length it needs
        st.integers(0, 12).flatmap(lambda n: st.lists(
            st.integers(63, 126), min_size=(n * (n - 1) // 2 + 5) // 6,
            max_size=(n * (n - 1) // 2 + 5) // 6).map(lambda b: bytes([n + 63, *b])))))
    def test_parse_graph6_fuzz(self, data):
        # every input is either rejected or decodes to a valid graph
        try:
            h = parse_graph6(data)
        except GraphFormatError:
            return
        assert h == Graph(h.n, h.adj)

    def test_pickle_roundtrip(self):
        # the fork pool pickles graphs; a slotted Graph has no __dict__,
        # whether _trusted or validation built it
        graphs = [parse_graph6("FFzvO"), complement(cycle_graph(7)), empty_graph(0),
                  from_edges(4, [(0, 1), (2, 3)]), Graph(3, (0b110, 0b1, 0b1))]
        for g in graphs:
            assert not hasattr(g, "__dict__")
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                h = pickle.loads(pickle.dumps(g, protocol))
                assert type(h) is Graph and h == g and hash(h) == hash(g)

    def test_add_vertex_matches_from_edges(self, rng):
        for _ in range(60):
            n = rng.randrange(0, 12)
            g = random_graph(rng, n, rng.random())
            nbrs = rng.getrandbits(n) if n else 0
            h = add_vertex(g, nbrs)
            assert type(h) is Graph
            want = from_edges(n + 1, [*g.edges(), *((u, n) for u in bit_members(nbrs))])
            assert h == want and hash(h) == hash(want)

    def test_add_vertex_rejects_outside_mask(self):
        with pytest.raises(GraphFormatError):
            add_vertex(path_graph(3), 0b1000)
        with pytest.raises(GraphFormatError):
            add_vertex(empty_graph(MAX_VERTICES), 0)

    def test_public_constructors_still_validate(self):
        with pytest.raises(GraphFormatError):
            Graph(2, (0b10, 0))  # asymmetric
        with pytest.raises(GraphFormatError):
            from_edges(2, [(0, 2)])
        with pytest.raises(GraphFormatError):
            parse_edge_list("2 1\n0 0\n")


class TestEdgeList:
    def test_roundtrip(self):
        g = from_edges(4, [(0, 2), (1, 3)])
        assert parse_edge_list(emit_edge_list(g)) == g

    def test_parse(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path_graph(3)

    def test_malformed(self):
        for bad in ["", "3", "3 1\n", "3 1\n0 1\n1 2\n", "x y\n", "2 1\n0 2\n",
                    "3 2\n0 1\n0 1\n", "3 2\n0 1\n1 0\n"]:
            with pytest.raises(GraphFormatError):
                parse_edge_list(bad)


def _nx_of(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_pairs(g))
    return h
