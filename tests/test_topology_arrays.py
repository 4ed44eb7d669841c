"""Tests for repro.topology.arrays (shared CSR adjacency, ASN lookup)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.topology.arrays import adjacency_arrays, asn_positions
from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship


def chain_graph():
    """1 provides for 2 provides for 3; 3 peers with 4; 4 customer of 1."""
    graph = ASGraph()
    graph.add_link(2, 1, Relationship.PROVIDER)
    graph.add_link(3, 2, Relationship.PROVIDER)
    graph.add_link(3, 4, Relationship.PEER)
    graph.add_link(4, 1, Relationship.PROVIDER)
    return graph


class TestAdjacencyArrays:
    def test_rows_hold_sorted_neighbors_with_relationships(self):
        graph = chain_graph()
        graph.add_as(9)
        arrays = adjacency_arrays(graph)
        assert arrays.asns == [1, 2, 3, 4, 9]
        assert arrays.index == {1: 0, 2: 1, 3: 2, 4: 3, 9: 4}
        for i, asn in enumerate(arrays.asns):
            row = range(arrays.off[i], arrays.off[i + 1])
            neighbors = [arrays.asns[arrays.adj[e]] for e in row]
            assert neighbors == sorted(graph.neighbors(asn))
            assert [arrays.rel[e] for e in row] == [
                graph.relationship(asn, b) for b in neighbors
            ]
        assert arrays.off[-1] == len(arrays.adj) == 2 * graph.num_links()

    def test_cached_until_the_graph_mutates(self):
        graph = chain_graph()
        arrays = adjacency_arrays(graph)
        assert adjacency_arrays(graph) is arrays
        graph.add_link(2, 4, Relationship.PEER)
        rebuilt = adjacency_arrays(graph)
        assert rebuilt is not arrays
        assert rebuilt.version == graph.version
        assert len(rebuilt.adj) == len(arrays.adj) + 2
        assert adjacency_arrays(graph.copy()) is not rebuilt

    def test_empty_graph(self):
        arrays = adjacency_arrays(ASGraph())
        assert arrays.asns == [] and arrays.off == [0] and arrays.adj == []


class TestAsnPositions:
    @given(
        st.lists(st.integers(0, 2**32 - 1), unique=True),
        st.lists(st.integers(0, 2**32 - 1)),
    )
    def test_matches_a_dict_lookup(self, members, queries):
        sorted_asns = np.array(sorted(members), dtype=np.int64)
        index = {asn: i for i, asn in enumerate(sorted(members))}
        found = asn_positions(sorted_asns, np.array(queries, dtype=np.int64))
        assert found.tolist() == [index.get(asn, -1) for asn in queries]
