"""Tests for repro.topology.graph.ASGraph."""

import pytest

from repro.errors import TopologyError
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


class TestConstruction:
    def test_add_as_idempotent(self):
        graph = ASGraph()
        graph.add_as(7)
        graph.add_as(7)
        assert len(graph) == 1

    def test_add_link_both_directions(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PROVIDER)
        assert graph.relationship(1, 2) is Relationship.PROVIDER
        assert graph.relationship(2, 1) is Relationship.CUSTOMER

    def test_peer_link_symmetric(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        assert graph.relationship(1, 2) is Relationship.PEER
        assert graph.relationship(2, 1) is Relationship.PEER

    def test_rejects_self_link(self):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.add_link(3, 3, Relationship.PEER)

    def test_rejects_contradictory_relink(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        with pytest.raises(TopologyError):
            graph.add_link(1, 2, Relationship.PROVIDER)

    def test_same_relink_is_noop(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        graph.add_link(1, 2, Relationship.PEER)
        assert graph.num_links() == 1

    def test_remove_link(self):
        graph = chain_graph()
        graph.remove_link(3, 4)
        assert not graph.has_link(3, 4)
        assert not graph.has_link(4, 3)

    def test_remove_missing_link_raises(self):
        graph = chain_graph()
        with pytest.raises(TopologyError):
            graph.remove_link(1, 3)


class TestQueries:
    def test_len_and_contains(self):
        graph = chain_graph()
        assert len(graph) == 4
        assert 3 in graph
        assert 99 not in graph

    def test_num_links(self):
        assert chain_graph().num_links() == 4

    def test_customers_providers_peers(self):
        graph = chain_graph()
        assert graph.customers(1) == [2, 4]
        assert graph.providers(3) == [2]
        assert graph.peers(3) == [4]

    def test_neighbors_unknown_as_raises(self):
        with pytest.raises(TopologyError):
            chain_graph().neighbors(99)

    def test_relationship_unlinked_raises(self):
        with pytest.raises(TopologyError):
            chain_graph().relationship(1, 3)

    def test_degree(self):
        graph = chain_graph()
        assert graph.degree(1) == 2
        assert graph.degree(3) == 2

    def test_tier1_detection(self):
        graph = chain_graph()
        assert graph.tier1_ases() == frozenset({1})

    def test_stub_detection(self):
        graph = chain_graph()
        assert graph.stub_ases() == frozenset({3, 4})

    def test_links_iteration_canonical(self):
        links = list(chain_graph().links())
        assert len(links) == 4
        assert all(a < b for a, b, _ in links)


class TestDerived:
    def test_customer_cone_includes_recursive_customers(self):
        graph = chain_graph()
        assert graph.customer_cone(1) == frozenset({1, 2, 3, 4})
        assert graph.customer_cone(2) == frozenset({2, 3})

    def test_customer_cone_of_stub_is_itself(self):
        assert chain_graph().customer_cone(3) == frozenset({3})

    def test_customer_cone_unknown_raises(self):
        with pytest.raises(TopologyError):
            chain_graph().customer_cone(42)

    def test_hop_distances(self):
        graph = chain_graph()
        distances = graph.hop_distances([1])
        assert distances == {1: 0, 2: 1, 4: 1, 3: 2}

    def test_hop_distances_multi_source(self):
        graph = chain_graph()
        distances = graph.hop_distances([3, 4])
        assert distances[3] == 0 and distances[4] == 0
        assert distances[2] == 1 and distances[1] == 1

    def test_hop_distances_unknown_source_raises(self):
        with pytest.raises(TopologyError):
            chain_graph().hop_distances([99])

    def test_connected_component(self):
        graph = chain_graph()
        graph.add_as(50)  # isolated
        assert 50 not in graph.connected_component(1)


class TestValidation:
    def test_valid_graph_passes(self):
        chain_graph().validate()

    def test_detects_provider_cycle(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PROVIDER)
        graph.add_link(2, 3, Relationship.PROVIDER)
        graph.add_link(3, 1, Relationship.PROVIDER)
        with pytest.raises(TopologyError, match="cycle"):
            graph.validate()

    def test_detects_disconnection(self):
        graph = chain_graph()
        graph.add_link(10, 11, Relationship.PEER)
        with pytest.raises(TopologyError, match="disconnected"):
            graph.validate()

    def test_empty_graph_validates(self):
        ASGraph().validate()


class TestCopy:
    def test_copy_is_independent(self):
        graph = chain_graph()
        clone = graph.copy()
        clone.remove_link(3, 4)
        assert graph.has_link(3, 4)
        assert not clone.has_link(3, 4)

    def test_copy_preserves_relationships(self):
        graph = chain_graph()
        clone = graph.copy()
        for a, b, rel in graph.links():
            assert clone.relationship(a, b) is rel


class TestVersion:
    def test_mutations_move_the_version(self):
        graph = ASGraph()
        assert graph.version == 0
        graph.add_as(1)
        after_as = graph.version
        graph.add_link(1, 2, Relationship.PROVIDER)
        after_link = graph.version
        graph.remove_link(1, 2)
        assert 0 < after_as < after_link < graph.version

    def test_no_ops_keep_the_version(self):
        graph = chain_graph()
        version = graph.version
        graph.add_as(1)
        graph.add_link(1, 2, graph.relationship(1, 2))
        graph.copy().remove_link(3, 4)
        assert graph.version == version

    def test_failed_mutations_keep_the_version(self):
        graph = chain_graph()
        version = graph.version
        with pytest.raises(TopologyError):
            graph.remove_link(1, 3)
        other = next(r for r in Relationship if r is not graph.relationship(1, 2))
        with pytest.raises(TopologyError):
            graph.add_link(1, 2, other)
        assert graph.version == version
