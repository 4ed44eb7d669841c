"""Cluster refinement by catchment intersection (paper §III-B).

A *cluster* is a set of sources that fell in the same catchment in every
announcement configuration deployed so far.  Starting from one cluster
holding every source, each observed catchment α splits any overlapping
cluster κ into κ∩α and κ∖α.  Small clusters are the goal: they localize
spoofed-traffic sources precisely enough for targeted intervention.

:class:`ClusterState` implements the refinement incrementally so
schedulers can interleave "deploy a configuration" and "inspect cluster
sizes" (Figures 4, 5, 8 of the paper all need per-step sizes).
"""

from __future__ import annotations

from collections.abc import Sized
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional

import numpy as np

from ..errors import ClusteringError
from ..topology.arrays import asn_positions
from ..types import ASN, LinkId


class ClusterState:
    """Mutable partition of a fixed universe of sources.

    The partition is one dense cluster label (``0 … k-1``) per universe
    member, members held in ascending ASN order.  A refinement labels
    each member with the catchment containing it (0 for none) and
    relabels by the distinct ``(cluster, catchment)`` pairs, so a split
    of κ against α is exactly κ∩α and κ∖α, and :meth:`copy` is an array
    copy.

    Args:
        universe: the sources to partition.  The paper fixes this to the
            ASes observed under the initial anycast-all configuration
            (§IV-d); sources outside the universe are ignored by
            :meth:`refine`.
    """

    def __init__(self, universe: Iterable[ASN]) -> None:
        members = np.unique(np.fromiter(universe, dtype=np.int64))
        if not len(members):
            raise ClusteringError("cluster universe must be non-empty")
        self._members = members
        self._universe: Optional[FrozenSet[ASN]] = None
        self._labels = np.zeros(len(members), dtype=np.int64)
        self._count = 1

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------

    def refine(self, catchment: Iterable[ASN]) -> int:
        """Split clusters against one catchment; return the number of splits.

        For each cluster κ overlapping the catchment α, replace κ with
        κ∩α and κ∖α (no-op when κ ⊆ α or κ∩α is empty).
        """
        return self._split_off(self._positions(catchment))

    def refine_with_catchments(
        self,
        catchments: Mapping[LinkId, Iterable[ASN]],
        degraded_links: Iterable[LinkId] = (),
    ) -> int:
        """Refine against every catchment of one configuration.

        Links listed in ``degraded_links`` are *skipped*: their
        catchments are known to be partial (measurement loss), and a
        partial catchment would split off sources that merely went
        unmeasured.  Skipping degrades gracefully — clusters stay wider
        than they could be, but never become wrong.

        Disjoint catchments (every routing outcome's) split in one
        relabelling; overlapping ones are applied one at a time.  Either
        way the result is the common refinement, and the return value —
        every split adds one cluster — is the number of splits.
        """
        skip = frozenset(degraded_links)
        values = [
            self._values(catchments[link])
            for link in sorted(catchments)
            if link not in skip
        ]
        if not values:
            return 0
        found = asn_positions(self._members, np.concatenate(values))
        kind = np.repeat(np.arange(1, len(values) + 1), list(map(len, values)))
        inside = found >= 0
        positions, kind = found[inside], kind[inside]
        if not len(positions):
            return 0
        code = np.zeros(len(self._members), dtype=np.int64)
        code[positions] = kind
        if np.count_nonzero(code) < len(positions):
            # A member listed twice (overlapping catchments): apply the
            # sets one at a time.
            return sum(
                self._split_off(positions[kind == k])
                for k in range(1, len(values) + 1)
            )
        return self._split(code, len(values))

    @staticmethod
    def _values(asns: Iterable[ASN]) -> np.ndarray:
        count = len(asns) if isinstance(asns, Sized) else -1
        return np.fromiter(asns, dtype=np.int64, count=count)

    def _positions(self, asns: Iterable[ASN]) -> np.ndarray:
        """Indices of the universe members among ``asns``."""
        found = asn_positions(self._members, self._values(asns))
        return found[found >= 0]

    def _split_off(self, inside: np.ndarray) -> int:
        """Split every cluster against the members at ``inside``."""
        if not len(inside):
            return 0
        code = np.zeros(len(self._members), dtype=np.int64)
        code[inside] = 1
        return self._split(code, 1)

    def _split(self, code: np.ndarray, kinds: int) -> int:
        """Relabel by (cluster, code) pairs; return the clusters added.

        The new label is the pair's rank among the pairs present — what
        ``np.unique(keys, return_inverse=True)`` returns, without a sort.
        """
        keys = self._labels * (kinds + 1) + code
        present = np.zeros(self._count * (kinds + 1), dtype=bool)
        present[keys] = True
        rank = np.cumsum(present) - 1
        self._labels = rank[keys]
        before = self._count
        self._count = int(rank[-1]) + 1
        return self._count - before

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def universe(self) -> FrozenSet[ASN]:
        """The full set of partitioned sources."""
        if self._universe is None:
            self._universe = frozenset(self._members.tolist())
        return self._universe

    def clusters(self) -> List[FrozenSet[ASN]]:
        """Current clusters, largest first (ties broken by smallest member)."""
        order = np.argsort(self._labels, kind="stable")
        sizes = np.bincount(self._labels)
        starts = np.cumsum(sizes) - sizes
        grouped = self._members[order]
        ranked = np.lexsort((grouped[starts], -sizes))
        return [
            frozenset(grouped[starts[k] : starts[k] + sizes[k]].tolist())
            for k in ranked.tolist()
        ]

    def cluster_of(self, asn: ASN) -> FrozenSet[ASN]:
        """The cluster containing ``asn``.

        Raises:
            ClusteringError: if ``asn`` is not in the universe.
        """
        found = self._positions((asn,))
        if not len(found):
            raise ClusteringError(f"AS {asn} not in cluster universe")
        label = self._labels[found[0]]
        return frozenset(self._members[self._labels == label].tolist())

    def num_clusters(self) -> int:
        """Number of clusters in the current partition."""
        return self._count

    def _sizes(self) -> List[int]:
        return np.bincount(self._labels).tolist()

    def sizes(self) -> List[int]:
        """Cluster sizes in descending order."""
        return sorted(self._sizes(), reverse=True)

    def mean_size(self) -> float:
        """Mean cluster size (per cluster): |universe| / #clusters."""
        return len(self._members) / self._count

    def size_percentile(self, percentile: float) -> float:
        """Percentile of cluster sizes (linear interpolation, 0–100)."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self._sizes())
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (percentile / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        if ordered[low] == ordered[high]:
            return float(ordered[low])
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def singleton_fraction(self) -> float:
        """Fraction of clusters containing exactly one source."""
        singles = self._sizes().count(1)
        return singles / self._count

    def copy(self) -> "ClusterState":
        """Independent copy of the current partition."""
        clone = ClusterState.__new__(ClusterState)
        clone._members = self._members
        clone._universe = self._universe
        clone._labels = self._labels.copy()
        clone._count = self._count
        return clone

    # ------------------------------------------------------------------
    # Serialization (checkpointing)
    # ------------------------------------------------------------------

    def as_serializable(self) -> List[List[ASN]]:
        """The partition as plain nested lists (JSON-safe, canonical order).

        Cluster labels are not part of the partition's identity, so a
        round trip through :meth:`from_serializable` preserves exactly
        the observable state (:meth:`clusters` and everything derived).
        """
        return [sorted(cluster) for cluster in self.clusters()]

    @classmethod
    def from_serializable(cls, clusters: Iterable[Iterable[ASN]]) -> "ClusterState":
        """Rebuild a partition dumped by :meth:`as_serializable`.

        Raises:
            ClusteringError: if the clusters overlap or are empty.
        """
        label_of: Dict[ASN, int] = {}
        count = 0
        for members in clusters:
            cluster = set(members)
            if not cluster:
                raise ClusteringError("serialized cluster must be non-empty")
            for asn in cluster:
                if asn in label_of:
                    raise ClusteringError(
                        f"AS {asn} appears in more than one serialized cluster"
                    )
                label_of[asn] = count
            count += 1
        state = cls(label_of)
        state._labels = np.array(
            [label_of[asn] for asn in state._members.tolist()], dtype=np.int64
        )
        state._count = count
        return state


def clusters_from_catchment_history(
    universe: Iterable[ASN],
    history: Iterable[Mapping[LinkId, Iterable[ASN]]],
) -> ClusterState:
    """Build the final partition from a sequence of configuration catchments.

    Convenience wrapper over :class:`ClusterState` used by the figure
    runners when only the end state matters.
    """
    state = ClusterState(universe)
    for catchments in history:
        state.refine_with_catchments(catchments)
    return state
