"""Reference Gauss-Seidel sweep the indexed propagation core must match.

:class:`ReferenceSimulator` is a :class:`RoutingSimulator` whose
``simulate`` runs the straightforward per-AS dict/object loop the
compiled frontier core replaced: every pass visits every AS in the
simulator's visit order and re-runs the BGP decision process through
policy method calls.  It is the executable specification; the
equivalence tests in ``test_bgp_indexed.py`` and the 75k-AS engine
bench compare the production simulator against it field for field.
"""

from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.bgp.announcement import AnnouncementConfig
from repro.bgp.route import Route, stable_tiebreak
from repro.bgp.simulator import RoutingOutcome, RoutingSimulator
from repro.errors import ConvergenceError
from repro.topology.relationships import Relationship
from repro.types import ASN, ASPath, LinkId


class ReferenceSimulator(RoutingSimulator):
    """The production simulator's inputs, propagated by the reference sweep."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._neighbors: Optional[Dict[ASN, List[Tuple[ASN, Relationship]]]] = None

    def simulate(
        self,
        config: AnnouncementConfig,
        warm_start: Union[RoutingOutcome, Mapping[ASN, Route], None] = None,
    ) -> RoutingOutcome:
        self._validate_config(config)
        if isinstance(warm_start, RoutingOutcome):
            warm_start = warm_start.routes
        return self._simulate_legacy(config, warm_start)

    def _simulate_legacy(
        self,
        config: AnnouncementConfig,
        warm_start: Optional[Mapping[ASN, Route]] = None,
    ) -> RoutingOutcome:
        """Reference Gauss-Seidel sweep (the executable specification)."""
        if self._neighbors is None:
            self._neighbors = {
                asn: sorted(self.graph.neighbors(asn).items())
                for asn in self.graph.ases
            }
        origin_asn = self.origin.asn
        # Iterate the announced set in sorted order everywhere a dict is
        # built from it: LinkIds are strings, so raw set order varies
        # with the interpreter's hash seed, and the insertion order here
        # leaks into every downstream .items() walk and float sum.
        announced_paths: Dict[LinkId, ASPath] = {
            link: config.as_path_for_link(origin_asn, link)
            for link in sorted(config.announced)
        }
        providers_by_asn: Dict[ASN, LinkId] = {
            self.origin.provider_of(link): link
            for link in sorted(config.announced)
        }
        provider_by_link: Dict[LinkId, ASN] = {
            link: provider for provider, link in providers_by_asn.items()
        }

        best: Dict[ASN, Route] = {}
        if warm_start:
            announced = config.announced
            for asn, route in warm_start.items():
                if (
                    route.link_id not in announced
                    or asn == origin_asn
                    or asn not in self._known_ases
                ):
                    continue
                fresh = announced_paths[route.link_id]
                path = route.as_path
                cut = len(path) - len(fresh)
                # Stale-tail filter: drop seeds whose embedded announced
                # path differs from what this configuration announces
                # through the same link (see RoutingSimulator.simulate).
                if cut < 0 or path[cut:] != fresh:
                    continue
                best[asn] = route
        decision_changes = 0
        converged = False
        passes = 0
        while passes < self.max_passes:
            passes += 1
            changed = 0
            for asn in self._visit_order:
                new_route = self._select(
                    asn, best, announced_paths, providers_by_asn,
                    provider_by_link, config,
                )
                old_route = best.get(asn)
                if new_route != old_route:
                    changed += 1
                    if new_route is None:
                        del best[asn]
                    else:
                        best[asn] = new_route
            decision_changes += changed
            if changed == 0:
                converged = True
                break
        if not converged and self.strict:
            raise ConvergenceError(
                f"no fixpoint after {self.max_passes} passes for {config.describe()}"
            )

        catchments: Dict[LinkId, set] = {
            link: set() for link in sorted(config.announced)
        }
        for asn, route in best.items():
            catchments[route.link_id].add(asn)
        return RoutingOutcome(
            config=config,
            routes=best,
            catchments={link: frozenset(ases) for link, ases in catchments.items()},
            passes=passes,
            decision_changes=decision_changes,
            converged=converged,
            origin_asn=origin_asn,
            known_ases=self._known_ases,
            warm_started=bool(warm_start),
        )

    def _select(
        self,
        asn: ASN,
        best: Mapping[ASN, Route],
        announced_paths: Mapping[LinkId, ASPath],
        providers_by_asn: Mapping[ASN, LinkId],
        provider_by_link: Mapping[LinkId, ASN],
        config: AnnouncementConfig,
    ) -> Optional[Route]:
        """Re-run the BGP decision process at ``asn``.

        Candidate filtering (loop prevention, valley-free export, tier-1
        leak filters, no-export action communities at the direct provider)
        happens on the neighbor's stored path to avoid building AS-path
        tuples for losing candidates; the full :class:`Route` is
        materialized only for the winner.
        """
        policy = self.policy
        origin_asn = self.origin.asn
        salt = policy.salt_for(asn)
        best_key = None
        best_choice: Optional[Tuple[ASN, Relationship, Optional[Route], LinkId]] = None

        direct_link = providers_by_asn.get(asn)
        if direct_link is not None:
            origin_path = announced_paths[direct_link]
            relationship = self.graph.relationship(asn, origin_asn)
            if policy.accepts(asn, (), origin_path, relationship):
                local_pref = policy.local_pref(asn, relationship)
                key = (
                    -local_pref,
                    len(origin_path),
                    policy.igp_cost(asn, origin_asn),
                    stable_tiebreak(asn, origin_asn, salt),
                    origin_asn,
                    direct_link,
                )
                best_key = key
                best_choice = (origin_asn, relationship, None, direct_link)

        for neighbor, relationship in self._neighbors[asn]:
            if neighbor == origin_asn:
                continue  # handled above via providers_by_asn
            neighbor_route = best.get(neighbor)
            if neighbor_route is None:
                continue
            if not policy.exports(
                neighbor_route.relationship, self.graph.relationship(neighbor, asn)
            ):
                continue
            # No-export action community: the direct provider honors the
            # origin's request not to announce toward specific neighbors.
            blocked = config.no_export_for_link(neighbor_route.link_id)
            if (
                blocked
                and asn in blocked
                and neighbor == provider_by_link[neighbor_route.link_id]
            ):
                continue
            announced = announced_paths[neighbor_route.link_id]
            stuffed_len = len(announced)
            path = neighbor_route.as_path
            transit = path[:-stuffed_len] if stuffed_len < len(path) else ()
            if not policy.accepts(asn, transit, announced, relationship):
                continue
            local_pref = policy.local_pref(asn, relationship)
            key = (
                -local_pref,
                len(path) + 1,
                policy.igp_cost(asn, neighbor),
                stable_tiebreak(asn, neighbor, salt),
                neighbor,
                neighbor_route.link_id,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_choice = (neighbor, relationship, neighbor_route, neighbor_route.link_id)

        if best_choice is None:
            return None
        learned_from, relationship, via_route, link_id = best_choice
        if via_route is None:
            as_path = announced_paths[link_id]
        else:
            as_path = (learned_from,) + via_route.as_path
        return Route(
            as_path=as_path,
            link_id=link_id,
            learned_from=learned_from,
            relationship=relationship,
            local_pref=policy.local_pref(asn, relationship),
        )
