"""Integer-indexed, frontier-driven core for BGP route propagation.

The reference Gauss-Seidel sweep (``tests/sim_oracle.py``) keeps per-AS
state in dictionaries keyed by ASN and re-derives policy answers
(LocalPref, IGP cost, tiebreak salts, export filters) through method
calls on every candidate evaluation of every pass.  That is perfect as
an executable specification and hopeless at CAIDA scale (~75k ASes): a
single fixpoint touches every AS every pass even when only a handful of
routes are still moving.

This module, :class:`~repro.bgp.simulator.RoutingSimulator`'s only
propagation core, compiles the *static* part of a simulation once per
simulator and then propagates each configuration over dense integer
state:

* ASNs are mapped to dense indices; the adjacency becomes one flattened
  CSR-style edge array (``off``/``adj``), shared with the graph's other
  compiled consumers (:func:`~repro.topology.arrays.adjacency_arrays`).
* Every per-edge decision constant — negated LocalPref, IGP cost, the
  salted CRC32 tiebreak, the valley-free export mask — is precomputed
  into parallel arrays, so the inner loop does list indexing instead of
  policy method calls.
* Route state lives in parallel arrays (link index, AS-path length,
  relationship class, LocalPref, path tuple) instead of
  :class:`~repro.bgp.route.Route` objects; ``Route`` objects are
  materialized once, for the final outcome.
* Only *dirty* ASes are re-evaluated: an AS is scheduled exactly when a
  neighbor's route changed since its last evaluation.  Scheduling is
  position-ordered (a heap over visit positions), which makes the
  trajectory — every intermediate route, every per-pass change count,
  the number of passes — **bit-identical** to the reference sweep: a
  re-evaluation whose inputs did not change is a provable no-op, so
  skipping it cannot alter the outcome.

On storage choices: plain Python lists are used deliberately.  The inner
loop performs scalar indexed reads, and CPython reads a boxed int out of
a list faster than it unboxes one out of a NumPy array; NumPy pays off
for whole-array arithmetic, which a Gauss-Seidel sweep with per-candidate
policy filters does not expose.  The project therefore stays
stdlib-only on this hot path (the ``tight Python lists`` branch), and no
optional dependency gate is needed.

The compiled core reproduces the *base* :class:`PolicyModel` import and
export semantics.  Policy subclasses that override only per-AS scalars
(``salt_for``, ``local_pref``, ``igp_cost``, ``loop_prevention_enabled``)
are compiled faithfully — the compiler calls those methods.  Subclasses
that override ``accepts``/``exports`` themselves cannot be compiled;
:func:`uncompilable_overrides` names them and the simulator rejects such
policies.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConvergenceError
from ..topology.arrays import adjacency_arrays
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..topology.relationships import Relationship
from ..types import ASN, ASPath, LinkId
from .announcement import AnnouncementConfig
from .policy import PolicyModel
from .route import Route, stable_tiebreak

_CUSTOMER = Relationship.CUSTOMER
_RELATIONSHIPS = (
    Relationship.CUSTOMER,
    Relationship.PEER,
    Relationship.PROVIDER,
)


def uncompilable_overrides(policy: PolicyModel) -> Tuple[str, ...]:
    """Names of the import/export methods ``policy``'s class overrides.

    The compiler inlines the base ``accepts``/``exports`` semantics, so
    a subclass overriding either cannot be compiled.  Overrides of the
    scalar hooks (``salt_for``, ``local_pref``, ``igp_cost``,
    ``loop_prevention_enabled``) are fine: the compiler calls them per
    AS/edge and bakes in their answers.
    """
    cls = type(policy)
    return tuple(
        name
        for name in ("accepts", "exports")
        if getattr(cls, name) is not getattr(PolicyModel, name)
    )


class CompiledTopology:
    """Per-simulator compiled arrays for the indexed propagation core.

    Built once by :meth:`compile`; :meth:`propagate` then runs any number
    of configurations over it.  The compiled tables are derived purely
    from ``(graph, origin, policy)``, so they can be rebuilt anywhere
    (worker processes compile their own copy).
    """

    __slots__ = (
        "asns",
        "index",
        "n",
        "origin_asn",
        "origin_idx",
        "order",
        "pos",
        "off",
        "adj",
        "e_neg_lp",
        "e_igp",
        "e_tb",
        "e_asn",
        "e_rel",
        "e_exp",
        "loop_prev",
        "t1f",
        "tier1",
        "direct_consts",
        "link_ids",
        "link_index",
        "link_provider_idx",
        "num_edges",
    )

    @classmethod
    def compile(
        cls,
        graph: ASGraph,
        origin: OriginNetwork,
        policy: PolicyModel,
        visit_order: Sequence[ASN],
    ) -> "CompiledTopology":
        """Flatten ``graph`` + ``policy`` into dense arrays.

        Args:
            graph: topology including the attached origin AS.
            origin: the announcing origin network.
            policy: a policy whose import/export logic is compilable
                (see :func:`uncompilable_overrides`).
            visit_order: the simulator's Gauss-Seidel visit order (all
                ASes except the origin), reused verbatim so trajectories
                match the reference sweep's.
        """
        self = cls()
        origin_asn = origin.asn
        arrays = adjacency_arrays(graph)
        asns = arrays.asns
        index = arrays.index
        off = arrays.off
        adj = arrays.adj
        e_rel = arrays.rel
        n = len(asns)

        order = [index[asn] for asn in visit_order]
        pos = [-1] * n
        for position, i in enumerate(order):
            pos[i] = position

        tier1 = policy.tier1_ases
        t1_filtering = policy.tier1_leak_filtering
        loop_prev = bytearray(n)
        t1f = bytearray(n)
        e_neg_lp: List[int] = []
        e_igp: List[int] = []
        e_tb: List[int] = []
        e_asn: List[ASN] = []
        e_exp: List[int] = []
        direct_consts: Dict[int, Tuple[int, int, int, Relationship]] = {}

        for i, asn in enumerate(asns):
            loop_prev[i] = 1 if policy.loop_prevention_enabled(asn) else 0
            t1f[i] = 1 if (t1_filtering and asn in tier1) else 0
            salt = policy.salt_for(asn)
            for e in range(off[i], off[i + 1]):
                neighbor = asns[adj[e]]
                rel = e_rel[e]
                lp = policy.local_pref(asn, rel)
                igp = policy.igp_cost(asn, neighbor)
                tb = stable_tiebreak(asn, neighbor, salt)
                # Export mask: bit r set when the neighbor exports routes
                # learned under Relationship(r) toward this AS.  The
                # second argument is the relationship of this AS as seen
                # from the neighbor — the stored inverse annotation.
                inverse = rel.inverse
                mask = 0
                for learned in _RELATIONSHIPS:
                    if policy.exports(learned, inverse):
                        mask |= 1 << learned
                e_neg_lp.append(-lp)
                e_igp.append(igp)
                e_tb.append(tb)
                e_asn.append(neighbor)
                e_exp.append(mask)
                if neighbor == origin_asn:
                    direct_consts[i] = (-lp, igp, tb, rel)

        link_ids = list(origin.link_ids)
        self.asns = asns
        self.index = index
        self.n = n
        self.origin_asn = origin_asn
        self.origin_idx = index[origin_asn]
        self.order = order
        self.pos = pos
        self.off = off
        self.adj = adj
        self.e_neg_lp = e_neg_lp
        self.e_igp = e_igp
        self.e_tb = e_tb
        self.e_asn = e_asn
        self.e_rel = e_rel
        self.e_exp = e_exp
        self.loop_prev = loop_prev
        self.t1f = t1f
        self.tier1 = tier1
        self.direct_consts = direct_consts
        self.link_ids = link_ids
        self.link_index = {link: k for k, link in enumerate(link_ids)}
        self.link_provider_idx = [
            index[origin.provider_of(link)] for link in link_ids
        ]
        self.num_edges = len(adj)
        return self

    # ------------------------------------------------------------------

    def propagate(
        self,
        config: AnnouncementConfig,
        warm_start: Optional[Mapping[ASN, Route]],
        max_passes: int,
        strict: bool,
        known_ases: FrozenSet[ASN],
    ):
        """Propagate ``config`` to a fixpoint; mirror of the reference loop.

        Returns a :class:`~repro.bgp.simulator.RoutingOutcome` that is
        bit-identical (routes, catchments, passes, decision changes,
        convergence flag) to what the reference simulator produces for
        the same ``(config, warm_start)``.
        """
        from .simulator import RoutingOutcome  # local: avoid import cycle

        asns = self.asns
        n = self.n
        origin_asn = self.origin_asn
        link_index = self.link_index
        link_ids = self.link_ids
        num_links = len(link_ids)

        # -- per-configuration tables ----------------------------------
        opath: List[Optional[ASPath]] = [None] * num_links
        oset: List[Optional[FrozenSet[ASN]]] = [None] * num_links
        olen = [0] * num_links
        ot1: List[Optional[FrozenSet[ASN]]] = [None] * num_links
        tier1 = self.tier1
        for link in config.announced:
            k = link_index[link]
            path = config.as_path_for_link(origin_asn, link)
            opath[k] = path
            olen[k] = len(path)
            oset[k] = frozenset(path)
            ot1[k] = frozenset(a for a in path if a in tier1)
        direct_link = [-1] * n
        for link in config.announced:
            k = link_index[link]
            direct_link[self.link_provider_idx[k]] = k
        noexp: Optional[Dict[int, Tuple[int, FrozenSet[ASN]]]] = None
        if config.no_export:
            noexp = {}
            for link, blocked in config.no_export.items():
                k = link_index[link]
                noexp[k] = (self.link_provider_idx[k], blocked)

        # -- route state ------------------------------------------------
        r_link = [-1] * n
        r_from: List[ASN] = [0] * n
        r_rel: List[Optional[Relationship]] = [None] * n
        r_lp = [0] * n
        r_plen = [0] * n
        r_path: List[Optional[ASPath]] = [None] * n
        # The tail object each stored path was built from; identity lets
        # an unchanged re-selection skip rebuilding/comparing the tuple.
        r_tail: List[Optional[ASPath]] = [None] * n

        if warm_start:
            announced_set = config.announced
            index = self.index
            for asn, route in warm_start.items():
                link = route.link_id
                if link not in announced_set or asn == origin_asn:
                    continue
                i = index.get(asn)
                if i is None:
                    continue
                k = link_index[link]
                fresh = opath[k]
                path = route.as_path
                cut = len(path) - olen[k]
                # Seed-filter contract (shared with the reference
                # simulator): a seeded route must still end in exactly
                # the AS-path this configuration announces through its
                # link, else it is a stale state that can steer the
                # fixpoint away from the cold one.
                if cut < 0 or path[cut:] != fresh:
                    continue
                r_link[i] = k
                r_from[i] = route.learned_from
                r_rel[i] = route.relationship
                r_lp[i] = route.local_pref
                r_plen[i] = len(path)
                r_path[i] = path

        # -- local aliases for the hot loop ----------------------------
        off = self.off
        adj = self.adj
        e_neg_lp = self.e_neg_lp
        e_igp = self.e_igp
        e_tb = self.e_tb
        e_asn = self.e_asn
        e_rel = self.e_rel
        e_exp = self.e_exp
        loop_prev = self.loop_prev
        t1f = self.t1f
        direct_consts = self.direct_consts
        order = self.order
        pos = self.pos
        heappush = heapq.heappush
        heappop = heapq.heappop

        # Pass 1 schedules every AS (the reference sweep does too); later
        # passes only schedule ASes with a changed neighbor.
        heap = list(range(len(order)))  # ascending == already a valid heap
        in_cur = bytearray(n)
        for i in order:
            in_cur[i] = 1
        in_next = bytearray(n)
        nxt: List[int] = []

        passes = 0
        decision_changes = 0
        converged = False
        while passes < max_passes:
            passes += 1
            changed = 0
            while heap:
                p = heappop(heap)
                i = order[p]
                in_cur[i] = 0
                asn = asns[i]
                best_key: Optional[Tuple] = None
                b_link = -1
                b_from: ASN = 0
                b_rel: Optional[Relationship] = None
                b_tail: Optional[ASPath] = None
                b_direct = False

                k = direct_link[i]
                if k >= 0:
                    neg_lp, igp, tb, drel = direct_consts[i]
                    ok = not (loop_prev[i] and asn in oset[k])
                    if ok and t1f[i] and drel is _CUSTOMER:
                        t1s = ot1[k]
                        if t1s and (len(t1s) > 1 or asn not in t1s):
                            ok = False
                    if ok:
                        best_key = (neg_lp, olen[k], igp, tb, origin_asn)
                        b_link = k
                        b_from = origin_asn
                        b_rel = drel
                        b_tail = opath[k]
                        b_direct = True

                for e in range(off[i], off[i + 1]):
                    j = adj[e]
                    lk = r_link[j]
                    if lk < 0:
                        continue
                    if not (e_exp[e] >> r_rel[j]) & 1:
                        continue
                    if noexp is not None:
                        t = noexp.get(lk)
                        if t is not None and j == t[0] and asn in t[1]:
                            continue
                    key = (
                        e_neg_lp[e],
                        r_plen[j] + 1,
                        e_igp[e],
                        e_tb[e],
                        e_asn[e],
                    )
                    # Losing candidates never need the (path-scanning)
                    # import filters: the argmin over accepted candidates
                    # is unchanged by skipping filters on keys that
                    # cannot win.  Keys are unique per neighbor, so the
                    # comparison is strict.
                    if best_key is not None and best_key <= key:
                        continue
                    jpath = r_path[j]
                    if loop_prev[i]:
                        if asn in jpath:
                            continue
                    else:
                        cut = len(jpath) - olen[lk]
                        if cut > 0 and asn in jpath[:cut]:
                            continue
                    rel = e_rel[e]
                    if t1f[i] and rel is _CUSTOMER:
                        leak = False
                        for a in jpath:
                            if a != asn and a in tier1:
                                leak = True
                                break
                        if leak:
                            continue
                    best_key = key
                    b_link = lk
                    b_from = e_asn[e]
                    b_rel = rel
                    b_tail = jpath
                    b_direct = False

                if best_key is None:
                    if r_link[i] < 0:
                        continue
                    r_link[i] = -1
                    r_path[i] = None
                    r_tail[i] = None
                else:
                    b_lp = -best_key[0]
                    same_scalars = (
                        r_link[i] == b_link
                        and r_from[i] == b_from
                        and r_rel[i] is b_rel
                        and r_lp[i] == b_lp
                    )
                    if same_scalars and b_tail is r_tail[i]:
                        continue
                    new_path = b_tail if b_direct else (b_from,) + b_tail
                    if same_scalars and new_path == r_path[i]:
                        r_tail[i] = b_tail
                        continue
                    r_link[i] = b_link
                    r_from[i] = b_from
                    r_rel[i] = b_rel
                    r_lp[i] = b_lp
                    r_plen[i] = len(new_path)
                    r_path[i] = new_path
                    r_tail[i] = b_tail

                changed += 1
                for e in range(off[i], off[i + 1]):
                    j = adj[e]
                    pj = pos[j]
                    if pj < 0:
                        continue  # the origin is never evaluated
                    if pj > p:
                        # The reference sweep visits j later this pass
                        # and would see this change now.
                        if not in_cur[j]:
                            in_cur[j] = 1
                            heappush(heap, pj)
                    elif not in_next[j]:
                        in_next[j] = 1
                        nxt.append(pj)

            decision_changes += changed
            if changed == 0:
                converged = True
                break
            heap = nxt
            heap.sort()
            for pj in heap:
                j = order[pj]
                in_next[j] = 0
                in_cur[j] = 1
            nxt = []

        if not converged and strict:
            raise ConvergenceError(
                f"no fixpoint after {max_passes} passes for {config.describe()}"
            )

        routes: Dict[ASN, Route] = {}
        # Sorted so the catchment dict's order (and every downstream
        # float sum over it) is independent of the string hash seed.
        catchments: Dict[LinkId, set] = {
            link: set() for link in sorted(config.announced)
        }
        sets_by_idx: List[Optional[set]] = [None] * num_links
        for link in config.announced:
            sets_by_idx[link_index[link]] = catchments[link]
        for i in order:
            k = r_link[i]
            if k < 0:
                continue
            asn = asns[i]
            routes[asn] = Route(
                as_path=r_path[i],
                link_id=link_ids[k],
                learned_from=r_from[i],
                relationship=r_rel[i],
                local_pref=r_lp[i],
            )
            sets_by_idx[k].add(asn)
        return RoutingOutcome(
            config=config,
            routes=routes,
            catchments={
                link: frozenset(members)
                for link, members in catchments.items()
            },
            passes=passes,
            decision_changes=decision_changes,
            converged=converged,
            origin_asn=origin_asn,
            known_ases=known_ases,
            warm_started=bool(warm_start),
        )
