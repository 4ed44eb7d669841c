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
* Route state lives in parallel arrays (link index, next hop,
  relationship class, LocalPref, path tuple) instead of
  :class:`~repro.bgp.route.Route` objects.  The final arrays *are* the
  outcome (:class:`RouteColumns`): consumers read them per AS, a warm
  start seeds from them directly, and ``Route`` objects are built only
  when someone asks for :attr:`RoutingOutcome.routes
  <repro.bgp.simulator.RoutingOutcome.routes>` or one AS's
  :meth:`~repro.bgp.simulator.RoutingOutcome.route`.
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
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
        warm_start: Union["RouteColumns", Mapping[ASN, Route], None],
        max_passes: int,
        strict: bool,
        known_ases: FrozenSet[ASN],
    ):
        """Propagate ``config`` to a fixpoint; mirror of the reference loop.

        ``warm_start`` is a prior fixpoint's routes: its
        :class:`RouteColumns` (read directly when compiled here) or a
        mapping of :class:`Route` objects.  Both seed the same state.

        Returns a :class:`~repro.bgp.simulator.RoutingOutcome` over
        :class:`RouteColumns` that is bit-identical (routes, catchments,
        passes, decision changes, convergence flag) to what the reference
        simulator produces for the same ``(config, warm_start)``.
        """
        from .simulator import RoutingOutcome  # local: avoid import cycle

        asns = self.asns
        n = self.n
        origin_asn = self.origin_asn
        link_index = self.link_index
        num_links = len(self.link_ids)

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

        if isinstance(warm_start, RouteColumns) and (
            warm_start.topology is not self
        ):
            warm_start = warm_start.routes()  # another index: seed by ASN
        if isinstance(warm_start, RouteColumns):
            # Same dense index and link numbering: seed column to column,
            # under the seed-filter contract spelled out below.
            s_link = warm_start.link
            s_path = warm_start.path
            s_from = warm_start.learned_from
            s_rel = warm_start.relationship
            s_lp = warm_start.local_pref
            for i in warm_start.rows():
                k = s_link[i]
                fresh = opath[k]
                if fresh is None:
                    continue  # link not announced by this configuration
                path = s_path[i]
                cut = len(path) - olen[k]
                if cut < 0 or path[cut:] != fresh:
                    continue
                r_link[i] = k
                r_from[i] = s_from[i]
                r_rel[i] = s_rel[i]
                r_lp[i] = s_lp[i]
                r_plen[i] = len(path)
                r_path[i] = path
        elif warm_start:
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

        # Sorted so the catchment dict's order (and every downstream
        # float sum over it) is independent of the string hash seed.
        catchments: Dict[LinkId, set] = {
            link: set() for link in sorted(config.announced)
        }
        sets_by_idx: List[Optional[set]] = [None] * num_links
        for link in config.announced:
            sets_by_idx[link_index[link]] = catchments[link]
        count = 0
        for i in order:
            k = r_link[i]
            if k < 0:
                continue
            sets_by_idx[k].add(asns[i])
            count += 1
        return RoutingOutcome(
            config=config,
            routes=None,
            columns=RouteColumns(
                self, r_link, r_from, r_rel, r_lp, r_path, count
            ),
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


class RouteColumns:
    """One fixpoint's best routes, as per-AS columns over a compiled index.

    Entry ``i`` of every column belongs to AS ``topology.asns[i]``.  An AS
    holds a route iff ``link[i] >= 0``; the other columns of an AS without
    one keep leftovers of routes it lost and are never read.  The columns
    are the propagation state :meth:`CompiledTopology.propagate` ended
    with, and nothing modifies them afterwards.

    Attributes:
        topology: the compiled topology whose dense index the columns use.
        index: ``topology.index`` (ASN -> entry).
        link: index into ``topology.link_ids`` of the origin link the
            route descends from, or -1.
        learned_from: the route's next hop (an ASN).
        relationship: relationship class the route was learned under.
        local_pref: LocalPref assigned at import.
        path: AS-path as received.
        count: number of ASes holding a route.
    """

    __slots__ = (
        "topology",
        "index",
        "link",
        "learned_from",
        "relationship",
        "local_pref",
        "path",
        "count",
        "_covered",
    )

    def __init__(
        self,
        topology: CompiledTopology,
        link: List[int],
        learned_from: List[ASN],
        relationship: List[Optional[Relationship]],
        local_pref: List[int],
        path: List[Optional[ASPath]],
        count: int,
    ) -> None:
        self.topology = topology
        self.index = topology.index
        self.link = link
        self.learned_from = learned_from
        self.relationship = relationship
        self.local_pref = local_pref
        self.path = path
        self.count = count
        self._covered: Optional[FrozenSet[ASN]] = None

    def __len__(self) -> int:
        return self.count

    # The per-AS accessors inline :meth:`row`: the traceroute and
    # forwarding-path walks call them once per hop.

    def row(self, asn: ASN) -> int:
        """Index of ``asn`` when it holds a route, else -1."""
        i = self.index.get(asn, -1)
        return i if i >= 0 and self.link[i] >= 0 else -1

    def rows(self) -> List[int]:
        """Indices of the ASes holding a route, in visit order."""
        link = self.link
        return [i for i in self.topology.order if link[i] >= 0]

    def link_of(self, asn: ASN) -> Optional[LinkId]:
        i = self.index.get(asn, -1)
        k = self.link[i] if i >= 0 else -1
        return self.topology.link_ids[k] if k >= 0 else None

    def next_hop(self, asn: ASN) -> Optional[ASN]:
        i = self.index.get(asn, -1)
        return self.learned_from[i] if i >= 0 and self.link[i] >= 0 else None

    def as_path(self, asn: ASN) -> Optional[ASPath]:
        i = self.index.get(asn, -1)
        return self.path[i] if i >= 0 and self.link[i] >= 0 else None

    def route(self, i: int) -> Route:
        """The :class:`Route` object of row ``i`` (which holds a route)."""
        return Route(
            as_path=self.path[i],
            link_id=self.topology.link_ids[self.link[i]],
            learned_from=self.learned_from[i],
            relationship=self.relationship[i],
            local_pref=self.local_pref[i],
        )

    def routes(self) -> Dict[ASN, Route]:
        """One :class:`Route` per routed AS, keyed in visit order."""
        asns = self.topology.asns
        route = self.route
        return {asns[i]: route(i) for i in self.rows()}

    def covered_ases(self) -> FrozenSet[ASN]:
        """The routed ASes, laid out exactly as ``frozenset(routes())``."""
        if self._covered is None:
            asns = self.topology.asns
            # Built from a dict so the set table is presized the same way
            # (and so iterates in the same order) as one built from the
            # routes mapping.
            self._covered = frozenset(
                dict.fromkeys([asns[i] for i in self.rows()])
            )
        return self._covered

    def link_assignment(self) -> Dict[ASN, LinkId]:
        """Origin link of every routed AS, keyed in visit order."""
        asns = self.topology.asns
        link_ids = self.topology.link_ids
        link = self.link
        return {asns[i]: link_ids[link[i]] for i in self.rows()}
