"""Transit-stub topology generation.

The paper evaluates on two GT-ITM transit-stub topologies of roughly
10,000 nodes each:

* ``tsk-large`` -- 8 transit domains, a large backbone, sparse stubs;
* ``tsk-small`` -- 2 transit domains, a small backbone, dense stubs.

GT-ITM is an external C program, so we re-implement the transit-stub
construction it performs:

1. Transit *domains* are scattered on a plane.  Within a domain the
   transit nodes form a connected random graph (random spanning tree
   plus extra edges).
2. Domains are interconnected by cross-transit links: a spanning tree
   over domains plus a few extra domain-to-domain links, each realised
   as a link between random transit nodes of the two domains.
3. Every transit node sponsors a number of *stub domains*.  A stub
   domain is a connected random graph of stub nodes; its gateway node
   links to the sponsoring transit node.

Every node receives planar coordinates (domain centres scattered over
the plane, members jittered around them) so the distance-derived
latency model in :mod:`repro.netsim.latency` can mimic GT-ITM's
default latency assignment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class NodeKind(enum.IntEnum):
    """Role of a physical node in the transit-stub hierarchy."""

    TRANSIT = 0
    STUB = 1


class LinkClass(enum.IntEnum):
    """Classification of a physical link, used by latency models."""

    CROSS_TRANSIT = 0  # transit nodes in different transit domains
    INTRA_TRANSIT = 1  # transit nodes in the same transit domain
    TRANSIT_STUB = 2  # transit node <-> stub node
    INTRA_STUB = 3  # stub nodes in the same stub domain


#: probability of an extra intra-transit edge beyond the spanning tree
EXTRA_TRANSIT_EDGE_PROB = 0.4
#: probability of an extra intra-stub edge beyond the spanning tree
EXTRA_STUB_EDGE_PROB = 0.2
#: extra cross-transit (domain-to-domain) links beyond the spanning tree
EXTRA_DOMAIN_LINKS = 4


@dataclass(frozen=True)
class TransitStubConfig:
    """Structural knobs of a transit-stub topology.

    The defaults reproduce the paper's ``tsk-large`` at full scale;
    use :meth:`tsk_large` / :meth:`tsk_small` for the named presets.
    """

    transit_domains: int = 8
    transit_nodes_per_domain: int = 10
    stubs_per_transit_node: int = 10
    nodes_per_stub: int = 12

    @property
    def total_nodes(self) -> int:
        """Number of nodes the generated topology will contain."""
        per_transit_node = 1 + self.stubs_per_transit_node * self.nodes_per_stub
        return self.transit_domains * self.transit_nodes_per_domain * per_transit_node

    @classmethod
    def tsk_large(cls, scale: float = 1.0) -> "TransitStubConfig":
        """Large backbone, sparse edge network (~9.7k nodes at scale 1).

        ``scale`` < 1 shrinks the topology roughly proportionally while
        preserving its shape; used by the ``quick`` experiment preset.
        """
        return cls(
            transit_domains=max(2, round(8 * min(1.0, scale * 2))),
            transit_nodes_per_domain=max(3, round(10 * scale)),
            stubs_per_transit_node=max(2, round(10 * scale)),
            nodes_per_stub=max(3, round(12 * scale)),
        )

    @classmethod
    def tsk_small(cls, scale: float = 1.0) -> "TransitStubConfig":
        """Small backbone, dense edge network (~10k nodes at scale 1)."""
        return cls(
            transit_domains=2,
            transit_nodes_per_domain=max(3, round(10 * scale)),
            stubs_per_transit_node=max(2, round(10 * scale)),
            nodes_per_stub=max(5, round(50 * scale)),
        )


@dataclass
class Topology:
    """An undirected physical network with transit-stub annotations.

    Attributes
    ----------
    num_nodes:
        Total number of physical nodes.
    edges:
        ``(E, 2)`` int array of undirected edges, each listed once.
    edge_class:
        ``(E,)`` array of :class:`LinkClass` values.
    node_kind:
        ``(N,)`` array of :class:`NodeKind` values.
    transit_domain:
        ``(N,)`` transit-domain id of each node (for a stub node, the
        domain of its sponsoring transit node).
    stub_domain:
        ``(N,)`` global stub-domain id, ``-1`` for transit nodes.
    coords:
        ``(N, 2)`` planar coordinates used by the generated latency model.
    """

    num_nodes: int
    edges: np.ndarray
    edge_class: np.ndarray
    node_kind: np.ndarray
    transit_domain: np.ndarray
    stub_domain: np.ndarray
    coords: np.ndarray
    config: TransitStubConfig
    seed: int
    name: str = "transit-stub"
    _stub_nodes: np.ndarray = field(default=None, repr=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def stub_nodes(self) -> np.ndarray:
        """Ids of all stub (edge) nodes, the natural overlay hosts."""
        if self._stub_nodes is None:
            self._stub_nodes = np.flatnonzero(self.node_kind == NodeKind.STUB)
        return self._stub_nodes

    def transit_nodes(self) -> np.ndarray:
        """Ids of all transit (backbone) nodes."""
        return np.flatnonzero(self.node_kind == NodeKind.TRANSIT)

    def degree(self) -> np.ndarray:
        """Per-node degree."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg


def _connected_random_graph(
    node_ids: list, extra_edge_prob: float, rng: np.random.Generator
) -> list:
    """Edges of a connected random graph over ``node_ids``.

    A random spanning tree (random attachment order) guarantees
    connectivity; each non-tree pair is then added independently with
    ``extra_edge_prob``.
    """
    n = len(node_ids)
    if n <= 1:
        return []
    order = list(node_ids)
    rng.shuffle(order)
    edges = []
    tree_pairs = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = order[j], order[i]
        edges.append((a, b))
        tree_pairs.add((min(a, b), max(a, b)))
    if extra_edge_prob > 0 and n > 2:
        for i in range(n):
            for j in range(i + 1, n):
                a, b = node_ids[i], node_ids[j]
                if (min(a, b), max(a, b)) in tree_pairs:
                    continue
                if rng.random() < extra_edge_prob:
                    edges.append((a, b))
    return edges


def generate_transit_stub(
    config: TransitStubConfig, seed: int = 0, name: str = None
) -> Topology:
    """Generate a transit-stub :class:`Topology` from ``config``.

    The construction is fully deterministic for a given ``(config,
    seed)`` pair.  Node ids are assigned transit-domain by
    transit-domain: first the domain's transit nodes, then each transit
    node's stub domains in order.
    """
    rng = np.random.default_rng(seed)
    total = config.total_nodes
    node_kind = np.empty(total, dtype=np.int8)
    transit_domain = np.empty(total, dtype=np.int32)
    stub_domain = np.full(total, -1, dtype=np.int32)
    coords = np.zeros((total, 2), dtype=np.float64)

    edges: list = []
    edge_class: list = []

    def add_edges(pairs, cls: LinkClass) -> None:
        for a, b in pairs:
            edges.append((a, b))
            edge_class.append(int(cls))

    # --- place transit domains on the plane -----------------------------
    plane = 1000.0
    domain_centers = rng.uniform(0.12 * plane, 0.88 * plane, size=(config.transit_domains, 2))

    next_id = 0
    domain_transit_nodes: list = []
    stub_counter = 0

    for dom in range(config.transit_domains):
        center = domain_centers[dom]
        t_ids = list(range(next_id, next_id + config.transit_nodes_per_domain))
        next_id += config.transit_nodes_per_domain
        domain_transit_nodes.append(t_ids)
        for t in t_ids:
            node_kind[t] = NodeKind.TRANSIT
            transit_domain[t] = dom
            coords[t] = center + rng.uniform(-50.0, 50.0, size=2)
        add_edges(
            _connected_random_graph(t_ids, EXTRA_TRANSIT_EDGE_PROB, rng),
            LinkClass.INTRA_TRANSIT,
        )

        # stub domains hanging off each transit node
        for t in t_ids:
            for _ in range(config.stubs_per_transit_node):
                s_ids = list(range(next_id, next_id + config.nodes_per_stub))
                next_id += config.nodes_per_stub
                stub_center = coords[t] + rng.uniform(-15.0, 15.0, size=2)
                for s in s_ids:
                    node_kind[s] = NodeKind.STUB
                    transit_domain[s] = dom
                    stub_domain[s] = stub_counter
                    coords[s] = stub_center + rng.uniform(-5.0, 5.0, size=2)
                add_edges(
                    _connected_random_graph(s_ids, EXTRA_STUB_EDGE_PROB, rng),
                    LinkClass.INTRA_STUB,
                )
                gateway = s_ids[int(rng.integers(0, len(s_ids)))]
                add_edges([(t, gateway)], LinkClass.TRANSIT_STUB)
                stub_counter += 1

    # --- interconnect transit domains ------------------------------------
    if config.transit_domains > 1:
        dom_order = list(range(config.transit_domains))
        rng.shuffle(dom_order)
        linked = set()

        def link_domains(d1: int, d2: int) -> None:
            a = domain_transit_nodes[d1][int(rng.integers(0, len(domain_transit_nodes[d1])))]
            b = domain_transit_nodes[d2][int(rng.integers(0, len(domain_transit_nodes[d2])))]
            add_edges([(a, b)], LinkClass.CROSS_TRANSIT)
            linked.add((min(d1, d2), max(d1, d2)))

        for i in range(1, config.transit_domains):
            j = int(rng.integers(0, i))
            link_domains(dom_order[j], dom_order[i])
        attempts = 0
        added = 0
        while added < EXTRA_DOMAIN_LINKS and attempts < 50 * (EXTRA_DOMAIN_LINKS + 1):
            attempts += 1
            d1, d2 = rng.integers(0, config.transit_domains, size=2)
            d1, d2 = int(d1), int(d2)
            if d1 == d2 or (min(d1, d2), max(d1, d2)) in linked:
                continue
            link_domains(d1, d2)
            added += 1

    # every pair is listed once: the random graphs skip their tree pairs,
    # each stub domain has one gateway link, and two domains at most one
    # cross-transit link
    return Topology(
        num_nodes=total,
        edges=np.asarray(edges, dtype=np.int64),
        edge_class=np.asarray(edge_class, dtype=np.int8),
        node_kind=node_kind,
        transit_domain=transit_domain,
        stub_domain=stub_domain,
        coords=coords,
        config=config,
        seed=seed,
        name=name or "transit-stub",
    )
