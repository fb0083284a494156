"""Unit tests for network assembly."""

import gc
import inspect
import tracemalloc

import pytest

from repro.experiments.builders import build_network, gossip_factory
from repro.experiments.workloads import synthetic_block_transactions
from repro.gossip.config import BackgroundTrafficConfig, EnhancedGossipConfig, OriginalGossipConfig
from repro.gossip.enhanced import EnhancedGossip
from repro.gossip.original import OriginalGossip
from repro.net.network import Network
from repro.simulation import random as random_streams
from repro.simulation._core import kernels
from repro.simulation.random import Buffered, Stream

from tests.conftest import FakeHost, node_names_interned


def test_single_org_layout():
    net = build_network(n_peers=6, gossip=OriginalGossipConfig(), seed=1)
    assert net.n_peers == 6
    assert net.org_members == {"org0": [f"peer-{i}" for i in range(6)]}
    assert net.leaders == {"org0": "peer-0"}
    assert net.leader_of("org0").is_leader
    assert net.regular_peers() == [f"peer-{i}" for i in range(1, 6)]


def test_multi_org_layout():
    net = build_network(n_peers=6, gossip=OriginalGossipConfig(), organizations=2)
    assert set(net.org_members) == {"org0", "org1"}
    assert len(net.org_members["org0"]) == 3
    assert net.leaders["org1"] == "peer-1"
    assert net.orderer.org_leaders == net.leaders


def test_gossip_factory_dispatch():
    assert isinstance(
        gossip_factory(OriginalGossipConfig())(FakeHost("peer-x"), _fake_view()), OriginalGossip
    )
    assert isinstance(
        gossip_factory(EnhancedGossipConfig())(FakeHost("peer-x"), _fake_view()), EnhancedGossip
    )
    with pytest.raises(TypeError):
        gossip_factory("nonsense")


def test_peers_carry_their_organization_identity():
    net = build_network(n_peers=4, gossip=OriginalGossipConfig(), organizations=2)
    identity = net.peers["peer-2"].identity
    assert (identity.name, identity.organization, identity.role) == ("peer-2", "org0", "peer")
    assert net.peers["peer-3"].identity.organization == "org1"


def test_background_attached_when_configured():
    net = build_network(
        n_peers=3, gossip=OriginalGossipConfig(), background=BackgroundTrafficConfig()
    )
    assert all(peer.background is not None for peer in net.peers.values())
    bare = build_network(n_peers=3, gossip=OriginalGossipConfig())
    assert all(peer.background is None for peer in bare.peers.values())


def test_run_until_predicate():
    net = build_network(n_peers=3, gossip=OriginalGossipConfig())
    net.start()
    reached = net.run_until(lambda: net.sim.now >= 3.0, step=1.0, max_time=10.0)
    assert reached >= 3.0


def test_run_until_timeout():
    net = build_network(n_peers=3, gossip=OriginalGossipConfig())
    net.start()
    with pytest.raises(TimeoutError):
        net.run_until(lambda: False, step=1.0, max_time=3.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        build_network(n_peers=1, gossip=OriginalGossipConfig())
    with pytest.raises(ValueError):
        build_network(n_peers=4, gossip=OriginalGossipConfig(), organizations=0)


def _build_peak_bytes(n_peers):
    with node_names_interned(n_peers):
        gc.collect()
        tracemalloc.start()
        try:
            net = build_network(n_peers=n_peers, gossip=EnhancedGossipConfig.paper_f4(), seed=1)
            assert net.n_peers == n_peers  # keep the deployment alive across the reading
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_build_memory_is_linear_in_peers():
    """4x the peers may cost < 6x the memory: the views of an organization
    share one member array instead of each holding private copies (which
    made this ratio ~9x and growing). Allocation counts, no wall clock."""
    assert _build_peak_bytes(2000) < 6 * _build_peak_bytes(500)


def _peer_streams(net):
    return [name for name in net.streams.names() if name.startswith("peer-")]


def _built_bytes_per_peer(gossip, background=None):
    with node_names_interned(500):
        gc.collect()
        tracemalloc.start()
        try:
            net = build_network(n_peers=500, gossip=gossip, seed=1, background=background)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return net, traced / net.n_peers


def test_a_built_peer_holds_no_rng_state():
    """Streams exist from their first draw: a deployment that is built but
    never started — a churn joiner held out, say — has seeded none. A
    built peer holds its protocol state and little else: slotted objects,
    containers made at their first use and views with no per-view
    callable (18.4 KB per peer at 500 peers with one Mersenne-Twister
    state per component; 4.6 KB with dict-backed objects; 3.0 KB with a
    private dispatch dict per peer; ~2.2 KB now)."""
    net, per_peer = _built_bytes_per_peer(
        EnhancedGossipConfig.paper_f4(), background=BackgroundTrafficConfig()
    )
    assert _peer_streams(net) == []
    assert per_peer <= 2400


def test_a_built_original_peer_costs_its_protocol_state():
    """The original module's push, pull and recovery are slotted too
    (4.8 KB per peer at 500 peers with dict-backed objects; 3.0 KB with a
    private dispatch dict per peer; ~1.9 KB now)."""
    net, per_peer = _built_bytes_per_peer(OriginalGossipConfig())
    assert _peer_streams(net) == []
    assert per_peer <= 2200


@pytest.mark.parametrize(
    "gossip, bound",
    [(EnhancedGossipConfig.paper_f4(), 5_000), (OriginalGossipConfig(), 5_600)],
    ids=["enhanced", "original"],
)
def test_a_started_peer_holds_no_generator_but_its_latency_stream(gossip, bound):
    """A started peer's streams (recovery, and pull in the original
    module) draw a few words every few seconds and stay buffered: after
    12 simulated seconds of 500 started peers, every live generator in
    the registry is a promoted ``network:latency:*`` one, and most
    latency streams still hold their fill instead. A started peer holds
    4.6 KB (enhanced) or 5.1 KB (original): its built state, its
    per-source latency stream, its timers and its buffered streams (6.6
    KB and 7.2 KB with a live generator per latency stream; 9.1 KB and
    12.2 KB with one per stream; 7.8 KB and 8.2 KB with 256 of them
    shared by replay)."""
    build_network(n_peers=4, gossip=gossip, seed=1).start()  # imports, caches
    with node_names_interned(500):
        gc.collect()
        tracemalloc.start()
        try:
            net = build_network(n_peers=500, gossip=gossip, seed=1)
            net.start()
            net.sim.run(until=12.0)
            per_peer = tracemalloc.get_traced_memory()[0] / net.n_peers
        finally:
            tracemalloc.stop()
    streams = net.streams._streams
    buffered = [rng for rng in streams.values() if type(rng) is Buffered]
    assert len(buffered) == net.n_peers * (1 if isinstance(gossip, EnhancedGossipConfig) else 2)
    assert not any(rng._live for rng in buffered)
    generators = [name for name, rng in streams.items() if type(rng) is Stream]
    assert all(name.startswith("network:latency:") for name in generators)
    assert len(generators) < net.n_peers / 10
    assert per_peer <= bound


def test_a_cold_sender_holds_its_network_streams_in_under_1_3_kb():
    """A sender whose latency stream has not spent its fill holds the fill,
    not a generator. Over a one-block, no-background deployment of 300
    peers in which no sender draws past its fill, the bytes traced to the
    stream registry (``simulation/random.py``) from a sender's port or from
    a kernel's draw — the source, its seed, chain and fill, its registry
    slot — come to 1,151 B per sender, against 2,568 B with a generator
    per sender from its first send."""
    lines, first = inspect.getsourcelines(Network._open_port)
    port_file, port_lines = Network._open_port.__code__.co_filename, range(first, first + len(lines))
    kernel_file = kernels.fan_out.__code__.co_filename
    random_file = random_streams.derive_seed.__code__.co_filename

    def from_a_port_or_a_kernel(trace):
        frames = trace.traceback  # oldest first
        return frames[-1].filename == random_file and any(
            frame.filename == kernel_file
            or (frame.filename == port_file and frame.lineno in port_lines)
            for frame in frames
        )

    gossip = EnhancedGossipConfig(fout=4, ttl=6, ttl_direct=2)
    build_network(n_peers=4, gossip=gossip, seed=1).start()  # imports, caches
    with node_names_interned(300):
        gc.collect()
        tracemalloc.start(12)
        try:
            net = build_network(n_peers=300, gossip=gossip, seed=1)
            net.start()
            txs = synthetic_block_transactions(50, 3_200)
            net.sim.schedule_at(1.0, net.orderer.emit_block, txs)
            net.sim.run(until=6.0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    senders = len(net.network._ports)
    traced = sum(trace.size for trace in snapshot.traces if from_a_port_or_a_kernel(trace))
    assert traced / senders <= 1_300
    assert all(peer.get_block(0) is not None for peer in net.peers.values())
    latency = [rng for name, rng in net.streams._streams.items() if name.startswith("network:")]
    assert len(latency) == senders and all(type(rng) is random_streams.Uniform for rng in latency)


@pytest.mark.parametrize(
    "gossip, bound",
    [(EnhancedGossipConfig.paper_f4(), 80), (OriginalGossipConfig(), 88)],
    ids=["enhanced", "original"],
)
def test_a_built_peers_routing_is_its_route_tuple(gossip, bound):
    """What a peer holds only to be routed to: its route tuple ``(table,
    peer, *components)``, which the network holds too. The table is its
    class's, shared (928 B per enhanced peer with a private ``{class:
    bound method}`` dict: 352 B of dict and nine bound methods; 144 B with
    a bound ``_on_message`` registered beside the tuple; 80 B now, 88 B
    for the original module's one more component)."""
    with node_names_interned(500):
        gc.collect()
        tracemalloc.start()
        try:
            net = build_network(n_peers=500, gossip=gossip, seed=1)
            gc.collect()  # empties the free lists: the freed tuples must leave them
            before = tracemalloc.get_traced_memory()[0]
            for name, peer in net.peers.items():
                net.network.set_routes(name, None)
                peer._routes = None
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert 0 < freed / net.n_peers <= bound


@pytest.mark.parametrize(
    "gossip", [EnhancedGossipConfig.paper_f4(), OriginalGossipConfig()], ids=["enhanced", "original"]
)
def test_a_built_peers_objects_have_no_instance_dict(gossip):
    """Everything built once per peer is slotted: an instance dict (a
    private one past 30 attributes) would cost more than the fields."""
    net = build_network(n_peers=4, gossip=gossip, seed=1, background=BackgroundTrafficConfig())
    for peer in net.peers.values():
        module = peer.gossip
        components = [module.push, module.recovery, getattr(module, "pull", None)]
        built = [peer, module, *components, peer.background, peer.view]
        built += [peer.blockchain, peer.state, peer.chaincodes]
        for obj in built:
            if obj is not None:
                assert not hasattr(obj, "__dict__"), type(obj).__name__


@pytest.mark.parametrize("background", [None, BackgroundTrafficConfig()])
def test_start_seeds_only_the_timer_phases(background):
    net = build_network(
        n_peers=12, gossip=EnhancedGossipConfig.paper_f4(), seed=1, background=background
    )
    net.start()
    purposes = ["recovery"] + (["background"] if background else [])
    assert sorted(_peer_streams(net)) == sorted(
        f"{name}:{purpose}" for name in net.peers for purpose in purposes
    )


def test_run_seeds_the_leader_stream_for_leaders_only():
    from tests.conftest import make_transactions

    net = build_network(
        n_peers=50, gossip=EnhancedGossipConfig.paper_f4(), seed=1, organizations=2
    )
    net.start()
    net.orderer.emit_block(make_transactions(2))
    net.run_until(lambda: net.all_peers_received(1), step=1.0, max_time=30.0)
    leader_streams = [n for n in _peer_streams(net) if n.endswith(":leader-initial-gossiper")]
    assert sorted(leader_streams) == sorted(
        f"{leader}:leader-initial-gossiper" for leader in net.leaders.values()
    )
    # Every peer forwarded, so every push component bound its stream — into
    # a slot, not a per-instance dict (31 attributes once cost each push
    # component a private 1.5 KB one).
    for peer in net.peers.values():
        push = peer.gossip.push
        stream = net.streams.buffered(f"{peer.name}:iuc-push-targets", net.sim)
        assert push._rng is (stream._live or stream) and stream.owner is push
        assert not hasattr(push, "__dict__")


def test_seed_determinism():
    def run_once():
        net = build_network(n_peers=10, gossip=EnhancedGossipConfig(), seed=9)
        net.start()
        from tests.conftest import make_transactions

        net.orderer.emit_block(make_transactions(2))
        net.sim.run(until=5.0)
        return sorted(net.tracker.block_latencies(0).items())

    assert run_once() == run_once()


def _fake_view():
    from repro.gossip.view import OrganizationView

    return OrganizationView("peer-x", ["peer-x", "peer-y"], ["peer-x", "peer-y"], "peer-x")
