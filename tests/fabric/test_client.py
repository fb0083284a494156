"""Unit tests for the Fabric client (endorse → assemble → submit)."""

import pytest

from repro.crypto.identity import Identity
from repro.fabric.client import Client
from repro.fabric.messages import EndorsementResponse, SubmitTransaction
from repro.ledger.kvstore import Version
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import Endorsement

from tests.conftest import routes_to


def make_client(sim, network, streams, endorsers=("e0",), rate=10.0, workload_ops=None, **kwargs):
    identity = Identity("client-0", "client-org", "client")
    operations = list(workload_ops if workload_ops is not None else [("cc", ("k",))])

    def workload():
        return operations.pop(0) if operations else None

    client = Client(
        sim, network, streams, identity,
        endorsers=list(endorsers), orderer="orderer",
        workload=workload, rate=rate, **kwargs,
    )
    return client


def register_collector(network, name):
    inbox = []
    network.register(name, routes_to(lambda src, msg: inbox.append((src, msg))))
    return inbox


def make_endorsement(rwset, name="e0"):
    return Endorsement.create(Identity(name, "org0", "peer"), rwset)


def test_sends_endorsement_requests_at_rate(sim, network, streams):
    inbox = register_collector(network, "e0")
    register_collector(network, "orderer")
    client = make_client(sim, network, streams, rate=5.0, workload_ops=[("cc", (1,)), ("cc", (2,))])
    client.start()
    sim.run(until=1.0)
    assert [(request.chaincode_id, request.args) for _, request in inbox] == [
        ("cc", (1,)),
        ("cc", (2,)),
    ]


def test_workload_exhaustion_stops_issuing(sim, network, streams):
    inbox = register_collector(network, "e0")
    register_collector(network, "orderer")
    client = make_client(sim, network, streams, rate=10.0, workload_ops=[("cc", (1,))])
    client.start()
    sim.run(until=2.0)
    assert client.workload_exhausted
    assert len(inbox) == 1


def test_assembles_and_submits_on_full_endorsement(sim, network, streams):
    endorser_inbox = register_collector(network, "e0")
    orderer_inbox = register_collector(network, "orderer")
    client = make_client(sim, network, streams, rate=10.0)
    client.start()
    sim.run(until=0.2)
    # Manually answer the endorsement request.
    (src, request), = endorser_inbox
    rwset = ReadWriteSet()
    rwset.record_write("k", 1)
    network.register("responder", routes_to(lambda s, m: None))
    network.send(
        "responder", "client-0",
        EndorsementResponse(request.request_id, rwset, make_endorsement(rwset)),
    )
    sim.run(until=1.0)
    assert len(orderer_inbox) == 1
    submitted = orderer_inbox[0][1]
    assert isinstance(submitted, SubmitTransaction)
    assert submitted.proposal.endorsements_consistent()
    assert client.stats.proposals_submitted == 1
    assert client.idle


def test_digest_mismatch_counts_proposal_conflict(sim, network, streams):
    inbox_e0 = register_collector(network, "e0")
    inbox_e1 = register_collector(network, "e1")
    orderer_inbox = register_collector(network, "orderer")
    client = make_client(sim, network, streams, endorsers=("e0", "e1"), rate=10.0)
    client.start()
    sim.run(until=0.2)
    request = inbox_e0[0][1]
    rwset_a = ReadWriteSet()
    rwset_a.record_read("k", Version(0, 0))
    rwset_b = ReadWriteSet()
    rwset_b.record_read("k", Version(1, 0))  # endorser at a different height
    network.register("responder", routes_to(lambda s, m: None))
    network.send("responder", "client-0", EndorsementResponse(request.request_id, rwset_a, make_endorsement(rwset_a, "e0")))
    network.send("responder", "client-0", EndorsementResponse(request.request_id, rwset_b, make_endorsement(rwset_b, "e1")))
    sim.run(until=1.0)
    assert orderer_inbox == []
    assert client.stats.proposal_time_conflicts == 1


def test_endorsement_timeout_drops_operation(sim, network, streams):
    register_collector(network, "e0")
    register_collector(network, "orderer")
    client = make_client(sim, network, streams, rate=10.0, endorsement_timeout=0.5)
    client.start()
    sim.run(until=0.4)
    assert client.workload_exhausted and not client.idle  # the request is in flight
    sim.run(until=2.0)
    assert client.idle and client.stats.proposals_submitted == 0


def test_late_response_after_timeout_ignored(sim, network, streams):
    endorser_inbox = register_collector(network, "e0")
    orderer_inbox = register_collector(network, "orderer")
    client = make_client(sim, network, streams, rate=10.0, endorsement_timeout=0.2)
    client.start()
    sim.run(until=1.0)
    request = endorser_inbox[0][1]
    rwset = ReadWriteSet()
    network.register("responder", routes_to(lambda s, m: None))
    network.send("responder", "client-0", EndorsementResponse(request.request_id, rwset, make_endorsement(rwset)))
    sim.run(until=2.0)
    assert orderer_inbox == []


def test_client_requires_endorsers_and_positive_rate(sim, network, streams):
    with pytest.raises(ValueError):
        make_client(sim, network, streams, endorsers=())
    with pytest.raises(ValueError):
        make_client(sim, network, streams, rate=0.0)


def test_proposal_size_configurable(sim, network, streams):
    endorser_inbox = register_collector(network, "e0")
    orderer_inbox = register_collector(network, "orderer")
    client = make_client(sim, network, streams, rate=10.0, tx_size_bytes=9_999)
    client.start()
    sim.run(until=0.2)
    request = endorser_inbox[0][1]
    rwset = ReadWriteSet()
    network.register("responder", routes_to(lambda s, m: None))
    network.send("responder", "client-0", EndorsementResponse(request.request_id, rwset, make_endorsement(rwset)))
    sim.run(until=1.0)
    assert orderer_inbox[0][1].proposal.size_bytes == 9_999
