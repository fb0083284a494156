"""Fabric node roles: orderers, peers, endorsers, clients.

Implements the execute-order-validate pipeline of the paper's §II over the
simulation substrate: clients obtain endorsements by chaincode simulation,
submit proposals to the ordering service, which cuts blocks (max size or
batch timeout) and hands them to the per-organization leader peers; gossip
disseminates blocks to all peers, which validate them strictly in order
(endorsement policy + MVCC read-set checks) and apply valid writes.
"""

from repro.fabric.chaincode import (
    Chaincode,
    ChaincodeRegistry,
    ChaincodeStub,
    CounterIncrementChaincode,
)
from repro.fabric.config import OrdererConfig, PeerConfig, ValidationMode
from repro.fabric.endorsement import EndorsementPolicy
from repro.fabric.client import Client, ClientStats
from repro.fabric.messages import (
    EndorsementRequest,
    EndorsementResponse,
    OrdererBlock,
    SubmitTransaction,
)
from repro.fabric.orderer import OrderingService
from repro.fabric.peer import Peer
from repro.fabric.validation import validate_block

__all__ = [
    "Chaincode",
    "ChaincodeRegistry",
    "ChaincodeStub",
    "Client",
    "ClientStats",
    "CounterIncrementChaincode",
    "EndorsementPolicy",
    "EndorsementRequest",
    "EndorsementResponse",
    "OrdererBlock",
    "OrdererConfig",
    "OrderingService",
    "Peer",
    "PeerConfig",
    "SubmitTransaction",
    "ValidationMode",
    "validate_block",
]
