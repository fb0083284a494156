"""Block validation: endorsement policy + MVCC read-set checks.

Validation runs at every peer, sequentially over the transactions of each
block, against the world state *as updated by earlier valid transactions of
the same block* — Fabric's earliest-writer-wins semantics (paper §II-C):
of two conflicting proposals in the same block, the first is VALID and its
writes applied; the second fails the MVCC check.

The verdict is a function of (block, policy, state before the block), and
every peer of a run validates the same ``Block`` instance from the same
state, so :func:`validate_block` computes it once: the first store to
validate a block leaves a memo on the block, and every later store whose
``state_tag`` equals the memo's replays the codes and the net writes
instead of re-checking each transaction (docs/performance.md, "Commit
path").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

from repro.fabric.endorsement import EndorsementPolicy
from repro.ledger.block import Block
from repro.ledger.kvstore import KeyValueStore, Version, VersionedValue
from repro.ledger.transaction import TransactionProposal, ValidationCode


@dataclass
class BlockValidationResult:
    """Per-transaction outcomes of validating one block."""

    block_number: int
    codes: List[ValidationCode] = field(default_factory=list)
    replayed: bool = False  # codes came from the block's memo, not the checks

    @property
    def valid_count(self) -> int:
        return sum(1 for code in self.codes if code.is_valid)

    @property
    def invalid_count(self) -> int:
        return len(self.codes) - self.valid_count


def validate_transaction(
    proposal: TransactionProposal,
    store: KeyValueStore,
    policy: EndorsementPolicy,
) -> ValidationCode:
    """Validate a single proposal against the current state."""
    if not proposal.endorsements:
        return ValidationCode.BAD_PROPOSAL
    if not policy.validate_proposal(proposal):
        return ValidationCode.ENDORSEMENT_POLICY_FAILURE
    if proposal.rwset.conflicts_with_state(store.get_version):
        return ValidationCode.MVCC_READ_CONFLICT
    return ValidationCode.VALID


class _ValidationMemo(NamedTuple):
    """What validating a block did to a store whose tag was ``pre_tag``."""

    pre_tag: object
    policy: EndorsementPolicy
    tx_count: int  # a block whose transaction list changed length misses
    codes: Tuple[ValidationCode, ...]
    entries: Dict[str, VersionedValue]  # net writes, in first-write order
    puts: int
    post_tag: object


def validate_block(
    block: Block,
    store: KeyValueStore,
    policy: EndorsementPolicy,
) -> BlockValidationResult:
    """Validate a block and apply the writes of its valid transactions.

    Transactions are processed in block order; each valid transaction's
    writes become visible to the MVCC checks of the transactions after it,
    within the block and beyond.

    The first store to validate ``block`` from a known state (see
    ``KeyValueStore.state_tag``) runs the checks, leaves a memo on the
    block and takes a new tag; a later store with the memo's pre-state tag
    and an equal policy takes the memo's codes, net writes and tag instead.
    Anything else — a store written out of band or copied, another policy,
    a transaction list that changed length — runs the checks.
    """
    transactions = block.transactions
    pre_tag = store.state_tag
    memo = block._validation_memo
    if (
        memo is not None
        and memo.pre_tag == pre_tag
        and memo.tx_count == len(transactions)
        and memo.policy == policy
    ):
        store.apply_block(memo.entries, memo.puts, memo.post_tag)
        return BlockValidationResult(block.number, list(memo.codes), replayed=True)

    result = BlockValidationResult(block_number=block.number)
    entries: Dict[str, VersionedValue] = {}
    puts = 0
    for tx_index, proposal in enumerate(transactions):
        code = validate_transaction(proposal, store, policy)
        result.codes.append(code)
        if code.is_valid:
            version = Version(block.number, tx_index)
            writes = proposal.rwset.writes
            store.apply_writes(writes, version)
            # A later writer replaces the entry and keeps the key's place.
            entries.update((key, store.get(key)) for key, _ in writes)
            puts += len(writes)
    if pre_tag is not None:
        # The writes above left the store untagged. A store that came from
        # a known state gets a tag again, minted here: whoever else holds
        # it will have replayed this memo from the same pre-state.
        memo = _ValidationMemo(
            pre_tag=pre_tag,
            policy=policy,
            tx_count=len(transactions),
            codes=tuple(result.codes),
            entries=entries,
            puts=puts,
            post_tag=object(),
        )
        block._validation_memo = memo
        store.state_tag = memo.post_tag
    return result
