"""``Blockchain`` against a list-plus-dict reference model.

The model is the textbook layout — a list of committed blocks and a dict
of buffered ones — and answers every public method from it. Random
interleavings of receive (any order, duplicates included), commit of the
ready block, and commit attempts the chain must refuse are applied to
both; after every step all public methods must agree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ledger.block import GENESIS_PREVIOUS_HASH
from repro.ledger.chain import Blockchain, ChainError

from tests.conftest import make_chain

BLOCKS = make_chain([1] * 12)
PROBES = range(-2, len(BLOCKS) + 2)


class ListAndDict:
    def __init__(self) -> None:
        self.committed = []
        self.pending = {}

    def receive(self, block):
        if block.number < len(self.committed) or block.number in self.pending:
            return False
        self.pending[block.number] = block
        return True

    def commit(self, block):
        self.pending.pop(block.number, None)
        self.committed.append(block)

    def get_any(self, number):
        if 0 <= number < len(self.committed):
            return self.committed[number]
        return self.pending.get(number)

    def max_known_number(self):
        return max([len(self.committed) - 1, *self.pending])

    def known_numbers(self, window):
        top = self.max_known_number()
        return [n for n in range(max(0, top - window + 1), top + 1) if self.get_any(n)]


def assert_agree(chain: Blockchain, model: ListAndDict) -> None:
    height = len(model.committed)
    assert chain.height == chain.next_commit_number == height
    assert chain.tip_hash() == (model.committed[-1].block_hash if height else GENESIS_PREVIOUS_HASH)
    assert chain.committed_blocks() == model.committed
    assert chain.pending_count() == len(model.pending)
    assert chain.peek_ready() is model.pending.get(height)
    assert chain.max_known_number() == model.max_known_number()
    assert chain.verify_committed_chain()
    for number in PROBES:
        held = model.get_any(number)
        assert chain.get_any(number) is held
        assert chain.has_block(number) == (held is not None)
        assert chain.get_committed(number) is (held if 0 <= number < height else None)
        missing = [n for n in range(height, number) if n not in model.pending]
        assert chain.missing_ranges(number) == missing
    for window in (1, 3, 20):
        assert chain.known_numbers(window) == model.known_numbers(window)


steps = st.lists(
    st.one_of(
        st.tuples(st.just("receive"), st.integers(0, len(BLOCKS) - 1)),
        st.tuples(st.just("commit_ready"), st.just(0)),
        st.tuples(st.just("commit"), st.integers(0, len(BLOCKS) - 1)),  # unbuffered or out of order
    ),
    max_size=40,
)


@given(steps)
@settings(max_examples=150, deadline=None)
def test_blockchain_agrees_with_list_plus_dict_model(program):
    chain, model = Blockchain(), ListAndDict()
    assert_agree(chain, model)
    for op, number in program:
        if op == "receive":
            assert chain.receive(BLOCKS[number]) == model.receive(BLOCKS[number])
        elif op == "commit_ready":
            block = chain.peek_ready()
            if block is not None:
                chain.commit(block)
                model.commit(block)
        elif number == len(model.committed):
            # The next block, buffered or not (a test or a leader commits
            # without a receive): accepted either way.
            chain.commit(BLOCKS[number])
            model.commit(BLOCKS[number])
        else:
            with pytest.raises(ChainError):
                chain.commit(BLOCKS[number])
        assert_agree(chain, model)
