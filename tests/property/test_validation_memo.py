"""Property: replaying a block's validation memo is indistinguishable from
running the per-transaction checks at every store.

Chains are generated with intra- and inter-block read/write conflicts,
missing endorsements and policy failures; N stores walk the same chain at
staggered heights (any interleaving in which each store sees the blocks in
order) and must end with the codes, ``(key -> value, version)`` contents
and ``writes_applied`` of N independent full validations — with exactly one
full validation per block.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.validation import validate_block
from repro.ledger.kvstore import KeyValueStore
from repro.metrics.conflicts import ConflictTracker

from tests.fabric.test_validation import STRICT, build_chain, contents, validate_independently

transactions = st.tuples(
    st.integers(min_value=0, max_value=3),  # few keys: conflicts are the norm
    st.integers(min_value=0, max_value=2),  # endorser lag, in blocks
    st.sampled_from(["ok", "ok", "ok", "none", "outsider"]),
)
chains = st.lists(st.lists(transactions, min_size=0, max_size=6), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(chains, st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
def test_replay_equals_independent_full_validation(spec, n_stores, rng):
    blocks = build_chain(spec)
    expected_codes, expected = validate_independently(blocks)

    stores = [KeyValueStore() for _ in range(n_stores)]
    heights = [0] * n_stores
    tracker = ConflictTracker()
    while min(heights) < len(blocks):
        index = rng.choice([i for i, height in enumerate(heights) if height < len(blocks)])
        result = validate_block(blocks[heights[index]], stores[index], STRICT)
        tracker.record_block_validation(f"p{index}", result)
        assert result.codes == expected_codes[heights[index]]
        heights[index] += 1

    assert tracker.full_validations == len(blocks)
    assert tracker.replayed_validations == len(blocks) * (n_stores - 1)
    assert tracker.invalidated_transactions == sum(
        1 for codes in expected_codes for code in codes if not code.is_valid
    )
    for store in stores:
        assert contents(store) == contents(expected)
        assert store.writes_applied == expected.writes_applied
