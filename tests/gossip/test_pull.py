"""Unit tests for the original pull component."""

import random

from repro.gossip.messages import (
    PullBlockRequest,
    PullBlockResponse,
    PullDigestRequest,
    PullDigestResponse,
)
from repro.gossip.pull import PullComponent

from tests.conftest import FakeHost, make_chain, make_view


def make_pull(fin=2, t_pull=4.0, window=10, org_size=6):
    host = FakeHost("p0")
    view = make_view("p0", org_size=org_size)
    pull = PullComponent(host, view, fin=fin, t_pull=t_pull, digest_window=window, deliver=host.deliver_block)
    return host, pull


def test_round_contacts_fin_peers():
    host, pull = make_pull(fin=3)
    pull.start()
    host.run(until=4.0)
    digest_requests = [dst for dst, msg in host.sent if isinstance(msg, PullDigestRequest)]
    assert len(digest_requests) == 3
    assert len(set(digest_requests)) == 3


def test_rounds_repeat_with_period():
    host, pull = make_pull(fin=1, t_pull=2.0)
    pull.start()
    host.run(until=8.0)
    assert pull.rounds >= 3


def test_start_phase_randomized_within_period():
    """Different peers' pull rounds are staggered across the period."""
    first_round_times = []

    class Traced(PullComponent):  # the component is slotted: trace by subclass
        def _round(self):
            times.append(self.host.now)
            super()._round()

    for seed in (1, 2, 3, 4, 5):
        host = FakeHost("p0", seed=seed)
        view = make_view("p0", org_size=4)
        pull = Traced(host, view, 1, 4.0, 10, host.deliver_block)
        times = []
        pull.start()
        host.run(until=4.0)
        assert times, "first pull round must happen within one period"
        first_round_times.append(times[0])
    assert len(set(first_round_times)) > 1  # phases differ across seeds


def test_digest_request_answered_with_known_blocks():
    host, pull = make_pull(window=10)
    blocks = make_chain([1, 1])
    for block in blocks:
        host.deliver_block(block, "test")
    pull.on_digest_request("p3", PullDigestRequest())
    responses = host.sent_to("p3")
    assert len(responses) == 1
    assert responses[0].block_numbers == (0, 1)


def test_digest_response_requests_only_missing():
    host, pull = make_pull()
    blocks = make_chain([1, 1, 1])
    host.deliver_block(blocks[0], "test")
    pull._round()  # reset per-round request dedup
    host.sent.clear()
    pull.on_digest_response("p3", PullDigestResponse([0, 1, 2]))
    requests = [msg for dst, msg in host.sent if isinstance(msg, PullBlockRequest)]
    assert len(requests) == 1
    assert requests[0].block_numbers == (1, 2)


def test_digest_response_with_nothing_missing_sends_nothing():
    host, pull = make_pull()
    for block in make_chain([1, 1]):
        host.deliver_block(block, "test")
    host.sent.clear()
    pull.on_digest_response("p3", PullDigestResponse([0, 1]))
    assert host.sent == []


def test_missing_block_requested_from_single_advertiser():
    host, pull = make_pull()
    pull._round()
    host.sent.clear()
    pull.on_digest_response("p3", PullDigestResponse([0]))
    pull.on_digest_response("p4", PullDigestResponse([0]))
    requests = [(dst, msg) for dst, msg in host.sent if isinstance(msg, PullBlockRequest)]
    assert len(requests) == 1
    assert requests[0][0] == "p3"


def test_block_request_served_from_store():
    host, pull = make_pull()
    blocks = make_chain([1, 1])
    for block in blocks:
        host.deliver_block(block, "test")
    host.sent.clear()
    pull.on_block_request("p5", PullBlockRequest([0, 1, 7]))
    responses = host.sent_to("p5")
    assert len(responses) == 1
    assert [b.number for b in responses[0].blocks] == [0, 1]


def test_block_request_for_unknown_blocks_ignored():
    host, pull = make_pull()
    pull.on_block_request("p5", PullBlockRequest([9]))
    assert host.sent == []


def test_block_response_delivers_new_blocks():
    host, pull = make_pull()
    blocks = make_chain([1, 1])
    pull.on_block_response("p3", PullBlockResponse(blocks))
    assert host.deliveries == [(0, "pull"), (1, "pull")]
    assert pull.blocks_obtained == 2


def test_block_response_duplicates_not_counted():
    host, pull = make_pull()
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    pull.on_block_response("p3", PullBlockResponse([block]))
    assert pull.blocks_obtained == 0


def test_old_committed_blocks_not_rerequested():
    """Blocks below the ledger height are already committed; digests for
    them must not trigger requests."""
    host, pull = make_pull()
    host.height = 2
    pull._round()
    host.sent.clear()
    pull.on_digest_response("p3", PullDigestResponse([0, 1]))
    assert host.sent == []


def test_digest_response_filter_equals_the_lookup_first_definition():
    """The predicates were reordered cheapest-first; whatever the host holds,
    has committed or has already requested, the request must list what the
    old order listed."""
    rng = random.Random(11)
    for _ in range(200):
        host, pull = make_pull()
        chain = make_chain([0] * 12)
        host.height = rng.randint(0, 8)
        for block in chain:
            if block.number < host.height or rng.random() < 0.3:
                host.deliver_block(block, "test")
        pull._requested_this_round = {n for n in range(12) if rng.random() < 0.2}
        requested = set(pull._requested_this_round)
        advertised = [rng.randint(0, 13) for _ in range(rng.randint(0, 10))]
        expected = [
            n for n in advertised
            if host.get_block(n) is None and n >= host.ledger_height and n not in requested
        ]
        host.sent.clear()
        pull.on_digest_response("p3", PullDigestResponse(advertised))
        requests = [msg for _, msg in host.sent if isinstance(msg, PullBlockRequest)]
        if expected:
            assert [list(msg.block_numbers) for msg in requests] == [sorted(expected)]
            assert pull._requested_this_round == requested | set(expected)
        else:
            assert requests == []
