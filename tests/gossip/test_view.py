"""Unit tests for the organization membership view."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gossip.view import OrganizationView, build_views
from repro.simulation.random import sample_skipping, sample_without


def make_view(self_name="p1", size=5, leader="p0"):
    peers = [f"p{i}" for i in range(size)]
    return OrganizationView(self_name, peers, peers + ["q0", "q1"], leader)


def test_org_others_excludes_self():
    view = make_view("p1")
    assert "p1" not in view.org_others
    assert len(view.org_others) == 4


def test_org_size_includes_self():
    assert make_view().org_size == 5


def test_leader_flag():
    assert make_view("p0").is_leader
    assert not make_view("p1").is_leader


def test_channel_others_includes_other_orgs():
    view = make_view("p1")
    assert "q0" in view.channel_others
    assert "p1" not in view.channel_others


def test_self_must_be_in_org():
    with pytest.raises(ValueError):
        OrganizationView("stranger", ["p0"], ["p0"], "p0")


def test_leader_must_be_in_org():
    with pytest.raises(ValueError):
        OrganizationView("p0", ["p0"], ["p0"], "q9")


def test_sample_org_never_returns_self():
    view = make_view("p1")
    rng = random.Random(1)
    for _ in range(100):
        sample = view.sample_org(rng, 3)
        assert "p1" not in sample
        assert len(sample) == 3
        assert len(set(sample)) == 3


def test_sample_org_respects_exclusions():
    """Leaving the view is how a peer is excluded from the draw."""
    view = make_view("p1")
    view.discard_member("p2")
    rng = random.Random(1)
    for _ in range(50):
        assert "p2" not in view.sample_org(rng, 2)


def test_sample_org_clamps_to_population():
    view = make_view("p1", size=3)
    rng = random.Random(1)
    assert sorted(view.sample_org(rng, 10)) == ["p0", "p2"]


def test_sample_channel_spans_orgs():
    view = make_view("p1")
    rng = random.Random(1)
    seen = set()
    for _ in range(200):
        seen.update(view.sample_channel(rng, 2))
    assert "q0" in seen and "q1" in seen


def test_views_are_immutable_copies():
    view = make_view("p1")
    view.org_others.append("intruder")
    assert "intruder" not in view.org_others


def test_build_views_multi_org():
    views = build_views(
        {"org0": ["a", "b"], "org1": ["c", "d", "e"]},
        {"org0": "a", "org1": "c"},
    )
    assert set(views) == {"a", "b", "c", "d", "e"}
    assert views["b"].leader == "a"
    assert views["d"].org_size == 3
    assert len(views["a"].channel_others) == 4
    assert views["c"].is_leader


def test_duplicate_members_are_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        OrganizationView("p0", ["p0", "p1", "p0"], ["p0", "p1"], "p0")


# ----- one shared array, many views ------------------------------------------


def test_build_views_share_one_array_per_organization():
    views = build_views(
        {"org0": ["a", "b"], "org1": ["c", "d", "e"]},
        {"org0": "a", "org1": "c"},
    )
    assert views["a"].org_members is views["b"].org_members
    assert views["c"].org_members is views["e"].org_members
    assert views["a"].org_members is not views["c"].org_members
    assert views["d"].org_others == ["c", "e"]
    assert views["d"].channel_others == ["a", "b", "c", "e"]


def test_mutating_one_view_never_changes_anothers_candidates():
    members = [f"p{i}" for i in range(30)]
    views = build_views({"org": members}, {"org": "p0"})
    untouched, control = views["p3"], OrganizationView("p3", members, members, "p0")
    views["p1"].discard_member("p7")
    views["p2"].add_member("late", same_org=True)
    assert views["p1"].org_others == [m for m in members if m not in ("p1", "p7")]
    assert views["p2"].org_others == [m for m in members if m != "p2"] + ["late"]
    assert untouched.org_others == control.org_others
    assert untouched.channel_others == control.channel_others
    a, b = random.Random(5), random.Random(5)
    for _ in range(20):
        assert untouched.sample_org(a, 4) == control.sample_org(b, 4)
        assert untouched.sample_channel(a, 3) == control.sample_channel(b, 3)


def test_discarding_the_owner_is_a_no_op():
    view = make_view("p1")
    view.discard_member("p1")
    assert view.org_size == 5
    assert view.org_others == ["p0", "p2", "p3", "p4"]


def reference_draw(rng, others, k):
    """The draw contract, from the standard library alone: a shuffle of
    all candidates when k covers them, else ``rng.sample``."""
    if k >= len(others):
        shuffled = list(others)
        rng.shuffle(shuffled)
        return shuffled
    return rng.sample(others, k)


@given(
    n=st.integers(min_value=2, max_value=60),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_skipping_sampler_draws_like_the_materialised_others(n, data, seed):
    """Shuffle (k >= n-1), pool (n-1 <= setsize) and selection-set branches,
    skip at the first / a middle / the last index: same targets as sampling
    the private "everyone but me" list, and the RNG left in the same state."""
    k = data.draw(st.integers(min_value=1, max_value=n + 2))
    skip = data.draw(st.sampled_from(sorted({0, n // 2, n - 1})))
    members = tuple(f"p{i}" for i in range(n))
    others = [m for at, m in enumerate(members) if at != skip]
    ours, listed, stdlib = (random.Random(seed) for _ in range(3))
    for _ in range(3):
        drawn = sample_skipping(members, skip, ours, k)
        assert drawn == sample_without(listed, others, k)
        assert drawn == reference_draw(stdlib, others, k)
        assert members[skip] not in drawn
    assert ours.getstate() == listed.getstate() == stdlib.getstate()


@given(
    n=st.integers(min_value=2, max_value=30),
    own=st.integers(min_value=0, max_value=29),
    edits=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=39), st.booleans()),
        max_size=25,
    ),
    k=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_view_after_churn_samples_like_private_lists(n, own, edits, k, seed):
    """Any add/discard sequence leaves the view equal to the plain-list
    model of it (append when absent, remove when present)."""
    own %= n
    org = [f"p{i}" for i in range(n)]
    channel = org + ["q0", "q1"]
    view = OrganizationView(org[own], org, channel, "p0")
    org_others = [m for m in org if m != org[own]]
    channel_others = [m for m in channel if m != org[own]]
    for add, index, same_org in edits:
        name = f"p{index}"  # p30..p39 are newcomers
        if add:
            view.add_member(name, same_org)
            if name != org[own]:
                if same_org and name not in org_others:
                    org_others.append(name)
                if name not in channel_others:
                    channel_others.append(name)
        else:
            view.discard_member(name)
            for model in (org_others, channel_others):
                if name in model:
                    model.remove(name)
    assert view.org_others == org_others
    assert view.channel_others == channel_others
    assert view.org_size == len(org_others) + 1
    ours, listed = random.Random(seed), random.Random(seed)
    assert view.sample_org(ours, k) == sample_without(listed, org_others, k)
    assert view.sample_channel(ours, k) == sample_without(listed, channel_others, k)
    assert ours.getstate() == listed.getstate()
