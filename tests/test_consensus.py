"""Ordering and commit rules: batch cutting and threshold voting."""

import itertools
import random

import pytest

from loraledger.consensus import (
    BatchConfig,
    COMMITTED,
    FAILED,
    PENDING,
    SoloOrderer,
    VoteRejectedError,
    VoteRound,
    consensus_state,
    make_vote,
    vote_message,
)
from loraledger.crypto import KeyDirectory, ROLE_SERVER, generate_keypair


class FakeTx:
    """Only the digest matters to the orderer."""

    def __init__(self, n: int):
        self.signature = b"sig%059d" % n  # unique 64-ish byte tag


def orderer(timeout_ms=2000, max_count=200) -> SoloOrderer:
    return SoloOrderer(BatchConfig(batch_timeout_ms=timeout_ms, max_message_count=max_count))


# -- batch cutting --


def test_batch_cut_at_max_count():
    o = orderer(max_count=5)
    for n in range(4):
        assert o.submit(FakeTx(n), now_ms=0) is None
    batch = o.submit(FakeTx(4), now_ms=0)
    assert batch is not None and len(batch) == 5
    assert o.pending_count == 0 and o.deadline_ms is None


def test_batch_cut_by_timer_exactly_at_timeout():
    """Three arrivals, timer fires at start + timeout: batch of three."""
    o = orderer(timeout_ms=2000)
    assert o.submit(FakeTx(0), now_ms=100) is None
    assert o.submit(FakeTx(1), now_ms=600) is None
    assert o.submit(FakeTx(2), now_ms=1500) is None
    assert o.deadline_ms == 2100
    assert o.on_timer(now_ms=2099) is None
    batch = o.on_timer(now_ms=2100)
    assert batch is not None and len(batch) == 3


def test_timeout_counts_from_first_of_batch():
    """Later arrivals do not extend the deadline."""
    o = orderer(timeout_ms=2000)
    o.submit(FakeTx(0), now_ms=0)
    o.submit(FakeTx(1), now_ms=1999)
    assert o.deadline_ms == 2000
    assert len(o.on_timer(now_ms=2000)) == 2


def test_empty_batch_never_cut():
    o = orderer()
    assert o.on_timer(now_ms=10_000_000) is None
    assert o.deadline_ms is None


def test_duplicate_digest_rejected_within_batch():
    """A digest already queued is ignored: it neither raises nor joins the batch."""
    o = orderer()
    tx = FakeTx(7)
    o.submit(tx, now_ms=0)
    assert o.submit(tx, now_ms=1) is None
    assert o.pending_count == 1
    # after the batch cuts, the digest may legitimately appear again
    o.on_timer(now_ms=5000)
    assert o.submit(tx, now_ms=6000) is None


def test_new_batch_after_cut_restarts_clock():
    o = orderer(timeout_ms=1000)
    o.submit(FakeTx(0), now_ms=0)
    assert len(o.on_timer(1000)) == 1
    o.submit(FakeTx(1), now_ms=5000)
    assert o.on_timer(5999) is None
    assert len(o.on_timer(6000)) == 1


def test_randomized_batch_trace_against_oracle():
    """Replay random submit/timer traces against a straightforward oracle."""
    rng = random.Random(42)
    for _ in range(1000):
        timeout = rng.randint(1, 50)
        max_count = rng.randint(1, 8)
        o = orderer(timeout_ms=timeout, max_count=max_count)
        pending = []  # oracle state: list of (arrival time)
        start = None
        now = 0
        n = 0
        for _step in range(rng.randint(1, 40)):
            now += rng.randint(0, 30)
            if rng.random() < 0.6:
                n += 1
                got = o.submit(FakeTx(n), now_ms=now)
                if start is None:
                    start = now
                pending.append(n)
                if len(pending) == max_count:
                    expect = pending
                    pending, start = [], None
                else:
                    expect = None
            else:
                got = o.on_timer(now_ms=now)
                if pending and now - start >= timeout:
                    expect = pending
                    pending, start = [], None
                else:
                    expect = None
            if expect is None:
                assert got is None
            else:
                assert got is not None and len(got) == len(expect)


# -- tri-state commit rule --


def oracle_state(n: int, p: int, valid: int, invalid: int, unreachable: int) -> str:
    """Brute force: enumerate every way the outstanding votes could land."""
    threshold = 2 * p + 1
    if valid >= threshold:
        return COMMITTED
    outstanding = n - valid - invalid - unreachable
    reachable = False
    for future_valid in range(outstanding + 1):
        if valid + future_valid >= threshold:
            reachable = True
    return PENDING if reachable else FAILED


def test_consensus_state_exhaustive_against_oracle():
    for n in range(1, 10):
        for p in range(0, 3):
            for valid, invalid, unreachable in itertools.product(range(n + 1), repeat=3):
                if valid + invalid + unreachable > n:
                    continue
                assert consensus_state(n, p, valid, invalid, unreachable) == oracle_state(
                    n, p, valid, invalid, unreachable
                ), (n, p, valid, invalid, unreachable)


def test_consensus_state_specific_points():
    # 4 voters, p=1, threshold 3
    assert consensus_state(4, 1, 3, 0, 0) == COMMITTED
    assert consensus_state(4, 1, 2, 1, 0) == PENDING
    assert consensus_state(4, 1, 2, 2, 0) == FAILED
    assert consensus_state(4, 1, 2, 0, 2) == FAILED
    assert consensus_state(4, 1, 0, 0, 0) == PENDING
    # solo-ish: 1 voter, p=0, threshold 1
    assert consensus_state(1, 0, 1, 0, 0) == COMMITTED
    assert consensus_state(1, 0, 0, 1, 0) == FAILED


def test_consensus_state_input_validation():
    with pytest.raises(ValueError):
        consensus_state(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        consensus_state(3, -1, 0, 0, 0)
    with pytest.raises(ValueError):
        consensus_state(3, 0, 2, 2, 0)


# -- signed vote rounds --


@pytest.fixture
def voters():
    directory = KeyDirectory()
    keypairs = {}
    for n in range(4):
        entity_id = "srv%d" % n
        kp = generate_keypair(entity_id, 21)
        keypairs[entity_id] = kp
        directory.add(entity_id, kp.public_key, ROLE_SERVER)
    return directory, keypairs


def test_vote_message_layout():
    digest = bytes(range(32))
    assert vote_message(digest, True) == b"vote\x00" + digest + b"\x01"
    assert vote_message(digest, False) == b"vote\x00" + digest + b"\x00"


def test_vote_round_commits_at_threshold(voters):
    directory, keypairs = voters
    digest = bytes(32)
    r = VoteRound(digest, ("srv0", "srv1", "srv2", "srv3"), 1, directory)
    for n, entity_id in enumerate(("srv0", "srv1", "srv2")):
        assert r.check() == PENDING
        r.collect_vote(entity_id, True, make_vote(directory, keypairs[entity_id], digest, True))
    assert r.valid_count == 3
    assert r.check() == COMMITTED


def test_vote_round_fails_when_threshold_unreachable(voters):
    directory, keypairs = voters
    digest = bytes(32)
    r = VoteRound(digest, ("srv0", "srv1", "srv2", "srv3"), 1, directory)
    r.collect_vote("srv0", False, make_vote(directory, keypairs["srv0"], digest, False))
    assert r.check() == PENDING
    r.collect_vote("srv1", False, make_vote(directory, keypairs["srv1"], digest, False))
    assert r.check() == FAILED


def test_vote_round_unreachable_counts_against_quorum(voters):
    directory, keypairs = voters
    digest = bytes(32)
    r = VoteRound(digest, ("srv0", "srv1", "srv2", "srv3"), 1, directory)
    r.collect_vote("srv0", True, make_vote(directory, keypairs["srv0"], digest, True))
    r.mark_unreachable("srv1")
    assert r.check() == PENDING
    r.mark_unreachable("srv2")
    assert r.check() == FAILED


def test_vote_round_rejects_outsiders_and_bad_signatures(voters):
    directory, keypairs = voters
    digest = bytes(32)
    r = VoteRound(digest, ("srv0", "srv1"), 0, directory)
    with pytest.raises(VoteRejectedError):
        r.collect_vote("srv3", True, make_vote(directory, keypairs["srv3"], digest, True))
    # a verdict flipped after signing must not verify
    sig = make_vote(directory, keypairs["srv0"], digest, False)
    with pytest.raises(VoteRejectedError):
        r.collect_vote("srv0", True, sig)
    assert r.check() == PENDING


def test_vote_round_ignores_revotes(voters):
    directory, keypairs = voters
    digest = bytes(32)
    r = VoteRound(digest, ("srv0", "srv1", "srv2"), 1, directory)
    r.collect_vote("srv0", True, make_vote(directory, keypairs["srv0"], digest, True))
    r.collect_vote("srv0", False, make_vote(directory, keypairs["srv0"], digest, False))
    assert r.valid_count == 1  # first vote stands


def test_vote_round_rejects_duplicate_voters(voters):
    directory, _ = voters
    with pytest.raises(ValueError):
        VoteRound(bytes(32), ("srv0", "srv0"), 0, directory)
