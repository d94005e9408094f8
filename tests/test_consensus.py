"""Ordering and commit rules: batch cutting, threshold voting, and bare replicas."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger.consensus import (
    BatchConfig,
    BlockAnnounce,
    BlockProposal,
    COMMITTED,
    CommitNotice,
    ConsensusConfig,
    FAILED,
    PENDING,
    Replica,
    SoloOrderer,
    VoteRejectedError,
    VoteRound,
    consensus_state,
    make_vote,
    vote_message,
)
from loraledger.crypto import KeyDirectory, ROLE_SERVER, generate_keypair
from loraledger.ledger import KIND_APPLICATION, assemble_block, block_hash, make_app_tx


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


def four_servers():
    directory = KeyDirectory()
    keypairs = {}
    for n in range(4):
        entity_id = "srv%d" % n
        kp = generate_keypair(entity_id, 21)
        keypairs[entity_id] = kp
        directory.add(entity_id, kp.public_key, ROLE_SERVER)
    return directory, keypairs


@pytest.fixture
def voters():
    return four_servers()


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


# -- replicas without an engine --


class BareReplica(Replica):
    """Sends go to one shared pending list; timers are only recorded."""

    def __init__(self, entity_id, keypair, directory, consensus, net):
        super().__init__(entity_id, keypair, directory, consensus)
        self.net = net
        self.ticks = []  # (at_ms, tick), in the order they were set

    now_ms = property(lambda self: self.net["now_ms"])

    def _send(self, peer, message):
        self.net["pending"].append((peer, message))

    def _to_peers(self, channel, message):
        self.net["pending"].extend((peer, message) for peer in channel.peers)

    def _set_timer(self, at_ms, tick):
        self.ticks.append((at_ms, tick))


def deliver(replica, message):
    Replica._HANDLERS[type(message)](replica, message)


@pytest.mark.parametrize("mode, p", [("pbft", 1), ("solo", 0)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_replicas_agree_on_a_prefix_under_any_delivery_order(mode, p, data):
    """Four replicas, drawn submits, deliveries and clock steps, then a drain: no
    replica's chain forks from the longest, and no transaction is on it twice."""
    directory, keypairs = four_servers()
    ids = sorted(keypairs)
    consensus = ConsensusConfig(
        mode=mode,
        p=p,
        batch=BatchConfig(1000, data.draw(st.integers(1, 4), label="max_message_count")),
        orderer_hosts={KIND_APPLICATION: ids[0]},
        maintainers={KIND_APPLICATION: tuple(ids)},
    )
    net = {"now_ms": 0, "pending": []}
    replicas = {e: BareReplica(e, keypairs[e], directory, consensus, net) for e in ids}

    def deliver_one():
        index = data.draw(st.integers(0, len(net["pending"]) - 1), label="deliver")
        peer, message = net["pending"].pop(index)
        deliver(replicas[peer], message)

    def advance(ms):
        net["now_ms"] += ms
        for replica in replicas.values():
            due = [tick for at_ms, tick in replica.ticks if at_ms <= net["now_ms"]]
            replica.ticks = [t for t in replica.ticks if t[0] > net["now_ms"]]
            for tick in due:
                deliver(replica, tick)

    for n in range(data.draw(st.integers(1, 40), label="steps")):
        step = data.draw(st.sampled_from(["submit", "deliver", "clock"]))
        if step == "submit":
            replica = replicas[data.draw(st.sampled_from(ids), label="submitter")]
            # a distinct payload, so no transaction is submitted twice
            tx = make_app_tx(directory, replica.keypair, b"tx%d" % n, net["now_ms"])
            replica.submit_tx(KIND_APPLICATION, tx)
        elif step == "deliver" and net["pending"]:
            deliver_one()
        elif step == "clock":
            advance(data.draw(st.integers(0, 1500), label="ms"))
    while net["pending"] or any(replica.ticks for replica in replicas.values()):
        while net["pending"]:
            deliver_one()
        advance(1000)
    chains = [replica.ledgers[KIND_APPLICATION].blocks for replica in replicas.values()]
    longest = max(chains, key=len)
    for chain in chains:
        assert chain == longest[: len(chain)]
    signatures = [tx.signature for block in longest for tx in block.txs]
    assert len(signatures) == len(set(signatures))


def test_only_the_orderer_host_may_propose():
    """A block proposed by a maintainer that does not order the channel, then a
    commit notice naming it, cannot fork its receiver off the committed chain."""
    directory, keypairs = four_servers()
    ids = sorted(keypairs)
    consensus = ConsensusConfig(
        mode="pbft",
        p=1,
        batch=BatchConfig(1000, 2),
        orderer_hosts={KIND_APPLICATION: "srv0"},
        maintainers={KIND_APPLICATION: tuple(ids)},
    )
    net = {"now_ms": 0, "pending": []}
    replicas = {e: BareReplica(e, keypairs[e], directory, consensus, net) for e in ids}
    rogue = make_app_tx(directory, keypairs["srv2"], b"rogue", 0)
    block = assemble_block([rogue], 0, 0, None)
    deliver(replicas["srv1"], BlockProposal(KIND_APPLICATION, "srv2", block))
    deliver(replicas["srv1"], CommitNotice(KIND_APPLICATION, block_hash(block)))
    for n in range(2):
        tx = make_app_tx(directory, keypairs["srv0"], b"tx%d" % n, 0)
        replicas["srv0"].submit_tx(KIND_APPLICATION, tx)
    while net["pending"]:
        peer, message = net["pending"].pop(0)
        deliver(replicas[peer], message)
    chains = {e: replica.ledgers[KIND_APPLICATION].blocks for e, replica in replicas.items()}
    assert len(chains["srv0"]) == 1
    assert all(chain == chains["srv0"] for chain in chains.values())
    assert replicas["srv1"].invalid_blocks == 1


def test_a_pbft_replica_commits_no_announced_block():
    """Under PBFT a block commits only through a vote, so an announce, here of a
    block that a maintainer other than the orderer host signed, is counted
    invalid and cannot fork its receiver off the voted chain."""
    directory, keypairs = four_servers()
    ids = sorted(keypairs)
    consensus = ConsensusConfig(
        mode="pbft",
        p=1,
        batch=BatchConfig(1000, 1),
        orderer_hosts={KIND_APPLICATION: "srv0"},
        maintainers={KIND_APPLICATION: tuple(ids)},
    )
    net = {"now_ms": 0, "pending": []}
    replicas = {e: BareReplica(e, keypairs[e], directory, consensus, net) for e in ids}
    rogue = assemble_block([make_app_tx(directory, keypairs["srv3"], b"rogue", 0)], 0, 0, None)
    deliver(replicas["srv1"], BlockAnnounce(KIND_APPLICATION, rogue))
    tx = make_app_tx(directory, keypairs["srv0"], b"tx", 0)
    replicas["srv0"].submit_tx(KIND_APPLICATION, tx)
    while net["pending"]:
        peer, message = net["pending"].pop(0)
        deliver(replicas[peer], message)
    for replica in replicas.values():
        (block,) = replica.ledgers[KIND_APPLICATION].blocks
        assert block.zeta == 0 and block.txs == (tx,)
    assert [replica.invalid_blocks for replica in replicas.values()] == [0, 1, 0, 0]
