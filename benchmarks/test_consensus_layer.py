"""Micro-benchmarks of consensus and the event loop (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.  A vote round has 4 voters and p = 1, as
the PBFT workload does; each round gets a fresh key directory, so every vote
signature is verified, as on the proposer, which checks each vote once.
"""

from loraledger.consensus import COMMITTED, VoteRound, make_vote
from loraledger.crypto import KeyDirectory, ROLE_SERVER, generate_keypair, hash_bytes
from loraledger.simnet import Engine

VOTERS = tuple("srv%d" % n for n in range(4))
KEYPAIRS = [generate_keypair(voter, 1) for voter in VOTERS]
DIGEST = hash_bytes(b"block")
VOTES = [(kp.entity_id, make_vote(kp, DIGEST, True)) for kp in KEYPAIRS]
N_EVENTS = 10_000


def _fresh_round():
    directory = KeyDirectory()
    for kp in KEYPAIRS:
        directory.add(kp.entity_id, kp.public_key, ROLE_SERVER)
    return (VoteRound(DIGEST, VOTERS, 1, directory),), {}


def test_vote_round_collect_and_check(benchmark):
    def collect_and_check(vote_round):
        for voter, signature in VOTES:
            vote_round.collect_vote(voter, True, signature)
        return vote_round.check()

    assert benchmark.pedantic(collect_and_check, setup=_fresh_round, rounds=50) == COMMITTED


def _fresh_engine():
    engine = Engine(1)
    engine.register("sink", lambda payload: None)
    return (engine,), {}


def test_engine_schedule_and_run(benchmark):
    def schedule_and_run(engine):
        for n in range(N_EVENTS):
            engine.schedule(n, "sink", None)
        engine.run_until(N_EVENTS)
        return engine

    engine = benchmark.pedantic(schedule_and_run, setup=_fresh_engine, rounds=20)
    assert engine.events_processed == N_EVENTS
    assert engine.now_us == N_EVENTS
