"""Micro-benchmarks of consensus and the event loop (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.  A vote round has 4 voters and p = 1, as
the PBFT workload does; each round gets a fresh key directory, so every vote
signature is verified, as on the proposer, which checks each vote once.
The PBFT round runs the same quorum through the nodes: proposal, votes and
commit notices over the simulated backhaul, one transaction per block.  The
announced block holds 67 transactions, the average block of the mixed-trust
workload; its size comes from field lengths, without serializing the block.
"""

from loraledger.consensus import COMMITTED, BlockAnnounce, VoteRound, make_vote
from loraledger.crypto import KeyDirectory, ROLE_SERVER, generate_keypair, hash_bytes
from loraledger.harness import build_world
from loraledger.ledger import KIND_APPLICATION, assemble_block, make_app_tx
from loraledger.scenario import build_config
from loraledger.simnet import US_PER_S, Engine

VOTERS = tuple("srv%d" % n for n in range(4))
KEYPAIRS = [generate_keypair(voter, 1) for voter in VOTERS]
DIGEST = hash_bytes(b"block")
# signed outside the rounds' directories, so no verdict is known before a round
VOTES = [(kp.entity_id, make_vote(KeyDirectory(), kp, DIGEST, True)) for kp in KEYPAIRS]
N_EVENTS = 10_000
PBFT_ROUNDS = 20
ANNOUNCE = BlockAnnounce(
    channel=KIND_APPLICATION,
    block=assemble_block(
        [make_app_tx(KeyDirectory(), KEYPAIRS[0], bytes(20), n) for n in range(67)], 0, 1, None
    ),
)


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


def test_block_announce_wire_size(benchmark):
    assert benchmark(ANNOUNCE.wire_size) == 1 + 1 + 4 + len(ANNOUNCE.block.to_bytes())


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


def _pbft_world():
    config = build_config(
        flag_overrides=dict(
            mode="traditional",
            n_servers=4,
            consensus_mode="pbft",
            consensus_p=1,
            max_message_count=1,
        )
    )
    world = build_world(config)
    host = world.servers[0]
    txs = [
        make_app_tx(world.key_directory, host.keypair, b"reading %d" % n, n)
        for n in range(PBFT_ROUNDS)
    ]
    return (world, txs), {}


def test_pbft_round_across_four_replicas(benchmark):
    def propose_and_commit(world, txs):
        for tx in txs:
            world.servers[0].submit_tx(KIND_APPLICATION, tx)
            world.engine.run_until(world.engine.now_us + US_PER_S)
        return world

    world = benchmark.pedantic(propose_and_commit, setup=_pbft_world, rounds=10)
    assert [srv.ledgers[KIND_APPLICATION].height for srv in world.servers] == [PBFT_ROUNDS] * 4
    assert world.servers[0].failed_rounds == 0
