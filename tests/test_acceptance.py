"""Acceptance gate: ten system-level criteria, one test (and verdict line) each.

Run with -v for the per-criterion pass/fail lines; -s additionally prints the
measured values behind each verdict.
"""

import random
import struct
import time
from dataclasses import dataclass

import pytest

from loraledger.consensus import (
    COMMITTED,
    FAILED,
    PENDING,
    BatchConfig,
    SoloOrderer,
    consensus_state,
)
from loraledger.crypto import (
    DecryptionError,
    KeyDirectory,
    ROLE_GATEWAY,
    generate_keypair,
    pk_decrypt,
)
from loraledger.frames import DIR_UP, SessionKeys, build_data_frame, encrypt_payload
from loraledger.harness import bootstrap_sessions, build_world, compare_modes, run_experiment
from loraledger.ledger import (
    ChainIntegrityError,
    KIND_NETWORK,
    Ledger,
    SessionContext,
    assemble_block,
    build_merkle,
    dump_chain,
    load_chain,
    make_network_tx,
)
from loraledger.scenario import build_config
from loraledger.simnet import US_PER_S
from test_merkle import merkle_reference

# pinned tolerances and budgets
MERKLE_BUDGET_S = 5.0
TAMPER_TRIALS = 1000
BATCH_TRACES = 1000
SWEEP_DEVICE_COUNTS = (250, 500, 1000)
SWEEP_BUDGET_S = 600.0
BANDWIDTH_REDUCTION_FLOOR_PCT = 35.0
SERVER_WORK_CEILING_PCT = 50.0
THROUGHPUT_TOLERANCE_PCT = 1.0
JOIN_DEVICES = 100
JOIN_CEILING_US = 5 * US_PER_S
SEVERED_TIMEOUT_US = 300 * US_PER_S
FLOOD_FRAME_WORK_CEILING = 4


def report(number: int, text: str) -> None:
    print("ACCEPTANCE %02d PASS: %s" % (number, text))


def scenario(**overrides):
    return build_config(flag_overrides=overrides)


@pytest.fixture(scope="module")
def bandwidth_sweep():
    """Experiment 3 at three scales, both modes each; shared by criteria 5-7."""
    started = time.monotonic()
    results = {
        n: compare_modes(scenario(experiment=3, n_devices=n, n_gateways=5, seed=1))
        for n in SWEEP_DEVICE_COUNTS
    }
    return results, time.monotonic() - started


# ---------------------------------------------------------------------------


def test_criterion_01_merkle_matches_recursive_reference():
    rng = random.Random(2024)
    started = time.monotonic()
    cases = 0
    for r in range(1, 65):
        for _ in range(100):
            leaves = [rng.randbytes(64) for _ in range(r)]
            assert build_merkle(leaves) == merkle_reference(leaves)
            cases += 1
    elapsed = time.monotonic() - started
    assert cases == 6400
    assert elapsed < MERKLE_BUDGET_S
    report(1, "6400/6400 roots equal across leaf counts 1..64 in %.2f s" % elapsed)


def _fifty_block_chain():
    directory = KeyDirectory()
    keypair = generate_keypair("gw0", 9)
    directory.add("gw0", keypair.public_key, ROLE_GATEWAY)
    rng = random.Random(9)
    ledger = Ledger(KIND_NETWORK)
    tip = None
    serial = 0
    for height in range(50):
        txs = []
        for _ in range(2):
            serial += 1
            context = SessionContext(
                dev_eui=struct.pack("<Q", serial),
                app_key=rng.randbytes(16),
                dev_addr=struct.pack("<I", serial),
                nwk_s_key=rng.randbytes(16),
                dev_nonce=rng.randbytes(2),
                app_nonce=rng.randbytes(3),
            )
            txs.append(make_network_tx(directory, keypair, context, height * 1000, rng))
        block = assemble_block(txs, height, height * 1000, tip)
        ledger.append_block(block, directory)
        tip = block
    return ledger, directory


def test_criterion_02_single_byte_tamper_always_detected():
    ledger, directory = _fifty_block_chain()
    dump = dump_chain(ledger, directory)
    reloaded, _ = load_chain(dump)
    assert reloaded.height == 50
    assert sum(len(b.txs) for b in reloaded.blocks) == 100
    assert reloaded.validate_chain(directory)

    rng = random.Random(42)
    detected = 0
    for _ in range(TAMPER_TRIALS):
        corrupted = bytearray(dump)
        corrupted[rng.randrange(len(dump))] ^= rng.randint(1, 255)
        try:
            load_chain(bytes(corrupted))
        except ChainIntegrityError:
            detected += 1
    assert detected == TAMPER_TRIALS
    report(2, "%d/%d corruptions of a 50-block dump rejected" % (detected, TAMPER_TRIALS))


def test_criterion_03_vote_threshold_exhaustive():
    checked = 0
    for n in range(1, 10):
        for p in range(0, 3):
            threshold = 2 * p + 1
            for valid in range(n + 1):
                for invalid in range(n - valid + 1):
                    for unreachable in range(n - valid - invalid + 1):
                        outstanding = n - valid - invalid - unreachable
                        if valid >= threshold:
                            expected = COMMITTED
                        elif valid + outstanding < threshold:
                            expected = FAILED
                        else:
                            expected = PENDING
                        assert consensus_state(n, p, valid, invalid, unreachable) == expected
                        checked += 1
    report(3, "%d vote-count states match the 2p+1 rule for n<=9, p<=2" % checked)


@dataclass(frozen=True)
class StubTx:
    signature: bytes


def test_criterion_04_batch_cutting_contract():
    config = BatchConfig()  # 2000 ms timeout, 200 message cap
    rng = random.Random(123)
    count_cuts = timer_cuts = 0
    for trial in range(BATCH_TRACES):
        orderer = SoloOrderer(config)
        bursty = trial % 3 == 0
        now = 0
        first_arrival = None
        submitted, cut = [], []
        for step in range(rng.randint(1, 400)):
            now += rng.randint(0, 10 if bursty else 300)
            if rng.random() < 0.8:
                tx = StubTx(struct.pack("<IQ", trial, step))
                if orderer.pending_count == 0:
                    first_arrival = now
                submitted.append(tx)
                batch = orderer.submit(tx, now)
                if batch is not None:
                    assert len(batch) == config.max_message_count
                    cut.extend(batch)
                    count_cuts += 1
            else:
                batch = orderer.on_timer(now)
                if batch is not None:
                    assert 0 < len(batch) <= config.max_message_count
                    assert now - first_arrival >= config.batch_timeout_ms
                    cut.extend(batch)
                    timer_cuts += 1
                elif orderer.pending_count:
                    assert now - first_arrival < config.batch_timeout_ms
        leftover = orderer.on_timer(now + config.batch_timeout_ms) or []
        assert cut + leftover == submitted  # nothing lost, duplicated, or reordered
        assert orderer.pending_count == 0
    assert count_cuts > 0 and timer_cuts > 0  # both cut paths were exercised
    report(
        4,
        "%d traces clean (%d count cuts, %d timer cuts)"
        % (BATCH_TRACES, count_cuts, timer_cuts),
    )


def test_criterion_05_bandwidth_reduction_and_scaling(bandwidth_sweep):
    results, elapsed = bandwidth_sweep
    saved = []
    reductions = []
    for n in SWEEP_DEVICE_COUNTS:
        c = results[n].comparison
        assert c["bytes.reduction_pct"] >= BANDWIDTH_REDUCTION_FLOOR_PCT
        reductions.append(c["bytes.reduction_pct"])
        saved.append(c["bytes.saved"])
    assert saved[0] < saved[1] < saved[2]  # absolute savings must grow with the population
    assert elapsed < SWEEP_BUDGET_S
    report(
        5,
        "reduction %.1f/%.1f/%.1f%% at %s devices, saved bytes %s, sweep %.1f s"
        % (*reductions, list(SWEEP_DEVICE_COUNTS), saved, elapsed),
    )


def test_criterion_06_server_offload(bandwidth_sweep):
    results, _ = bandwidth_sweep
    c = results[1000].comparison
    ratio = c["work.servers.edge_over_traditional_pct"]
    assert ratio <= SERVER_WORK_CEILING_PCT
    report(
        6,
        "edge servers did %.1f%% of traditional server work (%d vs %d units)"
        % (ratio, c["work.servers.edge"], c["work.servers.traditional"]),
    )


def test_criterion_07_cross_mode_throughput_equality(bandwidth_sweep):
    results, _ = bandwidth_sweep
    deltas = []
    for n in SWEEP_DEVICE_COUNTS:
        c = results[n].comparison
        assert c["app_payloads.multisets_equal"] is True
        assert abs(c["uplink.throughput_delta_pct"]) <= THROUGHPUT_TOLERANCE_PCT
        deltas.append(c["uplink.throughput_delta_pct"])
    report(
        7,
        "payload multisets identical at all scales; throughput deltas %s%%"
        % ["%.3f" % d for d in deltas],
    )


def test_criterion_08_join_completion_and_severed_failure():
    clean = run_experiment(scenario(experiment=1, n_devices=JOIN_DEVICES, seed=5))
    joins = clean.world.recorder.by_kind("join")
    assert len(joins) >= JOIN_DEVICES
    assert all(r.status == "completed" for r in joins)
    assert all(r.latency_us <= JOIN_CEILING_US for r in joins)
    assert clean.summary["join.within_5s_fraction"] == 1.0
    assert clean.summary["ledger.heights_equal"] is True
    # each accepted join put exactly one fresh session context on chain
    assert clean.summary["ledger.network.txs"] == len(joins)

    severed = run_experiment(
        scenario(experiment=1, n_devices=JOIN_DEVICES, seed=5, severed_gateways=(1,))
    )
    affected = {
        d.device_id for d in severed.world.devices if d.index % 4 == 1
    }
    records = severed.world.recorder.by_kind("join")
    failed = [r for r in records if r.status == "failed"]
    completed = [r for r in records if r.status == "completed"]
    assert failed
    assert {r.device for r in failed} <= affected
    assert all(r.latency_us == SEVERED_TIMEOUT_US for r in failed)
    assert {r.device for r in completed} == {
        d.device_id for d in severed.world.devices if d.device_id not in affected
    }
    assert all(r.latency_us <= JOIN_CEILING_US for r in completed)
    report(
        8,
        "%d/%d joins within 5 s; severed gateway: %d failures, all at exactly 300 s"
        % (len(joins), len(joins), len(failed)),
    )


def test_criterion_09_same_seed_byte_identical_outputs(tmp_path):
    cases = [
        dict(experiment=1, n_devices=20, seed=6, duration_s=1800),
        dict(experiment=2, n_devices=8, seed=6, duration_s=90, warmup_s=0),
        dict(experiment=3, n_devices=8, seed=6, duration_s=90, warmup_s=0),
    ]
    for k, overrides in enumerate(cases):
        first = run_experiment(scenario(**overrides))
        second = run_experiment(scenario(**overrides))
        dir_a, dir_b = tmp_path / ("a%d" % k), tmp_path / ("b%d" % k)
        first.emit(str(dir_a))
        second.emit(str(dir_b))
        for name in ("requests.csv", "links.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    report(9, "requests.csv and links.csv byte-identical on reruns of all 3 experiments")


def test_criterion_10_security_suite():
    # (a) a MIC-invalid flood never produces a single server-side event
    flood_world = build_world(scenario(experiment=2, n_devices=4, seed=8, duration_s=60))
    bootstrap_sessions(flood_world)
    device = flood_world.devices[0]
    session = device.session
    engine = flood_world.engine
    rng = random.Random(8)
    flood = 0
    for i in range(120):  # well-formed frames with corrupted integrity tags
        ct = encrypt_payload(session.keys, 1000 + i, DIR_UP, b"\xaa" * 20)
        frame = build_data_frame(session.keys, 1000 + i, 1, ct, DIR_UP)
        raw = bytearray(frame)
        raw[-1] ^= 0xFF
        engine.send(device.uplink, bytes(raw), len(raw))
        flood += 1
    for i in range(80):  # frames under addresses nobody vouches for
        addr = b"\xff" + struct.pack("<I", i)[:3]
        keys = SessionKeys(addr, rng.randbytes(16))
        raw = build_data_frame(keys, i, 1, rng.randbytes(20), DIR_UP)
        engine.send(device.uplink, raw, len(raw))
        flood += 1
    engine.run_until(engine.now_us + 2 * US_PER_S)
    gw0 = flood_world.gateways[0]
    assert gw0.filtered_frames == flood
    assert gw0.work_units == 120 * 4 + 80 * 2
    assert gw0.work_units <= flood * FLOOD_FRAME_WORK_CEILING
    for link in engine.links.values():
        if link.dst.startswith("srv"):
            assert link.offered_msgs == 0
    assert all(srv.work_units == 0 for srv in flood_world.servers)
    assert all(srv.ingested == 0 for srv in flood_world.servers)

    # (b) a malicious server replica sees only sealed session contexts
    join_world = build_world(scenario(experiment=1, n_devices=4, seed=8))
    for dev in join_world.devices:
        dev.begin_join()
    join_world.engine.run_until(6 * US_PER_S)
    owners = {gw.entity_id: gw.keypair for gw in join_world.gateways}
    rogue = join_world.servers[1]
    ledger = rogue.ledgers[KIND_NETWORK]
    assert len(ledger.world_state) == 4
    for dev_addr, tx in ledger.world_state.items():
        for srv in join_world.servers:
            with pytest.raises(DecryptionError):
                pk_decrypt(srv.keypair.private_key, tx.payload)
        opened = SessionContext.from_bytes(pk_decrypt(owners[tx.requester].private_key, tx.payload))
        assert opened.dev_addr == dev_addr

    # (c) a replica that lost its chain re-syncs to a validating, equal copy
    source = join_world.servers[0].ledgers[KIND_NETWORK]
    replacement = Ledger(KIND_NETWORK)
    replacement.sync_from(source, join_world.key_directory)
    assert replacement.height == source.height == 1
    assert replacement.validate_chain(join_world.key_directory)
    directory = join_world.key_directory
    assert dump_chain(replacement, directory) == dump_chain(source, directory)
    assert set(replacement.world_state) == set(source.world_state)

    report(
        10,
        "flood of %d frames caused zero server events; contexts sealed to owners; "
        "re-synced chain validates and matches" % flood,
    )
