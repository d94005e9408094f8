"""Chain layer: transactions, blocks, world state, dumps, tamper detection."""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger.crypto import (
    KeyDirectory,
    ROLE_GATEWAY,
    ROLE_SERVER,
    envelope_aad,
    generate_keypair,
    hash_bytes,
    pk_decrypt,
    pk_encrypt,
    sign,
)
from loraledger.cli import main
from loraledger.ledger import (
    DUMP_MAGIC,
    DUMP_VERSION,
    Block,
    ChainIntegrityError,
    GENESIS_PREV_HASH,
    InvalidBlockError,
    KIND_APPLICATION,
    KIND_NETWORK,
    Ledger,
    SESSION_CONTEXT_LEN,
    SessionContext,
    Transaction,
    assemble_block,
    block_from_bytes,
    block_hash,
    dump_chain,
    load_chain,
    make_app_tx,
    make_network_tx,
    transaction_from_bytes,
    validate_block,
    validate_body,
)


# signs for the tests below but registers no one, so it records no verdict
# and every check of these signatures runs a real verify
SIGNER = KeyDirectory()


@pytest.fixture
def directory():
    d = KeyDirectory()
    for entity_id, role in (("gw0", ROLE_GATEWAY), ("gw1", ROLE_GATEWAY), ("srv0", ROLE_SERVER)):
        d.add(entity_id, generate_keypair(entity_id, 11).public_key, role)
    return d


def keypair(entity_id):
    return generate_keypair(entity_id, 11)


def make_context(n: int, prefix: int = 0) -> SessionContext:
    return SessionContext(
        dev_eui=struct.pack("<Q", n + 1),
        app_key=bytes([n % 256]) * 16,
        dev_addr=bytes([prefix]) + struct.pack("<I", n + 1)[:3],
        nwk_s_key=bytes([(n + 1) % 256]) * 16,
        dev_nonce=struct.pack("<H", n),
        app_nonce=struct.pack("<I", n)[:3],
    )


def network_tx(entity_id: str, n: int, t_ms: int = 1000, seed: int = 0) -> Transaction:
    kp = keypair(entity_id)
    return make_network_tx(SIGNER, kp, make_context(n), t_ms, random.Random(seed + n))


def test_session_context_roundtrip():
    ctx = make_context(5)
    data = ctx.to_bytes()
    assert len(data) == SESSION_CONTEXT_LEN == 49
    assert SessionContext.from_bytes(data) == ctx


def test_network_tx_shape_and_verify(directory):
    tx = network_tx("gw0", 1)
    assert tx.requester == "gw0"
    assert len(tx.signature) == 64
    assert tx.timestamp_ms == 1000
    assert directory.verify("gw0", tx.signed_span(), tx.signature)
    assert not directory.verify("gw1", tx.signed_span(), tx.signature)


def test_network_tx_aad_is_addr_and_eui():
    """Replicas key world state off the clear AAD; owner decrypts the rest."""
    ctx = make_context(3)
    kp = keypair("gw0")
    tx = make_network_tx(SIGNER, kp, ctx, 5, random.Random(0))
    assert envelope_aad(tx.payload) == ctx.dev_addr + ctx.dev_eui
    assert SessionContext.from_bytes(pk_decrypt(kp.private_key, tx.payload)) == ctx


def test_network_tx_context_opaque_to_others():
    from loraledger.crypto import DecryptionError

    tx = make_network_tx(SIGNER, keypair("gw0"), make_context(3), 5, random.Random(0))
    with pytest.raises(DecryptionError):
        pk_decrypt(keypair("gw1").private_key, tx.payload)


def test_app_tx_payload_passthrough(directory):
    payload = bytes.fromhex("c02c3109228e9072b303fb82a542945abc0fa21b")
    tx = make_app_tx(SIGNER, keypair("srv0"), payload, 77)
    assert tx.payload == payload  # byte-identical, still encrypted
    assert directory.verify("srv0", tx.signed_span(), tx.signature)


def test_tx_signature_covers_timestamp_and_payload(directory):
    tx = network_tx("gw0", 1)
    bumped = Transaction(tx.requester, tx.signature, tx.timestamp_ms + 1, tx.payload)
    assert not directory.verify("gw0", bumped.signed_span(), bumped.signature)
    flipped = Transaction(
        tx.requester,
        tx.signature,
        tx.timestamp_ms,
        tx.payload[:-1] + bytes([tx.payload[-1] ^ 1]),
    )
    assert not directory.verify("gw0", flipped.signed_span(), flipped.signature)


def test_tx_wire_roundtrip():
    tx = network_tx("gw0", 9, t_ms=123456)
    assert transaction_from_bytes(tx.to_bytes()) == tx


def test_block_wire_roundtrip():
    txs = [network_tx("gw0", n) for n in range(3)]
    block = assemble_block(txs, 0, 42, None)
    again = block_from_bytes(block.to_bytes())
    assert again == block
    assert block_hash(again) == block_hash(block)


# Digests of fixed encodings, computed before the codec was last rewritten: a
# round trip alone still passes when the encoder and the decoder drift together.
PINNED_TX = Transaction("gw-\u00fc", bytes(range(64)), 1_234_567_890_123, b"payload \xff")
PINNED_BLOCK = Block(
    zeta=7,
    tau_ms=42_000,
    merkle_root=bytes(range(32)),
    prev_hash=bytes(range(32, 64)),
    txs=(PINNED_TX, Transaction("srv0", bytes(64), 0, b"\x00")),
)


def test_tx_encoding_is_pinned():
    raw = PINNED_TX.to_bytes()
    assert len(raw) == 94
    assert hashlib.sha256(raw).hexdigest() == (
        "a875b4a35f5f7a9450fbbb6e2a3bef6727a8b8de503d2b66b854f3168201096a"
    )


def test_block_encoding_is_pinned():
    raw = PINNED_BLOCK.to_bytes()
    assert len(raw) == 265
    assert hashlib.sha256(raw).hexdigest() == (
        "4b06c10113ab7446eb7a76a969a15e4b367d64bbf8cba5b7177f354bcfac5c20"
    )


def test_dump_encoding_is_pinned(directory):
    _, data = _dumped_chain(directory, n_blocks=2)
    assert len(data) == 1094
    assert hashlib.sha256(data).hexdigest() == (
        "f483fec8c603fec7b40a42819602a1163000ca6ef5dfafbbf8d1c2fd96f124c9"
    )


transactions = st.builds(
    Transaction,
    requester=st.text(st.characters(min_codepoint=0x80, codec="utf-8"), min_size=1, max_size=12),
    signature=st.binary(min_size=64, max_size=64),
    timestamp_ms=st.integers(0, 2**63),
    payload=st.binary(min_size=1, max_size=300),
)
blocks = st.builds(
    Block,
    zeta=st.integers(0, 2**64 - 1),
    tau_ms=st.integers(0, 2**64 - 1),
    merkle_root=st.binary(max_size=64),
    prev_hash=st.binary(min_size=32, max_size=32),
    txs=st.lists(transactions, min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(tx=transactions)
def test_tx_codec_round_trips_both_ways(tx):
    raw = tx.to_bytes()
    assert transaction_from_bytes(raw) == tx
    assert transaction_from_bytes(raw).to_bytes() == raw


@settings(max_examples=40, deadline=None)
@given(block=blocks)
def test_block_codec_round_trips_both_ways(block):
    raw = block.to_bytes()
    assert block_from_bytes(raw) == block
    assert block_from_bytes(raw).to_bytes() == raw


def test_genesis_block_shape():
    block = assemble_block([network_tx("gw0", 0)], 0, 0, None)
    assert block.zeta == 0
    assert block.prev_hash == GENESIS_PREV_HASH == bytes(32)
    assert block.merkle_root == block.txs[0].signature  # single leaf, unhashed


def test_chain_linkage_and_validation(directory):
    b0 = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    b1 = assemble_block([network_tx("gw0", 1), network_tx("gw1", 2)], 1, 20, b0)
    assert b1.prev_hash == block_hash(b0)
    assert validate_block(b0, None, directory, KIND_NETWORK)
    assert validate_block(b1, b0, directory, KIND_NETWORK)
    with pytest.raises(ValueError):
        validate_block(b0, None, directory, "app")  # not a ledger kind


def test_validate_rejects_bad_height(directory):
    b0 = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    wrong = Block(2, b0.tau_ms, b0.merkle_root, b0.prev_hash, b0.txs)
    assert not validate_block(wrong, None, directory, KIND_NETWORK)
    assert validate_body(wrong, directory, KIND_NETWORK)  # the body ignores chain position


def test_validate_rejects_bad_prev_hash(directory):
    b0 = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    b1 = assemble_block([network_tx("gw0", 1)], 1, 20, b0)
    forged = Block(1, b1.tau_ms, b1.merkle_root, bytes(32), b1.txs)
    assert not validate_block(forged, b0, directory, KIND_NETWORK)


def test_validate_rejects_bad_merkle_root(directory):
    b0 = assemble_block([network_tx("gw0", 0), network_tx("gw0", 1)], 0, 10, None)
    forged = Block(0, b0.tau_ms, bytes(32), b0.prev_hash, b0.txs)
    assert not validate_block(forged, None, directory, KIND_NETWORK)
    assert not validate_body(forged, directory, KIND_NETWORK)


def test_validate_rejects_tampered_tx(directory):
    tx = network_tx("gw0", 0)
    evil = Transaction(tx.requester, tx.signature, tx.timestamp_ms + 1, tx.payload)
    good = assemble_block([tx], 0, 10, None)
    forged = Block(0, good.tau_ms, good.merkle_root, good.prev_hash, (evil,))
    assert not validate_block(forged, None, directory, KIND_NETWORK)


@pytest.mark.parametrize("kind", [KIND_NETWORK, KIND_APPLICATION])
def test_validate_rejects_unknown_requester(directory, kind):
    ghost = generate_keypair("ghost", 1)
    tx = make_network_tx(SIGNER, ghost, make_context(0), 1, random.Random(0))
    block = assemble_block([tx], 0, 10, None)
    assert not validate_block(block, None, directory, kind)


def test_app_chain_rejects_gateway_requesters(directory):
    """Only servers write the application chain; gateways may write the network chain."""
    gw_tx = make_app_tx(SIGNER, keypair("gw0"), b"data", 1)
    srv_tx = make_app_tx(SIGNER, keypair("srv0"), b"data", 1)
    gw_block = assemble_block([gw_tx], 0, 10, None)
    srv_block = assemble_block([srv_tx], 0, 10, None)
    assert not validate_block(gw_block, None, directory, KIND_APPLICATION)
    assert validate_block(srv_block, None, directory, KIND_APPLICATION)
    gw_context = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    assert validate_block(gw_context, None, directory, KIND_NETWORK)


def test_empty_block_forbidden():
    with pytest.raises(ValueError):
        assemble_block([], 0, 0, None)


@pytest.mark.parametrize(
    "zeta, tau_ms, timestamp_ms",
    [(0, -1, 0), (-1, 0, 0), (2**64, 0, 0), (0, 2**64, 0), (0, 0, -1), (0, 0, 2**64)],
    ids=["tau-negative", "zeta-negative", "zeta-2^64", "tau-2^64", "ts-negative", "ts-2^64"],
)
def test_constructors_reject_integers_no_u64_encoding_holds(zeta, tau_ms, timestamp_ms):
    """Out-of-range indexes and timestamps fail at construction, not when hashed.

    Each case puts one value out of range; the constructor that holds it raises.
    """
    with pytest.raises(ValueError):
        tx = Transaction("srv0", bytes(64), timestamp_ms, b"payload")
        Block(zeta, tau_ms, b"", GENESIS_PREV_HASH, (tx,))


def test_ledger_append_and_world_state(directory):
    ledger = Ledger(KIND_NETWORK)
    ctx_a, ctx_b = make_context(0), make_context(1)
    kp = keypair("gw0")
    b0 = assemble_block(
        [
            make_network_tx(SIGNER, kp, ctx_a, 1, random.Random(0)),
            make_network_tx(SIGNER, kp, ctx_b, 2, random.Random(1)),
        ],
        0,
        10,
        None,
    )
    ledger.append_block(b0, directory)
    assert ledger.height == 1
    entry = ledger.query_context(ctx_a.dev_addr)
    assert entry is not None and entry.requester == "gw0" and entry.zeta == 0
    assert ledger.query_context(ctx_b.dev_addr).timestamp_ms == 2
    assert ledger.query_context(b"\xff\xff\xff\xff") is None


def test_rejoin_supersedes_context(directory):
    """World state answers with the latest committed context for an address."""
    ledger = Ledger(KIND_NETWORK)
    kp = keypair("gw0")
    first = make_context(0)
    rejoin = SessionContext(
        dev_eui=first.dev_eui,
        app_key=first.app_key,
        dev_addr=first.dev_addr,
        nwk_s_key=bytes([9]) * 16,
        dev_nonce=b"\x99\x99",
        app_nonce=b"\x01\x02\x03",
    )
    b0 = assemble_block([make_network_tx(SIGNER, kp, first, 1, random.Random(0))], 0, 10, None)
    ledger.append_block(b0, directory)
    b1 = assemble_block([make_network_tx(SIGNER, kp, rejoin, 2, random.Random(1))], 1, 20, b0)
    ledger.append_block(b1, directory)
    entry = ledger.query_context(first.dev_addr)
    assert entry.zeta == 1
    assert SessionContext.from_bytes(pk_decrypt(kp.private_key, entry.envelope)) == rejoin


def test_ledger_rejects_invalid_append(directory):
    ledger = Ledger(KIND_NETWORK)
    b0 = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    ledger.append_block(b0, directory)
    with pytest.raises(InvalidBlockError):
        ledger.append_block(b0, directory)  # replay: wrong height now
    assert ledger.height == 1


def _signed_network_tx(entity_id: str, payload: bytes, t_ms: int = 1000) -> Transaction:
    signature = sign(keypair(entity_id).private_key, struct.pack("<Q", t_ms) + payload)
    return Transaction(requester=entity_id, signature=signature, timestamp_ms=t_ms, payload=payload)


@pytest.mark.parametrize(
    "payload",
    [
        pk_encrypt(keypair("gw0").public_key, make_context(2).to_bytes(), random.Random(2), b"\x00" * 5),
        b"\x01" * 8,  # shorter than the envelope header
    ],
    ids=["aad-not-12-bytes", "short-envelope"],
)
def test_malformed_context_metadata_rejects_block_whole(directory, payload, tmp_path):
    """A signed tx whose envelope metadata is unusable rejects its block, leaving no trace."""
    ledger = Ledger(KIND_NETWORK)
    b0 = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    ledger.append_block(b0, directory)
    state = dict(ledger.world_state)
    # a good context ahead of the bad one would show if the block were half applied
    bad = assemble_block([network_tx("gw0", 1), _signed_network_tx("gw0", payload)], 1, 20, b0)
    # signatures and links are fine, the metadata is not
    assert not validate_block(bad, b0, directory, KIND_NETWORK)
    with pytest.raises(InvalidBlockError):
        ledger.append_block(bad, directory)
    assert ledger.height == 1
    assert ledger.world_state == state

    # in a dump, the same block makes a corrupt chain rather than a crash
    ledger.blocks.append(bad)
    path = tmp_path / "network.chain"
    path.write_bytes(dump_chain(ledger, directory))
    with pytest.raises(ChainIntegrityError):
        load_chain(path.read_bytes())
    assert main(["ledger", "verify", str(path)]) == 1


def test_validate_chain_and_rebuild(directory):
    ledger = Ledger(KIND_NETWORK)
    prev = None
    for z in range(4):
        block = assemble_block([network_tx("gw0", z, t_ms=z)], z, z * 10, prev)
        ledger.append_block(block, directory)
        prev = block
    assert ledger.validate_chain(directory)
    # replaying the chain from genesis rebuilds what incremental upkeep built
    synced = Ledger(KIND_NETWORK)
    synced.sync_from(ledger, directory)
    loaded, _ = load_chain(dump_chain(ledger, directory))
    for replica in (synced, loaded):
        assert replica.world_state == ledger.world_state


def test_sync_from(directory):
    source = Ledger(KIND_NETWORK)
    prev = None
    for z in range(3):
        block = assemble_block([network_tx("gw1", z + 10, t_ms=z)], z, z, prev)
        source.append_block(block, directory)
        prev = block
    replica = Ledger(KIND_NETWORK)
    replica.sync_from(source, directory)
    assert replica.height == 3
    assert [block_hash(b) for b in replica.blocks] == [block_hash(b) for b in source.blocks]
    assert replica.world_state.keys() == source.world_state.keys()


def test_failed_sync_leaves_replica_untouched(directory):
    """A peer chain with malformed context metadata is refused whole."""
    replica = Ledger(KIND_NETWORK)
    b0 = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    replica.append_block(b0, directory)
    blocks, state = list(replica.blocks), dict(replica.world_state)
    peer = Ledger(KIND_NETWORK)
    peer.blocks = [assemble_block([_signed_network_tx("gw1", b"\x01" * 8)], 0, 5, None)]
    # signatures and links are fine, the metadata is not
    assert not peer.validate_chain(directory)
    with pytest.raises(ChainIntegrityError):
        replica.sync_from(peer, directory)
    assert replica.blocks == blocks
    assert replica.world_state == state


def _dumped_chain(directory, n_blocks=4):
    ledger = Ledger(KIND_NETWORK)
    prev = None
    n = 0
    for z in range(n_blocks):
        txs = [network_tx("gw0", n + i, t_ms=n + i) for i in range(1 + z % 3)]
        n += len(txs)
        block = assemble_block(txs, z, z * 1000, prev)
        ledger.append_block(block, directory)
        prev = block
    return ledger, dump_chain(ledger, directory)


def test_dump_load_roundtrip(directory):
    ledger, data = _dumped_chain(directory)
    loaded, loaded_dir = load_chain(data)
    assert loaded.kind == KIND_NETWORK
    assert loaded.height == ledger.height
    assert [block_hash(b) for b in loaded.blocks] == [block_hash(b) for b in ledger.blocks]
    assert loaded.world_state.keys() == ledger.world_state.keys()
    assert loaded_dir.items() == directory.items()
    # a reload of a re-dump is byte-stable
    assert dump_chain(loaded, loaded_dir) == data


def test_dump_load_application_kind(directory):
    ledger = Ledger(KIND_APPLICATION)
    block = assemble_block([make_app_tx(SIGNER, keypair("srv0"), b"payload", 1)], 0, 5, None)
    ledger.append_block(block, directory)
    loaded, _ = load_chain(dump_chain(ledger, directory))
    assert loaded.kind == KIND_APPLICATION
    assert loaded.blocks[0].txs[0].payload == b"payload"


def test_dump_tamper_single_byte_always_detected(directory):
    """Criterion-grade property: every single-byte flip must be caught."""
    _, data = _dumped_chain(directory)
    rng = random.Random(99)
    for _ in range(1000):
        idx = rng.randrange(len(data))
        bad = bytearray(data)
        bad[idx] ^= 1 + rng.randrange(255)
        with pytest.raises(ChainIntegrityError):
            load_chain(bytes(bad))


def test_dump_truncation_and_garbage_detected(directory):
    _, data = _dumped_chain(directory)
    for cut in (0, 1, len(data) // 2, len(data) - 1):
        with pytest.raises(ChainIntegrityError):
            load_chain(data[:cut])
    with pytest.raises(ChainIntegrityError):
        load_chain(b"XXXX" + data[4:])  # wrong magic
    with pytest.raises(ChainIntegrityError):
        load_chain(data + b"\x00")  # trailing junk


def test_dump_with_short_public_key_is_invalid(tmp_path, capsys):
    """A key table entry of the wrong length, under a correct trailer, is corruption."""
    ident = b"gw0"
    body = DUMP_MAGIC + struct.pack("<HBI", DUMP_VERSION, 0, 1)
    body += struct.pack("<H", len(ident)) + ident + struct.pack("<BH", 0, 10) + bytes(10)
    body += struct.pack("<I", 0)
    path = tmp_path / "short-key.chain"
    path.write_bytes(body + hash_bytes(body))
    with pytest.raises(ChainIntegrityError):
        load_chain(path.read_bytes())
    assert main(["ledger", "verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("INVALID: ")
