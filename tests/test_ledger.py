"""Chain layer: transactions, blocks, world state, dumps, tamper detection."""

import ctypes
import functools
import hashlib
import importlib.util
import pathlib
import random
import struct
import threading
import types
from dataclasses import FrozenInstanceError, replace

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
from loraledger import crypto as crypto_module
from loraledger import ledger as ledger_module
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
    context_metadata,
    dump_chain,
    load_chain,
    make_app_tx,
    make_network_tx,
    transaction_from_bytes,
    validate_block,
    validate_body,
)
from test_crypto import _stand_in_sodium


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
    assert len(data) == 998
    assert hashlib.sha256(data).hexdigest() == (
        "4c77d51eb96e3b0b1b0127f18809a678640eb5724fb9e81a911449d008c70c0c"
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


def test_accepted_body_is_checked_again_under_another_directory_or_kind(directory):
    """A block remembers an acceptance only for the directory object and kind it was made under."""
    block = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    assert validate_body(block, directory, KIND_NETWORK)
    assert not validate_body(block, directory, KIND_APPLICATION)  # a gateway wrote it
    assert not validate_body(block, KeyDirectory(), KIND_NETWORK)  # gw0 unregistered there
    impostor = KeyDirectory()
    impostor.add("gw0", keypair("gw1").public_key, ROLE_GATEWAY)  # another key under gw0's id
    assert not validate_block(block, None, impostor, KIND_NETWORK)
    assert validate_block(block, None, directory, KIND_NETWORK)


def test_rejected_body_is_accepted_once_its_requester_is_registered():
    """No rejection is remembered: registering the requester makes the same block valid."""
    directory = KeyDirectory()
    block = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    assert not validate_body(block, directory, KIND_NETWORK)
    assert not validate_block(block, None, directory, KIND_NETWORK)
    directory.add("gw0", keypair("gw0").public_key, ROLE_GATEWAY)
    assert validate_body(block, directory, KIND_NETWORK)
    assert validate_block(block, None, directory, KIND_NETWORK)


def test_block_hash_is_the_digest_of_the_bytes_worked_out_once_per_block(
    directory, monkeypatch
):
    block = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    digest = block_hash(block)
    assert digest == hash_bytes(block.to_bytes())
    assert validate_body(block, directory, KIND_NETWORK)
    with monkeypatch.context() as patched:
        patched.setattr(Block, "to_bytes", None)  # hashing again would serialize again
        assert block_hash(block) is digest
    later = replace(block, tau_ms=11)
    assert block_hash(later) == hash_bytes(later.to_bytes()) != digest
    twin = replace(block)  # remembers nothing, and compares and prints the same
    assert twin == block and repr(twin) == repr(block)
    assert twin.to_bytes() == block.to_bytes() and block_hash(twin) == digest


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


class _FourGiB(bytes):
    """A one-byte payload that reports 2**32 bytes; a real one would take 4 GiB."""

    def __len__(self) -> int:
        return 2**32


@pytest.mark.parametrize(
    "field, too_long, longest",
    [
        # 2**15 two-byte characters: 2**16 bytes, one past the 2-byte prefix
        ("requester", "\u00fc" * 2**15, "\u00fc" * (2**15 - 1) + "a"),
        ("merkle_root", bytes(2**16), bytes(2**16 - 1)),
        ("payload", _FourGiB(b"x"), None),
    ],
    ids=["requester", "merkle_root", "payload"],
)
def test_constructors_reject_fields_no_length_prefix_holds(field, too_long, longest):
    """A field longer than its length prefix can encode fails at construction,
    not when a replica hashes the block; the longest that fits round-trips."""

    def build(value):
        fields = {"requester": "srv0", "merkle_root": b"", "payload": b"payload", field: value}
        tx = Transaction(fields["requester"], bytes(64), 0, fields["payload"])
        return Block(0, 0, fields["merkle_root"], GENESIS_PREV_HASH, (tx,))

    with pytest.raises(ValueError):
        build(too_long)
    if longest is not None:
        block = build(longest)
        assert block_from_bytes(block.to_bytes()) == block


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
    tx_a = ledger.query_context(ctx_a.dev_addr)
    assert tx_a is b0.txs[0] and tx_a.requester == "gw0"
    assert ledger.query_context(ctx_b.dev_addr).timestamp_ms == 2
    assert ledger.query_context(b"\xff\xff\xff\xff") is None


def test_transactions_and_world_entries_are_slotted_and_frozen(directory):
    """A world holds one transaction per committed tx, so it carries no
    ``__dict__``; the world state's entry is that transaction, not a copy."""
    ledger = Ledger(KIND_NETWORK)
    ctx = make_context(0)
    tx = make_network_tx(SIGNER, keypair("gw0"), ctx, 1, random.Random(0))
    ledger.append_block(assemble_block([tx], 0, 10, None), directory)
    assert ledger.query_context(ctx.dev_addr) is tx
    assert not hasattr(tx, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(tx, "timestamp_ms", 2)


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
    tx = ledger.query_context(first.dev_addr)
    assert tx is b1.txs[0]
    assert SessionContext.from_bytes(pk_decrypt(kp.private_key, tx.payload)) == rejoin


def test_ledger_rejects_invalid_append(directory):
    ledger = Ledger(KIND_NETWORK)
    b0 = assemble_block([network_tx("gw0", 0)], 0, 10, None)
    ledger.append_block(b0, directory)
    with pytest.raises(InvalidBlockError):
        ledger.append_block(b0, directory)  # replay: wrong height now
    assert ledger.height == 1


def _signed_network_tx(entity_id: str, payload: bytes, t_ms: int = 1000) -> Transaction:
    signature = sign(keypair(entity_id), struct.pack("<Q", t_ms) + payload)
    return Transaction(requester=entity_id, signature=signature, timestamp_ms=t_ms, payload=payload)


@pytest.mark.parametrize(
    "payload",
    [
        pk_encrypt(keypair("gw0"), make_context(2).to_bytes(), random.Random(2), b"\x00" * 5),
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


def _assert_key_table_refused(tmp_path, capsys, public_key: bytes, version=DUMP_VERSION) -> str:
    """A dump of one key table entry (gw0's key) and no block, under a correct
    trailer, is corruption to ``load_chain`` and to ``ledger verify``; returns
    what ``ledger verify`` printed."""
    ident = b"gw0"
    body = DUMP_MAGIC + struct.pack("<HBI", version, 0, 1)
    body += struct.pack("<H", len(ident)) + ident
    body += struct.pack("<BH", 0, len(public_key)) + public_key
    body += struct.pack("<I", 0)
    path = tmp_path / "key-table.chain"
    path.write_bytes(body + hash_bytes(body))
    with pytest.raises(ChainIntegrityError):
        load_chain(path.read_bytes())
    assert main(["ledger", "verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID: ")
    return out


def test_a_version_1_dump_is_refused_for_its_version(tmp_path, capsys):
    """Version 1 held 64-byte keys (verify key, then an X25519 key): such a dump
    is refused for its version, not for the length of its keys."""
    old_key = keypair("gw0").public_key + bytes(32)
    out = _assert_key_table_refused(tmp_path, capsys, old_key, version=1)
    assert out == "INVALID: unsupported dump version 1\n"


def test_dump_with_short_public_key_is_invalid(tmp_path, capsys):
    _assert_key_table_refused(tmp_path, capsys, bytes(10))


def test_dump_with_small_order_public_key_is_invalid(tmp_path, capsys):
    """The identity key, under which R = identity, S = 0 verifies for any message."""
    _assert_key_table_refused(tmp_path, capsys, b"\x01" + bytes(31))


# ---------------------------------------------------------------------------
# signature checks fanned out over threads in load_chain


def _load_with_jobs(monkeypatch, data, jobs):
    """``load_chain`` on ``jobs`` threads: (ledger, directory) or the error text."""
    monkeypatch.setattr(crypto_module, "verify_jobs", lambda: jobs)
    threads = threading.active_count()
    try:
        return load_chain(data)
    except ChainIntegrityError as exc:
        return str(exc)
    finally:
        assert threading.active_count() == threads


def _same_load(monkeypatch, data, jobs=2):
    """Load serially and fanned out; the two must agree.  Returns the serial outcome."""
    serial = _load_with_jobs(monkeypatch, data, 1)
    fanned = _load_with_jobs(monkeypatch, data, jobs)
    if isinstance(serial, str):
        assert fanned == serial
    else:
        (ledger, directory), (fanned_ledger, fanned_directory) = serial, fanned
        assert fanned_ledger.blocks == ledger.blocks
        assert fanned_ledger.world_state == ledger.world_state
        assert fanned_directory.items() == directory.items()
        assert dump_chain(fanned_ledger, fanned_directory) == data
    return serial


def _forged(tx: Transaction) -> Transaction:
    """``tx`` signed by another registered entity's key (gw1's), still claiming its requester."""
    return replace(tx, signature=sign(keypair("gw1"), tx.signed_span()))


def _network_blocks(n_blocks: int, forged_at=(), txs_per_block: int = 2) -> list[Block]:
    """Linked gw0 network blocks; the last tx of each block in ``forged_at`` is forged."""
    blocks = []
    for z in range(n_blocks):
        txs = [
            network_tx("gw0", z * txs_per_block + i, t_ms=z * txs_per_block + i)
            for i in range(txs_per_block)
        ]
        if z in forged_at:
            txs[-1] = _forged(txs[-1])
        blocks.append(assemble_block(txs, z, z * 1000, blocks[-1] if blocks else None))
    return blocks


def _dump_blocks(blocks: list[Block], directory) -> bytes:
    ledger = Ledger(KIND_NETWORK)
    ledger.blocks = list(blocks)  # unvalidated on purpose: dumps carry what they carry
    return dump_chain(ledger, directory)


def _resealed(data: bytes) -> bytes:
    """``data`` with its trailer digest recomputed over its body."""
    return data[:-32] + hash_bytes(data[:-32])


CHAIN_BLOCKS = _network_blocks(8)


def test_load_chain_fanned_out_matches_serial(directory, monkeypatch):
    data = _dump_blocks(CHAIN_BLOCKS, directory)
    for jobs in (2, 3):
        ledger, _ = _same_load(monkeypatch, data, jobs)
        assert ledger.blocks == CHAIN_BLOCKS


@pytest.mark.parametrize("forged_at", [0, 4, 7], ids=["first", "middle", "last"])
def test_load_chain_forged_signature_gives_the_serial_error(directory, monkeypatch, forged_at):
    data = _dump_blocks(_network_blocks(8, forged_at={forged_at}), directory)
    expected = "chain failed validation: block %d rejected at height %d" % (forged_at, forged_at)
    assert _same_load(monkeypatch, data) == expected
    assert _same_load(monkeypatch, data, jobs=4) == expected


def test_load_chain_earlier_structural_fault_wins_over_later_forgery(directory, monkeypatch):
    blocks = _network_blocks(8, forged_at={6})
    blocks[2] = replace(blocks[2], merkle_root=hash_bytes(b"not the root"))
    data = _dump_blocks(blocks, directory)
    assert _same_load(monkeypatch, data) == "chain failed validation: block 2 rejected at height 2"


def test_load_chain_resealed_signature_flip_gives_the_serial_error(directory, monkeypatch):
    """A flipped signature byte under a correct trailer: the Merkle check rejects the block."""
    data = _dump_blocks(CHAIN_BLOCKS, directory)
    flipped = bytearray(data)
    flipped[data.index(CHAIN_BLOCKS[5].txs[0].signature) + 10] ^= 0x40
    message = _same_load(monkeypatch, _resealed(bytes(flipped)))
    assert message == "chain failed validation: block 5 rejected at height 5"


def test_load_chain_fanned_out_verifies_each_signature_once(directory, monkeypatch):
    """Across every thread of one load, each distinct signature is verified once
    in C, and the returned directory keeps no more verdicts than its memo holds."""
    blocks = _network_blocks(6, txs_per_block=3)
    again = assemble_block([blocks[1].txs[0]], 6, 7000, blocks[-1])  # a tx on the chain twice
    data = _dump_blocks(blocks + [again], directory)
    calls = []
    crypto_module._sodium.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", _stand_in_sodium(calls=calls))  # accepts every signature
    monkeypatch.setattr(crypto_module, "VERDICT_MEMO_SIZE", 4)
    try:
        ledger, loaded = _load_with_jobs(monkeypatch, data, 3)
    finally:
        crypto_module._sodium.cache_clear()
    verified = [args[0] for symbol, args in calls if symbol == "crypto_sign_verify_detached"]
    assert len(verified) == len(set(verified)) == 18
    assert ledger.height == 7
    assert len(loaded._verdicts) <= 4


@pytest.mark.parametrize("failing", [1, 2], ids=["first-worker", "second-worker"])
def test_load_chain_falls_back_when_a_worker_cannot_start(directory, monkeypatch, failing):
    """A thread that cannot start, the first or second of two: any started
    thread is joined and the loading thread checks the slices left over.
    Without libsodium no thread is asked for."""
    starts = []

    class Thread(threading.Thread):
        def start(self):
            starts.append(self)
            if len(starts) == failing:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(crypto_module, "threading", types.SimpleNamespace(Thread=Thread))
    asked = failing if crypto_module._sodium() is not None else 0
    ledger, _ = _same_load(monkeypatch, _dump_blocks(CHAIN_BLOCKS, directory), jobs=3)
    assert ledger.blocks == CHAIN_BLOCKS
    assert len(starts) == asked
    starts.clear()
    forged = _dump_blocks(_network_blocks(8, forged_at={7}), directory)
    message = "chain failed validation: block 7 rejected at height 7"
    assert _same_load(monkeypatch, forged, jobs=3) == message
    assert len(starts) == asked


def _traced_crypto_names() -> tuple:
    """The ``crypto`` functions whose calls the benchmark's tracer makes spans of."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS["crypto"]


@pytest.mark.parametrize("jobs", [2, 3])
def test_load_chain_calls_traced_crypto_functions_only_on_the_loading_thread(
    directory, monkeypatch, jobs
):
    """The tracer's spans share one stack, so no worker thread may call a
    function it wraps: with each replaced in ``crypto`` and ``ledger``, the
    modules a load runs, a load of an honest chain and of a forged one calls
    them only from the loading thread."""
    honest = _dump_blocks(CHAIN_BLOCKS, directory)
    forged = _dump_blocks(_network_blocks(8, forged_at={3}), directory)
    callers = []
    modules = [crypto_module, ledger_module]
    for name in _traced_crypto_names():
        real = getattr(crypto_module, name)

        def recorded(*args, real=real, name=name):
            callers.append((name, threading.get_ident()))
            return real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, recorded)
    assert isinstance(_load_with_jobs(monkeypatch, honest, jobs), tuple)
    message = "chain failed validation: block 3 rejected at height 3"
    assert _load_with_jobs(monkeypatch, forged, jobs) == message
    assert "hash_bytes" in {name for name, _ in callers}
    assert {ident for _, ident in callers} == {threading.get_ident()}


@functools.cache
def _property_blocks(forged_at: frozenset) -> list[Block]:
    return _network_blocks(6, forged_at=forged_at)


@settings(max_examples=25, deadline=None)
@given(
    forged_at=st.frozensets(st.integers(0, 5), max_size=2),
    flips=st.lists(st.tuples(st.integers(0, 2**32), st.integers(1, 255)), max_size=2),
)
def test_load_chain_fanned_out_agrees_with_serial(forged_at, flips):
    """Forged signatures and trailer-resealed byte flips: serial and fanned-out loads
    both accept the same chain or both raise the same message."""
    directory = KeyDirectory()
    for entity_id, role in (("gw0", ROLE_GATEWAY), ("gw1", ROLE_GATEWAY), ("srv0", ROLE_SERVER)):
        directory.add(entity_id, generate_keypair(entity_id, 11).public_key, role)
    data = bytearray(_dump_blocks(_property_blocks(forged_at), directory))
    for position, mask in flips:
        data[position % (len(data) - 32)] ^= mask
    with pytest.MonkeyPatch.context() as monkeypatch:
        _same_load(monkeypatch, _resealed(bytes(data)))


# a directory and blocks that live across examples, so the memos on them do too
MEMO_DIRECTORY = KeyDirectory()
for _entity_id, _role in (("gw0", ROLE_GATEWAY), ("gw1", ROLE_GATEWAY), ("srv0", ROLE_SERVER)):
    MEMO_DIRECTORY.add(_entity_id, keypair(_entity_id).public_key, _role)
_MEMO_GENESIS = assemble_block([network_tx("gw0", 0), network_tx("gw1", 1)], 0, 10, None)
_MEMO_NEXT = assemble_block([network_tx("gw0", 2)], 1, 20, _MEMO_GENESIS)
MEMO_BLOCKS = [
    _MEMO_GENESIS,
    _MEMO_NEXT,
    assemble_block([_forged(network_tx("gw0", 3))], 1, 20, _MEMO_GENESIS),
    replace(_MEMO_NEXT, merkle_root=hash_bytes(b"not the root")),
    assemble_block([network_tx("ghost", 4)], 1, 20, _MEMO_GENESIS),  # unregistered
    assemble_block([make_app_tx(SIGNER, keypair("srv0"), b"data", 5)], 1, 20, _MEMO_GENESIS),
]


@settings(max_examples=60, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.integers(0, len(MEMO_BLOCKS) - 1),
            st.none() | st.integers(0, len(MEMO_BLOCKS) - 1),
            st.sampled_from([KIND_NETWORK, KIND_APPLICATION]),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_remembered_verdicts_match_fresh_copies(calls):
    """Repeated ``validate_block`` and ``validate_body`` calls on the same valid,
    forged and mis-rooted blocks, in any order, give a fresh copy's verdict."""
    for index, prev_index, kind, whole in calls:
        block, fresh = MEMO_BLOCKS[index], replace(MEMO_BLOCKS[index])
        if whole:
            prev = None if prev_index is None else MEMO_BLOCKS[prev_index]
            fresh_prev = None if prev is None else replace(prev)
            verdict = validate_block(block, prev, MEMO_DIRECTORY, kind)
            assert verdict == validate_block(fresh, fresh_prev, MEMO_DIRECTORY, kind)
        else:
            verdict = validate_body(block, MEMO_DIRECTORY, kind)
            assert verdict == validate_body(fresh, MEMO_DIRECTORY, kind)


# network txs the property below draws from: two requesters, four device
# addresses (so later txs supersede earlier contexts) and two timestamps each
WORLD_POOL = [
    network_tx(entity_id, n, t_ms=t_ms)
    for entity_id in ("gw0", "gw1")
    for n in range(4)
    for t_ms in (1, 2)
]


def _reference_world_state(blocks: list[Block]) -> dict[bytes, Transaction]:
    """World state folded tx by tx: each address to the last committed
    transaction whose context names it."""
    state = {}
    for block in blocks:
        for tx in block.txs:
            dev_addr, _ = context_metadata(tx.payload)
            state[dev_addr] = tx
    return state


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(0, len(WORLD_POOL) - 1), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    ),
    replicas=st.integers(2, 7),
)
def test_replicas_share_each_blocks_world_entries(batches, replicas):
    """Replicas appending the same random network blocks end with equal world
    states, equal to a per-tx fold: each address maps to its last committed
    transaction itself, under one address key object shared by every replica."""
    blocks = []
    for zeta, batch in enumerate(batches):
        txs = [WORLD_POOL[i] for i in batch]
        blocks.append(assemble_block(txs, zeta, 1000 * zeta, blocks[-1] if blocks else None))
    ledgers = [Ledger(KIND_NETWORK) for _ in range(replicas)]
    for block in blocks:
        for ledger in ledgers:
            ledger.append_block(block, MEMO_DIRECTORY)
    reference = _reference_world_state(blocks)
    for ledger in ledgers:
        assert ledger.world_state == reference
        for dev_addr, tx in ledger.world_state.items():
            assert tx is reference[dev_addr]
        assert list(map(id, ledger.world_state)) == list(map(id, ledgers[0].world_state))
    synced = Ledger(KIND_NETWORK)
    synced.sync_from(ledgers[0], MEMO_DIRECTORY)
    assert synced.world_state == reference
