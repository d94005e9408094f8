"""Decoders of outside bytes raise only their module's declared error."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger.crypto import (
    DecryptionError,
    KeyDirectory,
    ROLE_GATEWAY,
    envelope_aad,
    generate_keypair,
    hash_bytes,
)
from loraledger.frames import MalformedFrameError, parse_frame
from loraledger.ledger import (
    DUMP_MAGIC,
    DUMP_VERSION,
    ChainIntegrityError,
    KIND_NETWORK,
    Ledger,
    SessionContext,
    assemble_block,
    block_from_bytes,
    dump_chain,
    load_chain,
    make_network_tx,
    transaction_from_bytes,
)

FEW = settings(max_examples=80, deadline=None)


def _real_dump() -> bytes:
    keypair = generate_keypair("gw0", 3)
    directory = KeyDirectory()
    directory.add("gw0", keypair.public_key, ROLE_GATEWAY)
    context = SessionContext(bytes(8), bytes(16), b"\x00\x01\x00\x01", bytes(16), bytes(2), bytes(3))
    ledger = Ledger(KIND_NETWORK)
    tx = make_network_tx(keypair, context, 5, random.Random(0))
    ledger.append_block(assemble_block([tx], 0, 10, None), directory)
    return dump_chain(ledger, directory)


REAL_DUMP = _real_dump()


def _sealed(body: bytes) -> bytes:
    """A dump whose trailer digest is right, so parsing goes past the digest check."""
    return body + hash_bytes(body)


@st.composite
def key_table_dumps(draw):
    """Well-framed dumps whose key table holds arbitrary ids, roles and key lengths."""
    entries = draw(
        st.lists(
            st.tuples(st.text(max_size=4), st.integers(0, 2), st.binary(max_size=70)),
            max_size=3,
        )
    )
    body = DUMP_MAGIC + struct.pack("<HBI", DUMP_VERSION, draw(st.integers(0, 2)), len(entries))
    for ident, role, public_key in entries:
        raw = ident.encode("utf-8")
        body += struct.pack("<H", len(raw)) + raw + struct.pack("<BH", role, len(public_key))
        body += public_key
    return _sealed(body + draw(st.binary(max_size=64)))


@st.composite
def mutated_dumps(draw):
    """A real dump with a few bytes replaced and its trailer digest recomputed."""
    body = bytearray(REAL_DUMP[:-32])
    for _ in range(draw(st.integers(1, 4))):
        body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 255))
    return _sealed(bytes(body))


DECODERS = {
    "parse_frame": (parse_frame, MalformedFrameError),
    "block_from_bytes": (block_from_bytes, ChainIntegrityError),
    "transaction_from_bytes": (transaction_from_bytes, ChainIntegrityError),
    "load_chain": (load_chain, ChainIntegrityError),
    "envelope_aad": (envelope_aad, DecryptionError),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@FEW
@given(data=st.binary(max_size=300))
def test_decoders_raise_only_declared_errors(name, data):
    decode, declared = DECODERS[name]
    try:
        decode(data)
    except declared:
        pass


@FEW
@given(data=st.one_of(key_table_dumps(), mutated_dumps()))
def test_load_chain_past_the_digest_raises_only_chain_integrity_error(data):
    try:
        load_chain(data)
    except ChainIntegrityError:
        pass
