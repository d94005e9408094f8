"""Micro-benchmarks of the frame layer and the context envelope (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.  The frame is an uplink with a 20-byte
payload, the default reading size; the envelope seals one session context
with its addr | eui metadata, as a join does.
"""

import random

from loraledger.crypto import (
    ENVELOPE_OVERHEAD,
    envelope_aad,
    generate_keypair,
    pk_decrypt,
    pk_encrypt,
)
from loraledger.frames import (
    DIR_UP,
    build_data_frame,
    parse_frame,
    serialize_frame,
    verify_data_mic,
)
from loraledger.ledger import SessionContext

NWK_S_KEY = bytes(range(16))
DEV_ADDR = bytes.fromhex("01000001")
PAYLOAD = bytes(range(20))
FRAME = build_data_frame(NWK_S_KEY, DEV_ADDR, 7, 1, PAYLOAD, DIR_UP)
RAW = serialize_frame(FRAME)

KEYPAIR = generate_keypair("gw0", 1)
CONTEXT = SessionContext(
    dev_eui=bytes(range(8)),
    app_key=bytes(16),
    dev_addr=DEV_ADDR,
    nwk_s_key=NWK_S_KEY,
    dev_nonce=b"\x00\x01",
    app_nonce=b"\x00\x00\x01",
).to_bytes()
AAD = DEV_ADDR + bytes(range(8))
ENVELOPE = pk_encrypt(KEYPAIR.public_key, CONTEXT, random.Random(1), AAD)


def test_parse_frame(benchmark):
    assert benchmark(parse_frame, RAW) == FRAME


def test_build_data_frame(benchmark):
    assert benchmark(build_data_frame, NWK_S_KEY, DEV_ADDR, 7, 1, PAYLOAD, DIR_UP) == FRAME


def test_verify_data_mic(benchmark):
    assert benchmark(verify_data_mic, FRAME, NWK_S_KEY)


def test_pk_encrypt(benchmark):
    envelope = benchmark(pk_encrypt, KEYPAIR.public_key, CONTEXT, random.Random(2), AAD)
    assert len(envelope) == len(CONTEXT) + len(AAD) + ENVELOPE_OVERHEAD
    assert envelope_aad(envelope) == AAD
    assert pk_decrypt(KEYPAIR.private_key, envelope) == CONTEXT


def test_pk_decrypt(benchmark):
    assert benchmark(pk_decrypt, KEYPAIR.private_key, ENVELOPE) == CONTEXT
