"""Micro-benchmarks of the frame layer and the context envelope (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.  The data frame is an uplink with a 20-byte
payload, the default reading size; the join request is the frozen vector of
tests/test_frames.py; the envelope seals one session context with its
addr | eui metadata, as a join does, and ``test_seal_and_sign_contexts`` seals
and signs 100 such contexts of five join servers, as a bootstrap does.  The
uplink round trip is the frame work of one confirmed reading: the device
encrypts and builds the uplink, the gateway parses and MIC-checks it and
builds the ACK, and the device parses and MIC-checks the ACK.
"""

import random

import pytest

from loraledger.crypto import (
    ENVELOPE_OVERHEAD,
    KeyDirectory,
    ROLE_GATEWAY,
    RootKey,
    envelope_aad,
    generate_keypair,
    pk_decrypt,
    pk_encrypt,
)
from loraledger.frames import (
    DIR_DOWN,
    DIR_UP,
    SessionKeys,
    build_data_frame,
    build_join_request,
    encrypt_payload,
    parse_frame,
    verify_data_mic,
)
from loraledger.ledger import SessionContext, make_network_tx

NWK_S_KEY = bytes(range(16))
APP_S_KEY = bytes(range(16, 32))
DEV_ADDR = bytes.fromhex("01000001")
PAYLOAD = bytes(range(20))
DEVICE_KEYS = SessionKeys(DEV_ADDR, NWK_S_KEY, APP_S_KEY)
CONTROLLER_KEYS = SessionKeys(DEV_ADDR, NWK_S_KEY)  # the network controller holds no app key
RAW = build_data_frame(DEVICE_KEYS, 7, 1, PAYLOAD, DIR_UP)
FRAME = parse_frame(RAW)
APP_KEY = RootKey(bytes(range(16)))
APP_EUI = bytes.fromhex("1122334455667788")
DEV_EUI = bytes.fromhex("0102030405060708")
JOIN_REQUEST_WIRE = "001122334455667788010203040506070801022b0dc1ac"

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
ENVELOPE = pk_encrypt(KEYPAIR, CONTEXT, random.Random(1), AAD)


def test_parse_frame(benchmark):
    assert benchmark(parse_frame, RAW) == FRAME


def test_build_data_frame(benchmark):
    assert benchmark(build_data_frame, DEVICE_KEYS, 7, 1, PAYLOAD, DIR_UP) == RAW


def test_uplink_round_trip(benchmark):
    def round_trip(fcnt):
        ciphertext = encrypt_payload(DEVICE_KEYS, fcnt, DIR_UP, PAYLOAD)
        data = build_data_frame(DEVICE_KEYS, fcnt, 1, ciphertext, DIR_UP)
        uplink = parse_frame(data)
        if not verify_data_mic(CONTROLLER_KEYS, data):
            return None
        ack = build_data_frame(CONTROLLER_KEYS, fcnt, 0, b"", DIR_DOWN)
        return uplink.payload, parse_frame(ack).fcnt == fcnt and verify_data_mic(DEVICE_KEYS, ack)

    ciphertext, acked = benchmark(round_trip, 7)
    assert acked
    assert encrypt_payload(DEVICE_KEYS, 7, DIR_UP, ciphertext) == PAYLOAD


def test_build_join_request(benchmark):
    raw = benchmark(build_join_request, APP_KEY, APP_EUI, DEV_EUI, b"\x01\x02")
    assert raw.hex() == JOIN_REQUEST_WIRE


def test_verify_data_mic(benchmark):
    assert benchmark(verify_data_mic, CONTROLLER_KEYS, RAW)


def test_pk_encrypt(benchmark):
    envelope = benchmark(pk_encrypt, KEYPAIR, CONTEXT, random.Random(2), AAD)
    assert len(envelope) == len(CONTEXT) + len(AAD) + ENVELOPE_OVERHEAD
    assert envelope_aad(envelope) == AAD
    assert pk_decrypt(KEYPAIR.private_key, envelope) == CONTEXT


def test_pk_decrypt(benchmark):
    assert benchmark(pk_decrypt, KEYPAIR.private_key, ENVELOPE) == CONTEXT


BATCH_KEYPAIRS = [generate_keypair("gw%d" % k, 1) for k in range(5)]
BATCH_CONTEXTS = [
    SessionContext(
        dev_eui=i.to_bytes(8, "little"),
        app_key=bytes(16),
        dev_addr=bytes([i % 5]) + (i // 5 + 1).to_bytes(3, "little"),
        nwk_s_key=NWK_S_KEY,
        dev_nonce=b"\x00\x01",
        app_nonce=b"\x00\x00\x01",
    )
    for i in range(100)
]


def _seal_and_sign():
    """The 100 contexts, each sealed and signed by its join server from that
    server's own stream, in a fresh directory; returns the transactions."""
    directory = KeyDirectory()
    for keypair in BATCH_KEYPAIRS:
        directory.add(keypair.entity_id, keypair.public_key, ROLE_GATEWAY)
    streams = [random.Random(k) for k in range(5)]
    return [
        make_network_tx(directory, BATCH_KEYPAIRS[i % 5], context, 0, streams[i % 5])
        for i, context in enumerate(BATCH_CONTEXTS)
    ]


BATCH_TXS = _seal_and_sign()


def test_seal_and_sign_contexts(benchmark):
    assert benchmark(_seal_and_sign) == BATCH_TXS
