"""Radio frame layer: exact wire bytes, MIC coverage, parse bijection."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger.crypto import aes128_encrypt_block
from loraledger.frames import (
    DATA_OVERHEAD,
    DIR_DOWN,
    DIR_UP,
    DataFrame,
    EncryptedJoinAccept,
    JOIN_ACCEPT_LEN,
    JOIN_REQUEST_LEN,
    JoinRequest,
    MAX_FRM_PAYLOAD,
    MalformedFrameError,
    MicMismatchError,
    build_data_frame,
    build_join_accept,
    build_join_request,
    decrypt_payload,
    encrypt_payload,
    open_join_accept,
    parse_frame,
    serialize_frame,
    verify_data_mic,
    verify_join_request,
)

# Frozen wire bytes from the standalone oracle (raw AES + hand-written CMAC
# + hand-assembled layouts; see tests/test_crypto.py for the oracle notes).
APP_KEY = bytes(range(16))
APP_EUI = bytes.fromhex("1122334455667788")
DEV_EUI = bytes.fromhex("0102030405060708")
DEV_NONCE = bytes.fromhex("0102")
APP_NONCE = bytes.fromhex("010203")
NET_ID = bytes.fromhex("aabbcc")
DEV_ADDR = bytes.fromhex("01000001")
NWK_S_KEY = bytes.fromhex("698a830d6878f2fdf66edc2c4267cd63")
APP_S_KEY = bytes.fromhex("126403df5b4aa4d4f81124fa61514690")
JOIN_REQUEST_WIRE = "001122334455667788010203040506070801022b0dc1ac"
JOIN_ACCEPT_WIRE = "209dd880c3d074487baffc75760a8abda7"
PAYLOAD_CT = "c02c3109228e9072b303fb82a542945abc0fa21b"
DATA_FRAME_WIRE = "4001000001050001" + PAYLOAD_CT + "f2718895"


def test_join_request_frozen_wire():
    frame = build_join_request(APP_KEY, APP_EUI, DEV_EUI, DEV_NONCE)
    wire = serialize_frame(frame)
    assert wire.hex() == JOIN_REQUEST_WIRE
    assert len(wire) == JOIN_REQUEST_LEN


def test_join_request_parse_and_verify():
    wire = bytes.fromhex(JOIN_REQUEST_WIRE)
    frame = parse_frame(wire)
    assert isinstance(frame, JoinRequest)
    assert frame.app_eui == APP_EUI
    assert frame.dev_eui == DEV_EUI
    assert frame.dev_nonce == DEV_NONCE
    assert verify_join_request(frame, APP_KEY)
    assert not verify_join_request(frame, bytes(16))


def test_join_request_mic_covers_every_byte():
    """Flipping any pre-MIC byte must invalidate the request."""
    wire = bytearray.fromhex(JOIN_REQUEST_WIRE)
    for idx in range(JOIN_REQUEST_LEN - 4):
        bad = bytearray(wire)
        bad[idx] ^= 0x01
        if idx == 0:
            with pytest.raises(MalformedFrameError):
                parse_frame(bytes(bad))
            continue
        frame = parse_frame(bytes(bad))
        assert not verify_join_request(frame, APP_KEY), "byte %d uncovered" % idx


def test_join_accept_frozen_wire_and_open():
    wire = build_join_accept(APP_KEY, APP_NONCE, NET_ID, DEV_ADDR)
    assert wire.hex() == JOIN_ACCEPT_WIRE
    assert len(wire) == JOIN_ACCEPT_LEN
    accept = open_join_accept(wire, APP_KEY)
    assert accept.app_nonce == APP_NONCE
    assert accept.net_id == NET_ID
    assert accept.dev_addr == DEV_ADDR


def test_join_accept_wrong_key_rejected():
    wire = bytes.fromhex(JOIN_ACCEPT_WIRE)
    with pytest.raises(MicMismatchError):
        open_join_accept(wire, bytes(16))


def test_join_accept_tamper_rejected():
    wire = bytearray.fromhex(JOIN_ACCEPT_WIRE)
    for idx in range(1, len(wire)):
        bad = bytearray(wire)
        bad[idx] ^= 0x80
        with pytest.raises(MicMismatchError):
            open_join_accept(bytes(bad), APP_KEY)


def test_join_accept_parses_as_opaque():
    frame = parse_frame(bytes.fromhex(JOIN_ACCEPT_WIRE))
    assert isinstance(frame, EncryptedJoinAccept)
    assert len(frame.cipher) == 16


def test_payload_encryption_frozen_and_involutive():
    plain = bytes(range(20))
    ct = encrypt_payload(APP_S_KEY, DEV_ADDR, 5, DIR_UP, plain)
    assert ct.hex() == PAYLOAD_CT
    assert decrypt_payload(APP_S_KEY, DEV_ADDR, 5, DIR_UP, ct) == plain


def reference_encrypt_payload(app_s_key, dev_addr, fcnt, direction, data):
    """The keystream one AES block at a time, as the frame layer first computed it."""
    out = bytearray()
    for i in range(0, len(data), 16):
        counter = struct.pack(
            "<B4xB4sIxB", 0x01, direction, dev_addr, fcnt & 0xFFFFFFFF, i // 16 + 1
        )
        stream = aes128_encrypt_block(app_s_key, counter)
        out.extend(a ^ b for a, b in zip(data[i : i + 16], stream))
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    dev_addr=st.binary(min_size=4, max_size=4),
    fcnt=st.integers(0, 2**32 - 1),
    direction=st.sampled_from([DIR_UP, DIR_DOWN]),
    data=st.binary(max_size=MAX_FRM_PAYLOAD),
)
def test_payload_keystream_matches_per_block_reference(key, dev_addr, fcnt, direction, data):
    expected = reference_encrypt_payload(key, dev_addr, fcnt, direction, data)
    assert encrypt_payload(key, dev_addr, fcnt, direction, data) == expected


def test_payload_encryption_parameter_sensitivity():
    plain = bytes(range(20))
    base = encrypt_payload(APP_S_KEY, DEV_ADDR, 5, DIR_UP, plain)
    assert encrypt_payload(APP_S_KEY, DEV_ADDR, 6, DIR_UP, plain) != base
    assert encrypt_payload(APP_S_KEY, DEV_ADDR, 5, DIR_DOWN, plain) != base
    assert encrypt_payload(APP_S_KEY, b"\x02\x00\x00\x01", 5, DIR_UP, plain) != base


def test_data_frame_frozen_wire():
    ct = bytes.fromhex(PAYLOAD_CT)
    frame = build_data_frame(NWK_S_KEY, DEV_ADDR, 5, 1, ct, DIR_UP)
    wire = serialize_frame(frame)
    assert wire.hex() == DATA_FRAME_WIRE
    assert len(wire) == DATA_OVERHEAD + len(ct)


def test_data_frame_parse_bijection():
    wire = bytes.fromhex(DATA_FRAME_WIRE)
    frame = parse_frame(wire)
    assert isinstance(frame, DataFrame)
    assert frame.dev_addr == DEV_ADDR
    assert frame.fcnt == 5
    assert frame.fport == 1
    assert frame.direction == DIR_UP
    assert frame.payload == bytes.fromhex(PAYLOAD_CT)
    assert verify_data_mic(frame, NWK_S_KEY)
    assert serialize_frame(frame) == wire


def test_data_frame_mic_covers_every_byte_and_direction():
    wire = bytearray.fromhex(DATA_FRAME_WIRE)
    for idx in range(len(wire) - 4):
        bad = bytearray(wire)
        bad[idx] ^= 0x01
        if idx == 0:
            # 0x40 ^ 0x01 = 0x41 is not a known frame type
            with pytest.raises(MalformedFrameError):
                parse_frame(bytes(bad))
            continue
        frame = parse_frame(bytes(bad))
        assert not verify_data_mic(frame, NWK_S_KEY), "byte %d uncovered" % idx
    # same bytes as a downlink must not verify: direction is in the MIC input
    down = DataFrame(
        dev_addr=DEV_ADDR,
        fcnt=5,
        fport=1,
        payload=bytes.fromhex(PAYLOAD_CT),
        mic=bytes.fromhex(DATA_FRAME_WIRE[-8:]),
        direction=DIR_DOWN,
    )
    assert not verify_data_mic(down, NWK_S_KEY)


def test_downlink_mhdr():
    frame = build_data_frame(NWK_S_KEY, DEV_ADDR, 0, 0, b"", DIR_DOWN)
    wire = serialize_frame(frame)
    assert wire[0] == 0x60
    assert len(wire) == DATA_OVERHEAD
    assert verify_data_mic(parse_frame(wire), NWK_S_KEY)


def test_empty_payload_allowed_and_bounds_enforced():
    build_data_frame(NWK_S_KEY, DEV_ADDR, 0, 0, b"", DIR_UP)
    build_data_frame(NWK_S_KEY, DEV_ADDR, 0, 0, bytes(MAX_FRM_PAYLOAD), DIR_UP)
    with pytest.raises(ValueError):
        build_data_frame(NWK_S_KEY, DEV_ADDR, 0, 0, bytes(MAX_FRM_PAYLOAD + 1), DIR_UP)
    with pytest.raises(ValueError):
        build_data_frame(NWK_S_KEY, DEV_ADDR, -1, 0, b"", DIR_UP)
    with pytest.raises(ValueError):
        build_data_frame(NWK_S_KEY, DEV_ADDR, 0x10000, 0, b"", DIR_UP)


def test_parse_rejects_malformed():
    with pytest.raises(MalformedFrameError):
        parse_frame(b"")
    with pytest.raises(MalformedFrameError):
        parse_frame(b"\x99" + bytes(22))
    with pytest.raises(MalformedFrameError):
        parse_frame(bytes.fromhex(JOIN_REQUEST_WIRE)[:-1])  # truncated join
    with pytest.raises(MalformedFrameError):
        parse_frame(b"\x40" + bytes(5))  # too short for a data frame
    with pytest.raises(MalformedFrameError):
        parse_frame(b"\x20" + bytes(17))  # join accept wrong length


def test_random_roundtrip_fuzz():
    """Build/serialize/parse/verify holds for randomized data frames."""
    rng = random.Random(1234)
    for _ in range(200):
        key = rng.randbytes(16)
        addr = rng.randbytes(4)
        fcnt = rng.randrange(0x10000)
        fport = rng.randrange(256)
        payload = rng.randbytes(rng.randrange(MAX_FRM_PAYLOAD + 1))
        direction = rng.choice((DIR_UP, DIR_DOWN))
        frame = build_data_frame(key, addr, fcnt, fport, payload, direction)
        parsed = parse_frame(serialize_frame(frame))
        assert parsed == frame
        assert verify_data_mic(parsed, key)
