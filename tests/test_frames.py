"""Radio frame layer: exact wire bytes, MIC coverage, parse bijection."""

import random
import struct
from dataclasses import FrozenInstanceError

import pytest
from cryptography.hazmat.primitives.ciphers import algorithms
from cryptography.hazmat.primitives.cmac import CMAC
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger.crypto import BadKeyError, RootKey, aes128_encrypt_block
from loraledger.frames import (
    DATA_OVERHEAD,
    DIR_DOWN,
    DIR_UP,
    DataFrame,
    EncryptedJoinAccept,
    JOIN_ACCEPT_LEN,
    JOIN_REQUEST_LEN,
    JoinAccept,
    JoinRequest,
    MAX_FRM_PAYLOAD,
    MHDR_DATA_DOWN,
    MHDR_DATA_UP,
    MalformedFrameError,
    MicMismatchError,
    SessionKeys,
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
APP_KEY = RootKey(bytes(range(16)))
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
KEYS = SessionKeys(DEV_ADDR, NWK_S_KEY, APP_S_KEY)


def test_join_request_frozen_wire():
    wire = build_join_request(APP_KEY, APP_EUI, DEV_EUI, DEV_NONCE)
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
    assert not verify_join_request(frame, RootKey(bytes(16)))


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
        open_join_accept(wire, RootKey(bytes(16)))


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
    ct = encrypt_payload(KEYS, 5, DIR_UP, plain)
    assert ct.hex() == PAYLOAD_CT
    assert decrypt_payload(KEYS, 5, DIR_UP, ct) == plain


def reference_encrypt_payload(app_s_key, dev_addr, fcnt, direction, data):
    """The keystream one AES block at a time, as the frame layer first computed it."""
    out = bytearray()
    for i in range(0, len(data), 16):
        counter = struct.pack(
            "<B4xB4sIxB", 0x01, direction, dev_addr, fcnt & 0xFFFFFFFF, i // 16 + 1
        )
        stream = aes128_encrypt_block(RootKey(app_s_key), counter)
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
    keys = SessionKeys(dev_addr, NWK_S_KEY, key)
    assert encrypt_payload(keys, fcnt, direction, data) == expected


def test_payload_encryption_parameter_sensitivity():
    plain = bytes(range(20))
    base = encrypt_payload(KEYS, 5, DIR_UP, plain)
    assert encrypt_payload(KEYS, 6, DIR_UP, plain) != base
    assert encrypt_payload(KEYS, 5, DIR_DOWN, plain) != base
    other_addr = SessionKeys(b"\x02\x00\x00\x01", NWK_S_KEY, APP_S_KEY)
    assert encrypt_payload(other_addr, 5, DIR_UP, plain) != base


def test_data_frame_frozen_wire():
    ct = bytes.fromhex(PAYLOAD_CT)
    wire = build_data_frame(KEYS, 5, 1, ct, DIR_UP)
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
    assert verify_data_mic(KEYS, wire)
    assert serialize_frame(frame) == wire


def test_data_frame_mic_covers_every_byte_and_direction():
    wire = bytearray.fromhex(DATA_FRAME_WIRE)
    for idx in range(len(wire)):
        bad = bytearray(wire)
        bad[idx] ^= 0x01
        if idx == 0:
            # 0x40 ^ 0x01 = 0x41 is not a known frame type
            with pytest.raises(MalformedFrameError):
                parse_frame(bytes(bad))
        assert not verify_data_mic(KEYS, bytes(bad)), "byte %d uncovered" % idx
    # same bytes as a downlink must not verify: direction is in the MIC input
    down = bytes([MHDR_DATA_DOWN]) + wire[1:]
    assert parse_frame(down).direction == DIR_DOWN
    assert not verify_data_mic(KEYS, down)


def test_downlink_mhdr():
    wire = build_data_frame(KEYS, 0, 0, b"", DIR_DOWN)
    assert wire[0] == 0x60
    assert len(wire) == DATA_OVERHEAD
    assert parse_frame(wire).direction == DIR_DOWN
    assert verify_data_mic(KEYS, wire)


def test_empty_payload_allowed_and_bounds_enforced():
    """Every field is checked before any is packed: ``4s`` would pad or cut silently."""
    build_data_frame(KEYS, 0, 0, b"", DIR_UP)
    build_data_frame(KEYS, 0, 0, bytes(MAX_FRM_PAYLOAD), DIR_UP)
    bad_data_fields = [
        (DEV_ADDR, 0, 0, bytes(MAX_FRM_PAYLOAD + 1), DIR_UP),
        (DEV_ADDR, -1, 0, b"", DIR_UP),
        (DEV_ADDR, 0x10000, 0, b"", DIR_UP),
        (DEV_ADDR, 0, 256, b"", DIR_UP),
        (DEV_ADDR, 0, -1, b"", DIR_UP),
        (DEV_ADDR[:3], 0, 0, b"", DIR_UP),
        (DEV_ADDR + b"\x00", 0, 0, b"", DIR_UP),
        (DEV_ADDR, 0, 0, b"", 2),
    ]
    for dev_addr, *fields in bad_data_fields:
        with pytest.raises(ValueError):
            build_data_frame(SessionKeys(dev_addr, NWK_S_KEY), *fields)
    with pytest.raises(ValueError):
        build_join_request(APP_KEY, APP_EUI, DEV_EUI[:7], DEV_NONCE)
    with pytest.raises(ValueError):
        build_join_request(APP_KEY, APP_EUI, DEV_EUI, DEV_NONCE + b"\x00")


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
    """Built wire bytes parse back to the drawn fields, verify, and re-serialize."""
    rng = random.Random(1234)
    for _ in range(200):
        keys = SessionKeys(dev_addr=rng.randbytes(4), nwk_s_key=rng.randbytes(16))
        fields = dict(
            fcnt=rng.randrange(0x10000),
            fport=rng.randrange(256),
            payload=rng.randbytes(rng.randrange(MAX_FRM_PAYLOAD + 1)),
            direction=rng.choice((DIR_UP, DIR_DOWN)),
        )
        wire = build_data_frame(keys, **fields)
        parsed = parse_frame(wire)
        assert parsed.dev_addr == keys.dev_addr
        assert {name: getattr(parsed, name) for name in fields} == fields
        assert verify_data_mic(keys, wire)
        assert serialize_frame(parsed) == wire


def test_build_join_accept_refuses_fields_of_the_wrong_length():
    """Lengths that only sum to 10 bytes would open as other fields, under a valid MIC."""
    bad_fields = [
        (b"abcd", b"xy", DEV_ADDR),
        (APP_NONCE[:2], NET_ID + b"\x00", DEV_ADDR),
        (APP_NONCE, NET_ID, DEV_ADDR[:3]),
        (APP_NONCE, NET_ID, DEV_ADDR + b"\x00"),
    ]
    for fields in bad_fields:
        with pytest.raises(ValueError, match="join accept field length mismatch"):
            build_join_accept(APP_KEY, *fields)


GOOD_DATA_FIELDS = dict(dev_addr=DEV_ADDR, fcnt=5, fport=1, payload=b"", direction=DIR_UP)


@pytest.mark.parametrize(
    "bad",
    [
        dict(dev_addr=DEV_ADDR[:3]),
        dict(dev_addr=DEV_ADDR + b"\x00"),
        dict(fcnt=-1),
        dict(fcnt=0x10000),
        dict(fport=256),
        dict(payload=bytes(MAX_FRM_PAYLOAD + 1)),
        dict(direction=2),
    ],
    ids=["addr-3", "addr-5", "fcnt-neg", "fcnt-17bit", "fport-256", "payload-243", "dir-2"],
)
def test_build_data_frame_raises_what_the_record_raises(bad):
    """A record is checked where it is packed; the keys and the builder must raise the same."""
    fields = {**GOOD_DATA_FIELDS, **bad}
    record = DataFrame(mic=bytes(4), **fields)  # the record itself takes any fields
    with pytest.raises(ValueError) as from_record:
        serialize_frame(record)
    dev_addr = fields.pop("dev_addr")
    with pytest.raises(ValueError) as from_builder:
        build_data_frame(SessionKeys(dev_addr, NWK_S_KEY), **fields)
    assert str(from_builder.value) == str(from_record.value)


@settings(max_examples=150, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    dev_addr=st.binary(min_size=4, max_size=4),
    fcnt=st.integers(0, 0xFFFF),
    fport=st.integers(0, 0xFF),
    payload=st.binary(max_size=MAX_FRM_PAYLOAD),
    direction=st.sampled_from([DIR_UP, DIR_DOWN]),
    mic=st.one_of(st.none(), st.binary(min_size=4, max_size=4)),
)
def test_parsed_data_frame_is_the_checked_record(
    key, dev_addr, fcnt, fport, payload, direction, mic
):
    """What ``parse_frame`` returns is the record ``serialize_frame`` accepts for the same fields."""
    keys = SessionKeys(dev_addr, key)
    fields = dict(fcnt=fcnt, fport=fport, payload=payload, direction=direction)
    data = build_data_frame(keys, **fields)
    if mic is not None:  # a drawn MIC, so the verdicts compared are sometimes False
        data = data[:-4] + mic
    parsed = parse_frame(data)
    record = DataFrame(dev_addr=dev_addr, mic=data[-4:], **fields)
    assert type(parsed) is DataFrame
    assert parsed == record and hash(parsed) == hash(record) and repr(parsed) == repr(record)
    assert serialize_frame(parsed) == data == serialize_frame(record)
    # the check over the wire bytes gives the verdict a check over the record's fields gives
    expected = reference_data_mic(key, serialize_frame(record)[:-4], direction) == record.mic
    assert verify_data_mic(keys, data) is expected
    with pytest.raises(AttributeError):
        parsed.fcnt = 0


def _mostly(good, bad):
    """Values from ``good``, and now and then one from ``bad``."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


def _bytes(size):
    """``size`` bytes, and now and then a byte string of a length near it."""
    return _mostly(st.binary(min_size=size, max_size=size), st.binary(max_size=size + 2))


_RECORDS = st.sampled_from([  # one_of would seldom draw the one-field record
    st.builds(JoinRequest, _bytes(8), _bytes(8), _bytes(2), _bytes(4)),
    st.builds(JoinAccept, _bytes(3), _bytes(3), _bytes(4), _bytes(4)),
    st.builds(EncryptedJoinAccept, st.binary(min_size=15, max_size=17)),
    st.builds(
        DataFrame,
        _bytes(4),
        _mostly(st.integers(0, 0xFFFF), st.sampled_from([-1, 0x10000])),
        _mostly(st.integers(0, 0xFF), st.sampled_from([-1, 0x100])),
        _mostly(st.binary(max_size=MAX_FRM_PAYLOAD), st.just(bytes(MAX_FRM_PAYLOAD + 1))),
        _bytes(4),
        _mostly(st.sampled_from([DIR_UP, DIR_DOWN]), st.sampled_from([-1, 2])),
    ),
]).flatmap(lambda records: records)


def _error(call):
    """The message of the ``ValueError`` the call raises, or None if it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(record=_RECORDS, nwk_s_key=st.binary(min_size=16, max_size=16))
def test_a_record_packs_to_bytes_that_parse_back_or_raises_the_builders_error(record, nwk_s_key):
    """Fields are checked only where they are packed, with the builder's error.

    ``serialize_frame`` checks a record's MIC or cipher last, after the fields
    the builder takes.  A plain join accept is packed by ``build_join_accept``
    and read back by ``open_join_accept``.
    """
    if isinstance(record, JoinAccept):
        expected = _error(lambda: build_join_accept(APP_KEY, *record[:3]))
        if expected is not None:
            assert expected == "join accept field length mismatch"
            return
        opened = open_join_accept(build_join_accept(APP_KEY, *record[:3]), APP_KEY)
        assert type(opened) is JoinAccept and opened[:3] == record[:3]
        return

    if isinstance(record, JoinRequest):
        expected = _error(lambda: build_join_request(APP_KEY, *record[:3]))
        if expected is None and len(record.mic) != 4:
            expected = "join request field length mismatch"
    elif isinstance(record, DataFrame):
        expected = _error(
            lambda: build_data_frame(
                SessionKeys(record.dev_addr, nwk_s_key), *record[1:4], record.direction
            )
        )
        if expected is None and len(record.mic) != 4:
            expected = "MIC must be 4 bytes"
    else:
        expected = None if len(record.cipher) == 16 else "join accept cipher must be one block"

    if expected is not None:
        with pytest.raises(ValueError) as raised:
            serialize_frame(record)
        assert str(raised.value) == expected
        return
    wire = serialize_frame(record)
    parsed = parse_frame(wire)
    assert type(parsed) is type(record) and parsed == record
    if not isinstance(record, DataFrame):
        return

    keys = SessionKeys(record.dev_addr, nwk_s_key)
    built = build_data_frame(keys, record.fcnt, record.fport, record.payload, record.direction)
    assert built[:-4] == wire[:-4]
    frame = parse_frame(built)
    assert type(frame) is DataFrame
    with pytest.raises(AttributeError):
        frame.fcnt = 0
    # the check over the wire bytes gives the verdict a direct CMAC gives, for
    # the built MIC and for the drawn one
    for data in (built, wire):
        reference = reference_data_mic(nwk_s_key, data[:-4], record.direction) == data[-4:]
        assert verify_data_mic(keys, data) is reference


def reference_data_mic(nwk_s_key, head, direction):
    """A data frame's MIC straight from ``cryptography``: CMAC over head | direction, cut to 4."""
    mac = CMAC(algorithms.AES(nwk_s_key))
    mac.update(head + bytes([direction]))
    return mac.finalize()[:4]


@settings(max_examples=150, deadline=None)
@given(
    nwk_s_key=st.binary(min_size=16, max_size=16),
    app_s_key=st.binary(min_size=16, max_size=16),
    dev_addr=st.binary(min_size=4, max_size=4),
    fcnt=st.integers(0, 0xFFFF),
    fport=st.integers(0, 0xFF),
    payload=st.binary(max_size=MAX_FRM_PAYLOAD),
    direction=st.sampled_from([DIR_UP, DIR_DOWN]),
    flip=st.tuples(st.integers(min_value=0), st.integers(1, 0xFF)),
)
def test_data_frame_matches_a_direct_cmac_and_any_flip_fails(
    nwk_s_key, app_s_key, dev_addr, fcnt, fport, payload, direction, flip
):
    """The built frame is the packed head plus a CMAC computed here; its check reads the bytes."""
    keys = SessionKeys(dev_addr, nwk_s_key, app_s_key)
    mhdr = (MHDR_DATA_UP, MHDR_DATA_DOWN)[direction]
    head = struct.pack("<B4sHB", mhdr, dev_addr, fcnt, fport) + payload
    wire = build_data_frame(keys, fcnt, fport, payload, direction)
    assert wire == head + reference_data_mic(nwk_s_key, head, direction)
    assert verify_data_mic(keys, wire)

    index, mask = flip
    flipped = bytearray(wire)
    flipped[index % len(wire)] ^= mask
    assert not verify_data_mic(keys, bytes(flipped))
    other_mhdr = (MHDR_DATA_DOWN, MHDR_DATA_UP)[direction]
    assert not verify_data_mic(keys, bytes([other_mhdr]) + wire[1:])


def test_session_keys_check_the_address_and_keys_once():
    SessionKeys(DEV_ADDR, NWK_S_KEY)  # the network controller's keys: no application key
    with pytest.raises(ValueError, match="device address must be 4 bytes"):
        SessionKeys(DEV_ADDR[:3], NWK_S_KEY, APP_S_KEY)
    with pytest.raises(BadKeyError):
        SessionKeys(DEV_ADDR, NWK_S_KEY[:15], APP_S_KEY)
    with pytest.raises(BadKeyError):
        SessionKeys(DEV_ADDR, NWK_S_KEY, APP_S_KEY + b"\x00")
    with pytest.raises(FrozenInstanceError):
        KEYS.nwk_s_key = bytes(16)
    assert not hasattr(KEYS, "__dict__")
    assert KEYS == SessionKeys(DEV_ADDR, NWK_S_KEY, APP_S_KEY)


def test_keys_without_an_application_key_build_and_check_frames_but_encrypt_nothing():
    controller = SessionKeys(DEV_ADDR, NWK_S_KEY)
    ack = build_data_frame(controller, 0, 0, b"", DIR_DOWN)
    assert verify_data_mic(KEYS, ack) and verify_data_mic(controller, ack)
    with pytest.raises(BadKeyError):
        encrypt_payload(controller, 0, DIR_DOWN, b"reading")


def test_verify_data_mic_refuses_bytes_that_are_no_data_frame():
    assert not verify_data_mic(KEYS, b"")
    assert not verify_data_mic(KEYS, bytes.fromhex(JOIN_REQUEST_WIRE))
    assert not verify_data_mic(KEYS, bytes.fromhex(DATA_FRAME_WIRE)[:-1])
