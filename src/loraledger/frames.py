"""LoRa frame formats: join request, join accept, and data frames.

Byte layouts are documented in docs/wire.md.  All integers are little-endian.
Frame MICs are 4-byte truncated CMACs; the MIC input always covers every byte
that precedes the MIC on the wire, plus a trailing direction byte for data
frames.

The four frame records are plain immutable values that check nothing
themselves.  Fields are checked where bytes meet fields: ``parse_frame``'s
length checks bound every field by the layout, and the ``build_*`` functions
and ``serialize_frame`` check each field they pack.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .crypto import (
    MIC_LEN,
    SYM_KEY_LEN,
    BadKeyError,
    RootKey,
    aes128_decrypt_block,
    aes128_encrypt_block,
    cmac_context,
    ecb_encryptor,
    mac32,
)

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.cmac import CMAC

MHDR_JOIN_REQUEST = 0x00
MHDR_JOIN_ACCEPT = 0x20
MHDR_DATA_UP = 0x40
MHDR_DATA_DOWN = 0x60

DIR_UP = 0
DIR_DOWN = 1

APP_EUI_LEN = 8
DEV_EUI_LEN = 8
DEV_NONCE_LEN = 2
APP_NONCE_LEN = 3
NET_ID_LEN = 3
DEV_ADDR_LEN = 4

JOIN_REQUEST_LEN = 1 + APP_EUI_LEN + DEV_EUI_LEN + DEV_NONCE_LEN + MIC_LEN  # 23
JOIN_ACCEPT_LEN = 1 + 16  # mhdr + one encrypted block
DATA_OVERHEAD = 1 + DEV_ADDR_LEN + 2 + 1 + MIC_LEN  # 12
MAX_FRM_PAYLOAD = 242
MAX_FCNT = 0xFFFF  # data-frame counters are 16 bits on the wire


class MalformedFrameError(Exception):
    """Wire bytes that do not form a valid frame."""


class MicMismatchError(Exception):
    """A frame whose integrity check failed."""


class JoinRequest(NamedTuple):
    app_eui: bytes
    dev_eui: bytes
    dev_nonce: bytes
    mic: bytes


class JoinAccept(NamedTuple):
    app_nonce: bytes
    net_id: bytes
    dev_addr: bytes
    mic: bytes


class EncryptedJoinAccept(NamedTuple):
    """A join accept as seen on the wire: opaque until opened with the root key."""

    cipher: bytes


class DataFrame(NamedTuple):
    dev_addr: bytes
    fcnt: int
    fport: int
    payload: bytes
    mic: bytes
    direction: int


def _check_dev_addr(dev_addr: bytes) -> None:
    if len(dev_addr) != DEV_ADDR_LEN:
        raise ValueError("device address must be %d bytes" % DEV_ADDR_LEN)


def _check_data_fields(fcnt: int, fport: int, payload: bytes, direction: int) -> None:
    """The per-frame field checks, shared by ``build_data_frame`` and ``serialize_frame``."""
    if not 0 <= fcnt <= MAX_FCNT:
        raise ValueError("frame counter out of range")
    if not 0 <= fport <= 0xFF:
        raise ValueError("port out of range")
    if len(payload) > MAX_FRM_PAYLOAD:
        raise ValueError("payload exceeds %d bytes" % MAX_FRM_PAYLOAD)
    if direction not in (DIR_UP, DIR_DOWN):
        raise ValueError("direction must be 0 (up) or 1 (down)")


@dataclass(frozen=True, slots=True)
class SessionKeys:
    """One session's data-frame keys, checked once, when the session is made.

    The network controller's keys have no application session key.  The
    keys build their own CMAC and ECB contexts on a frame's first use of
    them, never at construction, so a session that carries no data frame (a
    rejoin in a join storm) builds neither.
    """

    dev_addr: bytes
    nwk_s_key: bytes
    app_s_key: bytes | None = None
    _mic: CMAC | None = field(default=None, init=False, repr=False, compare=False)
    _keystream: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_dev_addr(self.dev_addr)
        if len(self.nwk_s_key) != SYM_KEY_LEN:
            raise BadKeyError("MIC key must be %d bytes" % SYM_KEY_LEN)
        if self.app_s_key is not None and len(self.app_s_key) != SYM_KEY_LEN:
            raise BadKeyError("block cipher key must be %d bytes" % SYM_KEY_LEN)

    def _bind_mic(self) -> CMAC:
        mic = cmac_context(self.nwk_s_key)
        object.__setattr__(self, "_mic", mic)
        return mic

    def _bind_keystream(self):
        if self.app_s_key is None:
            raise BadKeyError("these session keys hold no application session key")
        keystream = ecb_encryptor(self.app_s_key)
        object.__setattr__(self, "_keystream", keystream)
        return keystream


Frame = JoinRequest | EncryptedJoinAccept | DataFrame


_DATA_HEAD = struct.Struct("<B4sHB")  # mhdr | dev_addr | fcnt | fport
_DATA_MHDR = (MHDR_DATA_UP, MHDR_DATA_DOWN)  # indexed by direction
_DIRECTION_BYTE = (bytes([DIR_UP]), bytes([DIR_DOWN]))  # the MIC input's last byte
_MIC_DIRECTION = {  # a data frame's MHDR byte -> its direction byte
    bytes([MHDR_DATA_UP]): _DIRECTION_BYTE[DIR_UP],
    bytes([MHDR_DATA_DOWN]): _DIRECTION_BYTE[DIR_DOWN],
}


def _check_join_request(app_eui: bytes, dev_eui: bytes, dev_nonce: bytes) -> None:
    if (
        len(app_eui) != APP_EUI_LEN
        or len(dev_eui) != DEV_EUI_LEN
        or len(dev_nonce) != DEV_NONCE_LEN
    ):
        raise ValueError("join request field length mismatch")


def _join_request_head(app_eui: bytes, dev_eui: bytes, dev_nonce: bytes) -> bytes:
    """Every wire byte of a join request that precedes its MIC."""
    return bytes([MHDR_JOIN_REQUEST]) + app_eui + dev_eui + dev_nonce


def _join_accept_mic_input(app_nonce: bytes, net_id: bytes, dev_addr: bytes) -> bytes:
    return bytes([MHDR_JOIN_ACCEPT]) + app_nonce + net_id + dev_addr


def build_join_request(
    app_key: RootKey, app_eui: bytes, dev_eui: bytes, dev_nonce: bytes
) -> bytes:
    """The wire form; checks the fields before any is packed."""
    _check_join_request(app_eui, dev_eui, dev_nonce)
    head = _join_request_head(app_eui, dev_eui, dev_nonce)
    return head + mac32(app_key, head)


def verify_join_request(frame: JoinRequest, app_key: RootKey) -> bool:
    head = _join_request_head(frame.app_eui, frame.dev_eui, frame.dev_nonce)
    return mac32(app_key, head) == frame.mic


def build_join_accept(
    app_key: RootKey, app_nonce: bytes, net_id: bytes, dev_addr: bytes
) -> bytes:
    """Build the wire form: MIC over the plain fields, then encrypt one block.

    The 14 plain bytes (app_nonce | net_id | dev_addr | mic) are zero-padded
    to a block before encryption under the device root key.  Each field's
    length is checked: lengths that merely sum to 10 would open as other fields.
    """
    if (
        len(app_nonce) != APP_NONCE_LEN
        or len(net_id) != NET_ID_LEN
        or len(dev_addr) != DEV_ADDR_LEN
    ):
        raise ValueError("join accept field length mismatch")
    mic = mac32(app_key, _join_accept_mic_input(app_nonce, net_id, dev_addr))
    plain = app_nonce + net_id + dev_addr + mic + b"\x00\x00"
    return bytes([MHDR_JOIN_ACCEPT]) + aes128_encrypt_block(app_key, plain)


def open_join_accept(data: bytes, app_key: RootKey) -> JoinAccept:
    """Decrypt and MIC-check a join accept; raises on any failure."""
    if len(data) != JOIN_ACCEPT_LEN or data[0] != MHDR_JOIN_ACCEPT:
        raise MalformedFrameError("not a join accept")
    plain = aes128_decrypt_block(app_key, data[1:])
    app_nonce = plain[:3]
    net_id = plain[3:6]
    dev_addr = plain[6:10]
    mic = plain[10:14]
    if mac32(app_key, _join_accept_mic_input(app_nonce, net_id, dev_addr)) != mic:
        raise MicMismatchError("join accept failed integrity check")
    return JoinAccept(app_nonce=app_nonce, net_id=net_id, dev_addr=dev_addr, mic=mic)


def build_data_frame(
    keys: SessionKeys, fcnt: int, fport: int, payload: bytes, direction: int
) -> bytes:
    """The wire form around an already-encrypted payload.

    Checks each field before any is packed, with the errors ``serialize_frame``
    gives for the same fields; ``keys`` checked the address and key.
    """
    _check_data_fields(fcnt, fport, payload, direction)
    head = _DATA_HEAD.pack(_DATA_MHDR[direction], keys.dev_addr, fcnt, fport) + payload
    mac = (keys._mic or keys._bind_mic()).copy()
    mac.update(head + _DIRECTION_BYTE[direction])
    return head + mac.finalize()[:MIC_LEN]


def verify_data_mic(keys: SessionKeys, data: bytes) -> bool:
    """Check the MIC of a data frame's wire bytes; False for bytes of any other kind.

    The received bytes before the MIC are the frame head, so the MIC input is
    those bytes plus the direction byte the MHDR names; nothing is re-packed.
    """
    direction = _MIC_DIRECTION.get(data[:1])
    if direction is None:
        return False
    mac = (keys._mic or keys._bind_mic()).copy()
    mac.update(data[:-MIC_LEN] + direction)
    return mac.finalize()[:MIC_LEN] == data[-MIC_LEN:]


def serialize_frame(frame: Frame) -> bytes:
    """The wire bytes of a record, ``parse_frame``'s inverse.

    Checks every field before any is packed, with the builder's error for the
    same fields; a MIC or cipher of the wrong length is checked last.
    """
    if isinstance(frame, DataFrame):
        _check_dev_addr(frame.dev_addr)
        _check_data_fields(frame.fcnt, frame.fport, frame.payload, frame.direction)
        if len(frame.mic) != MIC_LEN:
            raise ValueError("MIC must be %d bytes" % MIC_LEN)
        mhdr = _DATA_MHDR[frame.direction]
        head = _DATA_HEAD.pack(mhdr, frame.dev_addr, frame.fcnt, frame.fport) + frame.payload
        return head + frame.mic
    if isinstance(frame, JoinRequest):
        _check_join_request(frame.app_eui, frame.dev_eui, frame.dev_nonce)
        if len(frame.mic) != MIC_LEN:
            raise ValueError("join request field length mismatch")
        return _join_request_head(frame.app_eui, frame.dev_eui, frame.dev_nonce) + frame.mic
    if isinstance(frame, EncryptedJoinAccept):
        if len(frame.cipher) != 16:
            raise ValueError("join accept cipher must be one block")
        return bytes([MHDR_JOIN_ACCEPT]) + frame.cipher
    raise TypeError("not a frame: %r" % (frame,))


def parse_frame(data: bytes) -> Frame:
    """Parse wire bytes; join accepts stay encrypted (open_join_accept opens them)."""
    if not data:
        raise MalformedFrameError("empty frame")
    mhdr = data[0]
    if mhdr == MHDR_JOIN_REQUEST:
        if len(data) != JOIN_REQUEST_LEN:
            raise MalformedFrameError("join request must be %d bytes" % JOIN_REQUEST_LEN)
        return JoinRequest(
            app_eui=data[1:9], dev_eui=data[9:17], dev_nonce=data[17:19], mic=data[19:23]
        )
    if mhdr == MHDR_JOIN_ACCEPT:
        if len(data) != JOIN_ACCEPT_LEN:
            raise MalformedFrameError("join accept must be %d bytes" % JOIN_ACCEPT_LEN)
        return EncryptedJoinAccept(cipher=data[1:])
    if mhdr in (MHDR_DATA_UP, MHDR_DATA_DOWN):
        if len(data) < DATA_OVERHEAD:
            raise MalformedFrameError("data frame shorter than %d bytes" % DATA_OVERHEAD)
        if len(data) > DATA_OVERHEAD + MAX_FRM_PAYLOAD:
            raise MalformedFrameError("payload exceeds %d bytes" % MAX_FRM_PAYLOAD)
        _, dev_addr, fcnt, fport = _DATA_HEAD.unpack_from(data)
        direction = DIR_UP if mhdr == MHDR_DATA_UP else DIR_DOWN
        return DataFrame(dev_addr, fcnt, fport, data[8:-4], data[-4:], direction)
    raise MalformedFrameError("unknown frame type 0x%02x" % mhdr)


_COUNTER_PREFIX = struct.Struct("<B4xB4sIx")  # 0x01 | 4 zeros | dir | dev_addr | fcnt | 0x00
# bytes.join separators: prefix.join(_BLOCK_INDEXES[n]) lays out the n
# counter blocks prefix | 1, prefix | 2, ..., prefix | n
_BLOCK_INDEXES = tuple(
    (b"",) + tuple(bytes([i]) for i in range(1, n + 1))
    for n in range((MAX_FRM_PAYLOAD + 15) // 16 + 1)
)


def encrypt_payload(keys: SessionKeys, fcnt: int, direction: int, data: bytes) -> bytes:
    """Counter-mode payload encryption keyed by (dev_addr, fcnt, direction).

    XOR with a keystream of encrypted counter blocks; applying it twice with
    the same parameters restores the plaintext.
    """
    if direction not in (DIR_UP, DIR_DOWN):
        raise ValueError("direction must be 0 (up) or 1 (down)")
    if len(data) > MAX_FRM_PAYLOAD:
        raise ValueError("payload exceeds %d bytes" % MAX_FRM_PAYLOAD)
    if not data:
        return b""
    prefix = _COUNTER_PREFIX.pack(0x01, direction, keys.dev_addr, fcnt & 0xFFFFFFFF)
    counters = prefix.join(_BLOCK_INDEXES[(len(data) + 15) // 16])
    stream = (keys._keystream or keys._bind_keystream()).update(counters)[: len(data)]
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


decrypt_payload = encrypt_payload
