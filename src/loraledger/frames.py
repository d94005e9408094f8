"""LoRa frame formats: join request, join accept, and data frames.

Byte layouts are documented in docs/wire.md.  All integers are little-endian.
Frame MICs are 4-byte truncated CMACs; the MIC input always covers every byte
that precedes the MIC on the wire, plus a trailing direction byte for data
frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .crypto import aes128_decrypt_block, aes128_encrypt_block, aes128_encrypt_blocks, mac32

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
MIC_LEN = 4

JOIN_REQUEST_LEN = 1 + APP_EUI_LEN + DEV_EUI_LEN + DEV_NONCE_LEN + MIC_LEN  # 23
JOIN_ACCEPT_LEN = 1 + 16  # mhdr + one encrypted block
DATA_OVERHEAD = 1 + DEV_ADDR_LEN + 2 + 1 + MIC_LEN  # 12
MAX_FRM_PAYLOAD = 242


class MalformedFrameError(Exception):
    """Wire bytes that do not form a valid frame."""


class MicMismatchError(Exception):
    """A frame whose integrity check failed."""


@dataclass(frozen=True)
class JoinRequest:
    app_eui: bytes
    dev_eui: bytes
    dev_nonce: bytes
    mic: bytes

    def __post_init__(self) -> None:
        if (
            len(self.app_eui) != APP_EUI_LEN
            or len(self.dev_eui) != DEV_EUI_LEN
            or len(self.dev_nonce) != DEV_NONCE_LEN
            or len(self.mic) != MIC_LEN
        ):
            raise ValueError("join request field length mismatch")


@dataclass(frozen=True)
class JoinAccept:
    app_nonce: bytes
    net_id: bytes
    dev_addr: bytes
    mic: bytes

    def __post_init__(self) -> None:
        if (
            len(self.app_nonce) != APP_NONCE_LEN
            or len(self.net_id) != NET_ID_LEN
            or len(self.dev_addr) != DEV_ADDR_LEN
            or len(self.mic) != MIC_LEN
        ):
            raise ValueError("join accept field length mismatch")


@dataclass(frozen=True)
class EncryptedJoinAccept:
    """A join accept as seen on the wire: opaque until opened with the root key."""

    cipher: bytes

    def __post_init__(self) -> None:
        if len(self.cipher) != 16:
            raise ValueError("join accept cipher must be one block")


@dataclass(frozen=True)
class DataFrame:
    dev_addr: bytes
    fcnt: int
    fport: int
    payload: bytes
    mic: bytes
    direction: int

    def __post_init__(self) -> None:
        if len(self.dev_addr) != DEV_ADDR_LEN or len(self.mic) != MIC_LEN:
            raise ValueError("data frame field length mismatch")
        if not 0 <= self.fcnt <= 0xFFFF:
            raise ValueError("frame counter out of range")
        if not 0 <= self.fport <= 0xFF:
            raise ValueError("port out of range")
        if len(self.payload) > MAX_FRM_PAYLOAD:
            raise ValueError("payload exceeds %d bytes" % MAX_FRM_PAYLOAD)
        if self.direction not in (DIR_UP, DIR_DOWN):
            raise ValueError("direction must be 0 (up) or 1 (down)")


Frame = JoinRequest | EncryptedJoinAccept | DataFrame


def _join_request_mic_input(frame: JoinRequest) -> bytes:
    return bytes([MHDR_JOIN_REQUEST]) + frame.app_eui + frame.dev_eui + frame.dev_nonce


def _join_accept_mic_input(app_nonce: bytes, net_id: bytes, dev_addr: bytes) -> bytes:
    return bytes([MHDR_JOIN_ACCEPT]) + app_nonce + net_id + dev_addr


def _data_mic_input(frame: DataFrame) -> bytes:
    mhdr = MHDR_DATA_UP if frame.direction == DIR_UP else MHDR_DATA_DOWN
    head = struct.pack("<B4sHB", mhdr, frame.dev_addr, frame.fcnt, frame.fport)
    return head + frame.payload + bytes([frame.direction])


def build_join_request(
    app_key: bytes, app_eui: bytes, dev_eui: bytes, dev_nonce: bytes
) -> JoinRequest:
    partial = JoinRequest(app_eui=app_eui, dev_eui=dev_eui, dev_nonce=dev_nonce, mic=b"\x00" * 4)
    mic = mac32(app_key, _join_request_mic_input(partial))
    return JoinRequest(app_eui=app_eui, dev_eui=dev_eui, dev_nonce=dev_nonce, mic=mic)


def verify_join_request(frame: JoinRequest, app_key: bytes) -> bool:
    return mac32(app_key, _join_request_mic_input(frame)) == frame.mic


def build_join_accept(
    app_key: bytes, app_nonce: bytes, net_id: bytes, dev_addr: bytes
) -> bytes:
    """Build the wire form: MIC over the plain fields, then encrypt one block.

    The 14 plain bytes (app_nonce | net_id | dev_addr | mic) are zero-padded
    to a block before encryption under the device root key.
    """
    mic = mac32(app_key, _join_accept_mic_input(app_nonce, net_id, dev_addr))
    plain = app_nonce + net_id + dev_addr + mic + b"\x00\x00"
    return bytes([MHDR_JOIN_ACCEPT]) + aes128_encrypt_block(app_key, plain)


def open_join_accept(data: bytes, app_key: bytes) -> JoinAccept:
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
    nwk_s_key: bytes,
    dev_addr: bytes,
    fcnt: int,
    fport: int,
    payload: bytes,
    direction: int,
) -> DataFrame:
    """Assemble a data frame around an already-encrypted payload."""
    partial = DataFrame(
        dev_addr=dev_addr,
        fcnt=fcnt,
        fport=fport,
        payload=payload,
        mic=b"\x00" * 4,
        direction=direction,
    )
    mic = mac32(nwk_s_key, _data_mic_input(partial))
    return DataFrame(
        dev_addr=dev_addr,
        fcnt=fcnt,
        fport=fport,
        payload=payload,
        mic=mic,
        direction=direction,
    )


def verify_data_mic(frame: DataFrame, nwk_s_key: bytes) -> bool:
    return mac32(nwk_s_key, _data_mic_input(frame)) == frame.mic


def serialize_frame(frame: Frame) -> bytes:
    if isinstance(frame, JoinRequest):
        return bytes([MHDR_JOIN_REQUEST]) + frame.app_eui + frame.dev_eui + frame.dev_nonce + frame.mic
    if isinstance(frame, EncryptedJoinAccept):
        return bytes([MHDR_JOIN_ACCEPT]) + frame.cipher
    if isinstance(frame, DataFrame):
        mhdr = MHDR_DATA_UP if frame.direction == DIR_UP else MHDR_DATA_DOWN
        head = struct.pack("<B4sHB", mhdr, frame.dev_addr, frame.fcnt, frame.fport)
        return head + frame.payload + frame.mic
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
        _, dev_addr, fcnt, fport = struct.unpack_from("<B4sHB", data, 0)
        return DataFrame(
            dev_addr=dev_addr,
            fcnt=fcnt,
            fport=fport,
            payload=data[8:-4],
            mic=data[-4:],
            direction=DIR_UP if mhdr == MHDR_DATA_UP else DIR_DOWN,
        )
    raise MalformedFrameError("unknown frame type 0x%02x" % mhdr)


def encrypt_payload(
    app_s_key: bytes, dev_addr: bytes, fcnt: int, direction: int, data: bytes
) -> bytes:
    """Counter-mode payload encryption keyed by (dev_addr, fcnt, direction).

    XOR with a keystream of encrypted counter blocks; applying it twice with
    the same parameters restores the plaintext.
    """
    if len(dev_addr) != DEV_ADDR_LEN:
        raise ValueError("device address must be %d bytes" % DEV_ADDR_LEN)
    if direction not in (DIR_UP, DIR_DOWN):
        raise ValueError("direction must be 0 (up) or 1 (down)")
    if len(data) > MAX_FRM_PAYLOAD:
        raise ValueError("payload exceeds %d bytes" % MAX_FRM_PAYLOAD)
    if not data:
        return b""
    prefix = struct.pack("<B4xB4sIx", 0x01, direction, dev_addr, fcnt & 0xFFFFFFFF)
    counters = b"".join(prefix + bytes([i]) for i in range(1, (len(data) + 15) // 16 + 1))
    stream = aes128_encrypt_blocks(app_s_key, counters)[: len(data)]
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


decrypt_payload = encrypt_payload
