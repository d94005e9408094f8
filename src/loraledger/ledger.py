"""Append-only ledgers: session contexts (network) and app payloads (application).

A transaction is <requester, signature, timestamp, payload>.  On the network
ledger the payload is a session context sealed to the requester's own public
key, with the device address and EUI riding as authenticated clear metadata
so every replica can maintain world state without being able to decrypt.  On
the application ledger the payload is the still-encrypted application data,
stored exactly as the device sent it.

Blocks carry <index, header, body> where the header is
<timestamp, merkle_root, prev_hash> and prev_hash commits to the full
serialized predecessor.  Wire layouts are documented in docs/wire.md.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from random import Random

from .crypto import (
    CryptoError,
    DecryptionError,
    KeyDirectory,
    ROLE_SERVER,
    SIGNATURE_LEN,
    envelope_aad,
    hash_bytes,
    pk_encrypt,
    sign,
)

KIND_NETWORK = "network"
KIND_APPLICATION = "application"

GENESIS_PREV_HASH = b"\x00" * 32

DUMP_MAGIC = b"HLRA"
DUMP_VERSION = 1

_KIND_CODES = {KIND_NETWORK: 0, KIND_APPLICATION: 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_ROLE_CODES = {"gateway": 0, "server": 1}
_ROLE_NAMES = {code: role for role, code in _ROLE_CODES.items()}

DEV_EUI_LEN = 8
APP_KEY_LEN = 16
DEV_ADDR_LEN = 4
NWK_S_KEY_LEN = 16
DEV_NONCE_LEN = 2
APP_NONCE_LEN = 3
SESSION_CONTEXT_LEN = (
    DEV_EUI_LEN + APP_KEY_LEN + DEV_ADDR_LEN + NWK_S_KEY_LEN + DEV_NONCE_LEN + APP_NONCE_LEN
)  # 49


class InvalidBlockError(Exception):
    """A block that fails validation against its ledger position."""


class ChainIntegrityError(Exception):
    """A serialized chain that fails structural or cryptographic checks."""


@dataclass(frozen=True)
class SessionContext:
    """Everything a network needs to serve one joined device (no app session key)."""

    dev_eui: bytes
    app_key: bytes
    dev_addr: bytes
    nwk_s_key: bytes
    dev_nonce: bytes
    app_nonce: bytes

    def __post_init__(self) -> None:
        lengths = (
            (self.dev_eui, DEV_EUI_LEN),
            (self.app_key, APP_KEY_LEN),
            (self.dev_addr, DEV_ADDR_LEN),
            (self.nwk_s_key, NWK_S_KEY_LEN),
            (self.dev_nonce, DEV_NONCE_LEN),
            (self.app_nonce, APP_NONCE_LEN),
        )
        if any(len(field) != want for field, want in lengths):
            raise ValueError("session context field length mismatch")

    def to_bytes(self) -> bytes:
        return (
            self.dev_eui
            + self.app_key
            + self.dev_addr
            + self.nwk_s_key
            + self.dev_nonce
            + self.app_nonce
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SessionContext":
        if len(data) != SESSION_CONTEXT_LEN:
            raise ValueError("session context must be %d bytes" % SESSION_CONTEXT_LEN)
        return cls(
            dev_eui=data[0:8],
            app_key=data[8:24],
            dev_addr=data[24:28],
            nwk_s_key=data[28:44],
            dev_nonce=data[44:46],
            app_nonce=data[46:49],
        )


@dataclass(frozen=True)
class Transaction:
    """One signed ledger entry; the signature doubles as the tx digest."""

    requester: str
    signature: bytes
    timestamp_ms: int
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.signature) != SIGNATURE_LEN:
            raise ValueError("signature must be %d bytes" % SIGNATURE_LEN)
        if self.timestamp_ms < 0:
            raise ValueError("timestamp must be non-negative")
        if not self.payload:
            raise ValueError("transaction payload must be non-empty")

    def signed_span(self) -> bytes:
        return struct.pack("<Q", self.timestamp_ms) + self.payload

    def to_bytes(self) -> bytes:
        ident = self.requester.encode("utf-8")
        return b"".join(
            [
                struct.pack("<H", len(ident)),
                ident,
                struct.pack("<H", len(self.signature)),
                self.signature,
                struct.pack("<Q", self.timestamp_ms),
                struct.pack("<I", len(self.payload)),
                self.payload,
            ]
        )


def _read_tx(data: bytes, offset: int) -> tuple[Transaction, int]:
    try:
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        requester = data[offset : offset + id_len].decode("utf-8")
        if len(data) - offset < id_len:
            raise ChainIntegrityError("truncated requester id")
        offset += id_len
        (sig_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        signature = data[offset : offset + sig_len]
        if len(signature) != sig_len:
            raise ChainIntegrityError("truncated signature")
        offset += sig_len
        (timestamp_ms,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        (payload_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        payload = data[offset : offset + payload_len]
        if len(payload) != payload_len:
            raise ChainIntegrityError("truncated payload")
        offset += payload_len
        tx = Transaction(
            requester=requester, signature=signature, timestamp_ms=timestamp_ms, payload=payload
        )
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise ChainIntegrityError("malformed transaction encoding") from exc
    return tx, offset


def transaction_from_bytes(data: bytes) -> Transaction:
    tx, offset = _read_tx(data, 0)
    if offset != len(data):
        raise ChainIntegrityError("trailing bytes after transaction")
    return tx


def make_network_tx(
    keypair, context: SessionContext, timestamp_ms: int, rng: Random
) -> Transaction:
    """Seal a session context to the requester's own key and sign it.

    The device address and EUI ride as authenticated envelope metadata: that
    is what lets every replica key its world state while the context itself
    stays readable only by the requester.
    """
    envelope = pk_encrypt(
        keypair.public_key,
        context.to_bytes(),
        rng,
        aad=context.dev_addr + context.dev_eui,
    )
    signature = sign(keypair.private_key, struct.pack("<Q", timestamp_ms) + envelope)
    return Transaction(
        requester=keypair.entity_id,
        signature=signature,
        timestamp_ms=timestamp_ms,
        payload=envelope,
    )


def make_app_tx(keypair, payload: bytes, timestamp_ms: int) -> Transaction:
    """Sign an application payload as-is; it stays session-key encrypted."""
    signature = sign(keypair.private_key, struct.pack("<Q", timestamp_ms) + payload)
    return Transaction(
        requester=keypair.entity_id,
        signature=signature,
        timestamp_ms=timestamp_ms,
        payload=payload,
    )


def build_merkle(leaves: list[bytes]) -> bytes:
    """Merkle root over ordered leaves, carrying an odd node up unhashed.

    With R = 2^x + y leaves the tree is built over x+1 levels; at each level
    pairs are hashed together and a trailing odd node is promoted as-is.  A
    single leaf is its own root.
    """
    if not leaves:
        raise ValueError("at least one leaf required")
    r = len(leaves)
    x = r.bit_length() - 1  # largest power of two not exceeding r
    row = list(leaves)
    for z in range(1, x + 2):
        above = -(-r // (2**z))  # ceil
        below = len(row)
        row = [
            hash_bytes(row[2 * i] + row[2 * i + 1]) if 2 * i + 1 < below else row[2 * i]
            for i in range(above)
        ]
    return row[0]


@dataclass(frozen=True)
class Block:
    """<index, header, body>: header = <timestamp, merkle_root, prev_hash>."""

    zeta: int
    tau_ms: int
    merkle_root: bytes
    prev_hash: bytes
    txs: tuple[Transaction, ...]

    def __post_init__(self) -> None:
        if self.zeta < 0:
            raise ValueError("block index must be non-negative")
        if len(self.prev_hash) != 32:
            raise ValueError("prev hash must be 32 bytes")
        if not self.txs:
            raise ValueError("block body must hold at least one transaction")

    def header_bytes(self) -> bytes:
        return (
            struct.pack("<Q", self.tau_ms)
            + struct.pack("<H", len(self.merkle_root))
            + self.merkle_root
            + self.prev_hash
        )

    def body_bytes(self) -> bytes:
        return struct.pack("<I", len(self.txs)) + b"".join(tx.to_bytes() for tx in self.txs)

    def to_bytes(self) -> bytes:
        return struct.pack("<Q", self.zeta) + self.header_bytes() + self.body_bytes()


def block_hash(block: Block) -> bytes:
    """Digest over index | header | body; this is what links and votes commit to."""
    return hash_bytes(block.to_bytes())


def block_from_bytes(data: bytes) -> Block:
    try:
        offset = 0
        (zeta,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        (tau_ms,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        (root_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        merkle_root = data[offset : offset + root_len]
        if len(merkle_root) != root_len:
            raise ChainIntegrityError("truncated merkle root")
        offset += root_len
        prev_hash = data[offset : offset + 32]
        if len(prev_hash) != 32:
            raise ChainIntegrityError("truncated prev hash")
        offset += 32
        (tx_count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        txs = []
        for _ in range(tx_count):
            tx, offset = _read_tx(data, offset)
            txs.append(tx)
        if offset != len(data):
            raise ChainIntegrityError("trailing bytes after block body")
        return Block(
            zeta=zeta,
            tau_ms=tau_ms,
            merkle_root=merkle_root,
            prev_hash=prev_hash,
            txs=tuple(txs),
        )
    except (struct.error, ValueError) as exc:
        raise ChainIntegrityError("malformed block encoding") from exc


def assemble_block(
    txs: list[Transaction], zeta: int, tau_ms: int, prev_block: Block | None
) -> Block:
    """Build a block over a transaction batch; genesis gets an all-zero prev hash."""
    if not txs:
        raise ValueError("cannot assemble an empty block")
    prev_hash = GENESIS_PREV_HASH if prev_block is None else block_hash(prev_block)
    merkle_root = build_merkle([tx.signature for tx in txs])
    return Block(
        zeta=zeta, tau_ms=tau_ms, merkle_root=merkle_root, prev_hash=prev_hash, txs=tuple(txs)
    )


def context_metadata(payload: bytes) -> tuple[bytes, bytes] | None:
    """(device address, device EUI) from a context envelope's clear metadata.

    None when the envelope is truncated or its metadata is not addr(4) | eui(8).
    """
    try:
        aad = envelope_aad(payload)
    except DecryptionError:
        return None
    if len(aad) != DEV_ADDR_LEN + DEV_EUI_LEN:
        return None
    return aad[:DEV_ADDR_LEN], aad[DEV_ADDR_LEN:]


def validate_block(
    block: Block, prev_block: Block | None, key_directory: KeyDirectory, kind: str
) -> bool:
    """Full verdict over one block in its chain position on a ledger of ``kind``.

    This is the one acceptance rule: a replica appends, a voter votes valid
    and a chain dump loads exactly when it holds.  It checks that the index
    increments from the predecessor (0 at genesis) and prev_hash matches the
    serialized predecessor (all-zero at genesis), then ``validate_body``.
    """
    if kind not in _KIND_CODES:
        raise ValueError("kind must be %r or %r" % (KIND_NETWORK, KIND_APPLICATION))
    if prev_block is None:
        if block.zeta != 0 or block.prev_hash != GENESIS_PREV_HASH:
            return False
    else:
        if block.zeta != prev_block.zeta + 1:
            return False
        if block.prev_hash != block_hash(prev_block):
            return False
    return validate_body(block, key_directory, kind)


def validate_body(block: Block, key_directory: KeyDirectory, kind: str) -> bool:
    """The part of ``validate_block`` that does not depend on the chain position.

    The Merkle root recomputes from the tx signatures, and for every tx: the
    requester is registered, only servers write the application chain,
    network-chain context metadata is addr(4) | eui(8), and the signature
    verifies.  A block failing it can never be appended at any height.
    """
    if kind not in _KIND_CODES:
        raise ValueError("kind must be %r or %r" % (KIND_NETWORK, KIND_APPLICATION))
    if block.merkle_root != build_merkle([tx.signature for tx in block.txs]):
        return False
    for tx in block.txs:
        if tx.requester not in key_directory:
            return False
        if kind == KIND_APPLICATION and key_directory.role(tx.requester) != ROLE_SERVER:
            return False
        if kind == KIND_NETWORK and context_metadata(tx.payload) is None:
            return False
        if not key_directory.verify(tx.requester, tx.signed_span(), tx.signature):
            return False
    return True


@dataclass(frozen=True)
class WorldEntry:
    """Latest committed context for one device address, still sealed."""

    requester: str
    envelope: bytes
    timestamp_ms: int
    zeta: int


class Ledger:
    """One replica's copy of a chain plus, for the network kind, world state."""

    def __init__(self, kind: str) -> None:
        if kind not in _KIND_CODES:
            raise ValueError("kind must be %r or %r" % (KIND_NETWORK, KIND_APPLICATION))
        self.kind = kind
        self.blocks: list[Block] = []
        self.world_state: dict[bytes, WorldEntry] = {}

    @classmethod
    def replay(cls, kind: str, blocks: list[Block], key_directory: KeyDirectory) -> "Ledger":
        """A fresh replica holding ``blocks``; raises ChainIntegrityError on a rejection."""
        ledger = cls(kind)
        try:
            for block in blocks:
                ledger.append_block(block, key_directory)
        except InvalidBlockError as exc:
            raise ChainIntegrityError("chain failed validation: %s" % exc) from exc
        return ledger

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def tip(self) -> Block | None:
        return self.blocks[-1] if self.blocks else None

    def append_block(self, block: Block, key_directory: KeyDirectory) -> None:
        """Validate against the current tip, append and index; rejection changes nothing."""
        if not validate_block(block, self.tip, key_directory, self.kind):
            raise InvalidBlockError("block %d rejected at height %d" % (block.zeta, self.height))
        self.blocks.append(block)
        if self.kind == KIND_NETWORK:
            for tx in block.txs:
                dev_addr, _ = context_metadata(tx.payload)
                self.world_state[dev_addr] = WorldEntry(
                    requester=tx.requester,
                    envelope=tx.payload,
                    timestamp_ms=tx.timestamp_ms,
                    zeta=block.zeta,
                )

    def query_context(self, dev_addr: bytes) -> WorldEntry | None:
        """Latest committed entry for a device address; None signals unknown."""
        return self.world_state.get(dev_addr)

    def validate_chain(self, key_directory: KeyDirectory) -> bool:
        return all(
            validate_block(block, prev, key_directory, self.kind)
            for prev, block in zip([None, *self.blocks], self.blocks)
        )

    def sync_from(self, peer: "Ledger", key_directory: KeyDirectory) -> None:
        """Replace this replica's state with a validated copy of a peer's chain.

        Raises ChainIntegrityError, leaving this replica untouched, when any
        peer block fails validation.
        """
        if peer.kind != self.kind:
            raise ValueError("cannot sync across ledger kinds")
        copy = Ledger.replay(self.kind, peer.blocks, key_directory)
        self.blocks, self.world_state = copy.blocks, copy.world_state


def dump_chain(ledger: Ledger, key_directory: KeyDirectory) -> bytes:
    """Serialize a chain for interchange; see docs/wire.md.

    The trailer digest covers every preceding byte, anchoring fields (such as
    the tip block's header timestamp) that no in-chain rule would otherwise
    commit to.  The key table makes signature verification self-contained.
    """
    out = bytearray()
    out += DUMP_MAGIC
    out += struct.pack("<H", DUMP_VERSION)
    out += struct.pack("<B", _KIND_CODES[ledger.kind])
    entries = key_directory.items()
    out += struct.pack("<I", len(entries))
    for entity_id, public_key, role in entries:
        ident = entity_id.encode("utf-8")
        out += struct.pack("<H", len(ident))
        out += ident
        out += struct.pack("<B", _ROLE_CODES[role])
        out += struct.pack("<H", len(public_key))
        out += public_key
    out += struct.pack("<I", ledger.height)
    for block in ledger.blocks:
        raw = block.to_bytes()
        out += struct.pack("<I", len(raw))
        out += raw
    out += hash_bytes(bytes(out))
    return bytes(out)


def load_chain(data: bytes) -> tuple[Ledger, KeyDirectory]:
    """Parse and fully validate a chain dump; any corruption raises."""
    if len(data) < 4 + 2 + 1 + 4 + 4 + 32:
        raise ChainIntegrityError("dump too short")
    body, trailer = data[:-32], data[-32:]
    if hash_bytes(body) != trailer:
        raise ChainIntegrityError("dump digest mismatch")
    if body[:4] != DUMP_MAGIC:
        raise ChainIntegrityError("bad magic")
    offset = 4
    (version,) = struct.unpack_from("<H", body, offset)
    offset += 2
    if version != DUMP_VERSION:
        raise ChainIntegrityError("unsupported dump version %d" % version)
    (kind_code,) = struct.unpack_from("<B", body, offset)
    offset += 1
    if kind_code not in _KIND_NAMES:
        raise ChainIntegrityError("unknown ledger kind %d" % kind_code)
    directory = KeyDirectory()
    try:
        (entry_count,) = struct.unpack_from("<I", body, offset)
        offset += 4
        for _ in range(entry_count):
            (id_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            entity_id = body[offset : offset + id_len].decode("utf-8")
            offset += id_len
            (role_code,) = struct.unpack_from("<B", body, offset)
            offset += 1
            if role_code not in _ROLE_NAMES:
                raise ChainIntegrityError("unknown role code %d" % role_code)
            (pub_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            public_key = body[offset : offset + pub_len]
            if len(public_key) != pub_len:
                raise ChainIntegrityError("truncated public key")
            offset += pub_len
            try:
                directory.add(entity_id, public_key, _ROLE_NAMES[role_code])
            except CryptoError as exc:
                raise ChainIntegrityError("key table holds a malformed public key") from exc
        (block_count,) = struct.unpack_from("<I", body, offset)
        offset += 4
        blocks = []
        for _ in range(block_count):
            (block_len,) = struct.unpack_from("<I", body, offset)
            offset += 4
            raw = body[offset : offset + block_len]
            if len(raw) != block_len:
                raise ChainIntegrityError("truncated block")
            offset += block_len
            blocks.append(block_from_bytes(raw))
        if offset != len(body):
            raise ChainIntegrityError("trailing bytes after blocks")
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise ChainIntegrityError("malformed dump encoding") from exc
    return Ledger.replay(_KIND_NAMES[kind_code], blocks, directory), directory
