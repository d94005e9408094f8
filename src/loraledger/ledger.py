"""Append-only ledgers: session contexts (network) and app payloads (application).

A transaction is <requester, signature, timestamp, payload>.  On the network
ledger the payload is a session context sealed under the requester's own
private key, with the device address and EUI riding as authenticated clear
metadata so every replica can maintain world state without being able to
decrypt.  On
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
)
from .frames import APP_NONCE_LEN, DEV_ADDR_LEN, DEV_EUI_LEN, DEV_NONCE_LEN

KIND_NETWORK = "network"
KIND_APPLICATION = "application"

GENESIS_PREV_HASH = b"\x00" * 32

DUMP_MAGIC = b"HLRA"
DUMP_VERSION = 2

_KIND_CODES = {KIND_NETWORK: 0, KIND_APPLICATION: 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_ROLE_CODES = {"gateway": 0, "server": 1}
_ROLE_NAMES = {code: role for role, code in _ROLE_CODES.items()}

APP_KEY_LEN = 16
NWK_S_KEY_LEN = 16
# SessionContext fields in wire order, with their lengths
_CONTEXT_LAYOUT = (
    ("dev_eui", DEV_EUI_LEN),
    ("app_key", APP_KEY_LEN),
    ("dev_addr", DEV_ADDR_LEN),
    ("nwk_s_key", NWK_S_KEY_LEN),
    ("dev_nonce", DEV_NONCE_LEN),
    ("app_nonce", APP_NONCE_LEN),
)
SESSION_CONTEXT_LEN = sum(size for _, size in _CONTEXT_LAYOUT)  # 49


class InvalidBlockError(Exception):
    """A block that fails validation against its ledger position."""


class ChainIntegrityError(Exception):
    """A serialized chain that fails structural or cryptographic checks."""


def _signed_span(timestamp_ms: int, payload: bytes) -> bytes:
    """What a transaction signature covers: u64 timestamp | payload."""
    return timestamp_ms.to_bytes(8, "little") + payload


def _prefixed(size: int, data: bytes) -> bytes:
    """``data`` behind its length as a ``size``-byte little-endian integer."""
    return len(data).to_bytes(size, "little") + data


# little-endian unsigned integers by width in bytes
_UINTS = {size: struct.Struct("<" + code) for size, code in zip((1, 2, 4, 8), "BHIQ")}
# the longest field a 2- or 4-byte length prefix can encode
_U16_MAX = 2**16 - 1
_U32_MAX = 2**32 - 1


class _Reader:
    """A cursor over outside bytes, read in wire order.

    Every shortfall, bad UTF-8 and trailing byte raises ChainIntegrityError.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        start = self._pos
        end = self._pos = start + n
        if end > len(self._data):
            raise ChainIntegrityError("truncated encoding")
        return self._data[start:end]

    def uint(self, size: int) -> int:
        return _UINTS[size].unpack(self.take(size))[0]

    def prefixed(self, size: int) -> bytes:
        # one call, no nested reads: the decoders make three per transaction
        data, start = self._data, self._pos + size
        if start > len(data):
            raise ChainIntegrityError("truncated encoding")
        end = self._pos = start + _UINTS[size].unpack_from(data, start - size)[0]
        if end > len(data):
            raise ChainIntegrityError("truncated encoding")
        return data[start:end]

    def text(self, size: int) -> str:
        try:
            return self.prefixed(size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ChainIntegrityError("identifier is not UTF-8") from exc

    def finish(self, what: str) -> None:
        if self._pos != len(self._data):
            raise ChainIntegrityError("trailing bytes after %s" % what)


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
        if any(len(getattr(self, name)) != size for name, size in _CONTEXT_LAYOUT):
            raise ValueError("session context field length mismatch")

    def to_bytes(self) -> bytes:
        return b"".join(getattr(self, name) for name, _ in _CONTEXT_LAYOUT)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SessionContext":
        if len(data) != SESSION_CONTEXT_LEN:
            raise ValueError("session context must be %d bytes" % SESSION_CONTEXT_LEN)
        reader = _Reader(data)
        return cls(**{name: reader.take(size) for name, size in _CONTEXT_LAYOUT})


@dataclass(frozen=True, slots=True)
class Transaction:
    """One signed ledger entry; the signature doubles as the tx digest."""

    requester: str
    signature: bytes
    timestamp_ms: int
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.requester.encode("utf-8")) > _U16_MAX:
            raise ValueError("requester id must encode to at most %d bytes" % _U16_MAX)
        if len(self.signature) != SIGNATURE_LEN:
            raise ValueError("signature must be %d bytes" % SIGNATURE_LEN)
        if not 0 <= self.timestamp_ms < 2**64:
            raise ValueError("timestamp must be within 0..2**64-1")
        if not 0 < len(self.payload) <= _U32_MAX:
            raise ValueError("transaction payload must hold 1..%d bytes" % _U32_MAX)

    def signed_span(self) -> bytes:
        return _signed_span(self.timestamp_ms, self.payload)

    def wire_len(self) -> int:
        """``len(self.to_bytes())``, from the field lengths alone."""
        requester = len(self.requester.encode("utf-8"))
        return 2 + requester + 2 + len(self.signature) + 8 + 4 + len(self.payload)

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                _prefixed(2, self.requester.encode("utf-8")),
                _prefixed(2, self.signature),
                self.timestamp_ms.to_bytes(8, "little"),
                _prefixed(4, self.payload),
            )
        )


def _read_tx(reader: _Reader) -> Transaction:
    try:
        return Transaction(
            requester=reader.text(2),
            signature=reader.prefixed(2),
            timestamp_ms=reader.uint(8),
            payload=reader.prefixed(4),
        )
    except ValueError as exc:
        raise ChainIntegrityError("malformed transaction: %s" % exc) from exc


def transaction_from_bytes(data: bytes) -> Transaction:
    reader = _Reader(data)
    tx = _read_tx(reader)
    reader.finish("transaction")
    return tx


def _signed_tx(
    directory: KeyDirectory, keypair, timestamp_ms: int, payload: bytes
) -> Transaction:
    signature = directory.sign(keypair, _signed_span(timestamp_ms, payload))
    return Transaction(keypair.entity_id, signature, timestamp_ms, payload)


def make_network_tx(
    directory: KeyDirectory, keypair, context: SessionContext, timestamp_ms: int, rng: Random
) -> Transaction:
    """Seal a session context under the requester's own key and sign it through ``directory``.

    The device address and EUI ride as authenticated envelope metadata: that
    is what lets every replica key its world state while the context itself
    stays readable only by the requester.
    """
    envelope = pk_encrypt(keypair, context.to_bytes(), rng, context.dev_addr + context.dev_eui)
    return _signed_tx(directory, keypair, timestamp_ms, envelope)


def make_app_tx(
    directory: KeyDirectory, keypair, payload: bytes, timestamp_ms: int
) -> Transaction:
    """Sign an application payload as-is through ``directory``; it stays session-key encrypted."""
    return _signed_tx(directory, keypair, timestamp_ms, payload)


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


# not slotted: block_hash, validate_block and append_block keep their memos in its __dict__
@dataclass(frozen=True)
class Block:
    """<index, header, body>: header = <timestamp, merkle_root, prev_hash>."""

    zeta: int
    tau_ms: int
    merkle_root: bytes
    prev_hash: bytes
    txs: tuple[Transaction, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.zeta < 2**64 and 0 <= self.tau_ms < 2**64):
            raise ValueError("block index and timestamp must be within 0..2**64-1")
        if len(self.merkle_root) > _U16_MAX:
            raise ValueError("merkle root must be at most %d bytes" % _U16_MAX)
        if len(self.prev_hash) != 32:
            raise ValueError("prev hash must be 32 bytes")
        if not self.txs:
            raise ValueError("block body must hold at least one transaction")

    def wire_len(self) -> int:
        """``len(self.to_bytes())``, from the field lengths alone."""
        body = sum(tx.wire_len() for tx in self.txs)
        return 8 + 8 + 2 + len(self.merkle_root) + len(self.prev_hash) + 4 + body

    def to_bytes(self) -> bytes:
        return b"".join(
            [
                self.zeta.to_bytes(8, "little"),
                self.tau_ms.to_bytes(8, "little"),
                _prefixed(2, self.merkle_root),
                self.prev_hash,
                len(self.txs).to_bytes(4, "little"),
                *[tx.to_bytes() for tx in self.txs],
            ]
        )


def block_hash(block: Block) -> bytes:
    """Digest over index | header | body; this is what links and votes commit to.

    Worked out once per block object and kept on it, outside the dataclass
    fields, so equality, ``repr``, ``replace`` and the wire bytes ignore it.
    A frozen block's bytes never change, so neither does its digest.
    """
    digest = block.__dict__.get("_digest")
    if digest is None:
        digest = hash_bytes(block.to_bytes())
        object.__setattr__(block, "_digest", digest)
    return digest


def block_from_bytes(data: bytes) -> Block:
    reader = _Reader(data)
    try:
        block = Block(
            zeta=reader.uint(8),
            tau_ms=reader.uint(8),
            merkle_root=reader.prefixed(2),
            prev_hash=reader.take(32),
            txs=tuple(_read_tx(reader) for _ in range(reader.uint(4))),
        )
    except ValueError as exc:
        raise ChainIntegrityError("malformed block: %s" % exc) from exc
    reader.finish("block")
    return block


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
    The index and link depend on the chain position, so they are checked on
    every call; the predecessor's digest and an accepted body are remembered
    on the block objects (``block_hash``, ``validate_body``).
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

    The Merkle root recomputes from the tx signatures, and ``validate_tx``
    accepts every tx.  A block failing it can never be appended at any height.

    An acceptance is remembered on the block, with the directory object
    itself (never its ``id``, which can be reused) and the kind, so the
    replicas of one world check a shared block's body once.  It cannot go
    stale: registrations are add-only and final, signatures are
    deterministic and ``context_metadata`` is pure, so a body accepted under
    a directory stays accepted.  A rejection is not remembered, because a
    requester registered later can make the same body valid.
    """
    if kind not in _KIND_CODES:
        raise ValueError("kind must be %r or %r" % (KIND_NETWORK, KIND_APPLICATION))
    accepted = block.__dict__.get("_accepted")
    if accepted is not None and accepted[0] is key_directory and accepted[1] == kind:
        return True
    if block.merkle_root != build_merkle([tx.signature for tx in block.txs]):
        return False
    if not all(validate_tx(tx, key_directory, kind) for tx in block.txs):
        return False
    object.__setattr__(block, "_accepted", (key_directory, kind))
    return True


def validate_tx(tx: Transaction, key_directory: KeyDirectory, kind: str) -> bool:
    """One tx on its own: the requester is registered, only servers write the
    application chain, network context metadata is addr(4) | eui(8), and the
    signature verifies.
    """
    if tx.requester not in key_directory:
        return False
    if kind == KIND_APPLICATION and key_directory.role(tx.requester) != ROLE_SERVER:
        return False
    if kind == KIND_NETWORK and context_metadata(tx.payload) is None:
        return False
    return key_directory.verify(tx.requester, tx.signed_span(), tx.signature)


@dataclass(frozen=True, slots=True)
class WorldEntry:
    """Latest committed context for one device address, still sealed."""

    requester: str
    envelope: bytes
    timestamp_ms: int
    zeta: int


def _world_entries(block: Block) -> tuple[tuple[bytes, WorldEntry], ...]:
    """The ``(dev_addr, WorldEntry)`` pairs an accepted network block indexes, in tx order.

    Built on the block's first append and kept on it, as ``block_hash``
    keeps its digest, so every replica that appends the block shares the
    same frozen entries.  Only a block that passed ``validate_block`` on a
    network ledger gets here, so every payload has ``context_metadata``.
    """
    entries = block.__dict__.get("_world_entries")
    if entries is None:
        entries = tuple(
            (
                context_metadata(tx.payload)[0],
                WorldEntry(
                    requester=tx.requester,
                    envelope=tx.payload,
                    timestamp_ms=tx.timestamp_ms,
                    zeta=block.zeta,
                ),
            )
            for tx in block.txs
        )
        object.__setattr__(block, "_world_entries", entries)
    return entries


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
            self.world_state.update(_world_entries(block))

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
    entries = key_directory.items()
    parts = [
        DUMP_MAGIC,
        DUMP_VERSION.to_bytes(2, "little"),
        bytes([_KIND_CODES[ledger.kind]]),
        len(entries).to_bytes(4, "little"),
    ]
    for entity_id, public_key, role in entries:
        parts += (
            _prefixed(2, entity_id.encode("utf-8")),
            bytes([_ROLE_CODES[role]]),
            _prefixed(2, public_key),
        )
    parts.append(ledger.height.to_bytes(4, "little"))
    parts += (_prefixed(4, block.to_bytes()) for block in ledger.blocks)
    # two joins rather than body + digest: at most two copies of the dump are alive
    parts.append(hash_bytes(b"".join(parts)))
    return b"".join(parts)


def load_chain(data: bytes) -> tuple[Ledger, KeyDirectory]:
    """Parse and fully validate a chain dump; any corruption raises.

    ``Ledger.replay`` gives the one verdict.  Each signature it checks is
    verified ahead of it, on ``crypto.fan_out``'s threads
    (``KeyDirectory.settled``), and answered from those checks; the result
    and any error are those of the replay alone.
    """
    body, trailer = data[:-32], data[-32:]
    if hash_bytes(body) != trailer:
        raise ChainIntegrityError("dump digest mismatch")
    reader = _Reader(body)
    if reader.take(4) != DUMP_MAGIC:
        raise ChainIntegrityError("bad magic")
    version = reader.uint(2)
    if version != DUMP_VERSION:
        raise ChainIntegrityError("unsupported dump version %d" % version)
    kind = _KIND_NAMES.get(reader.uint(1))
    if kind is None:
        raise ChainIntegrityError("unknown ledger kind")
    directory = KeyDirectory()
    for _ in range(reader.uint(4)):
        entity_id = reader.text(2)
        role = _ROLE_NAMES.get(reader.uint(1))
        public_key = reader.prefixed(2)
        try:
            # rejects a malformed key, an unknown role (None) and a repeated id
            directory.add(entity_id, public_key, role)
        except (CryptoError, ValueError) as exc:
            raise ChainIntegrityError("malformed key table entry: %s" % exc) from exc
    blocks = [block_from_bytes(reader.prefixed(4)) for _ in range(reader.uint(4))]
    reader.finish("blocks")
    checks = [
        (tx.requester, tx.signed_span(), tx.signature)
        for block in blocks
        for tx in block.txs
        if tx.requester in directory
    ]
    with directory.settled(checks):
        return Ledger.replay(kind, blocks, directory), directory
