"""Cryptographic primitives for the ledger and the LoRa frame layer.

Every operation is deterministic given its inputs; randomness is always
supplied by the caller as a seeded ``random.Random`` so that simulation runs
replay byte-identically.  Key pairs bundle a signing key and an encryption
key; both public/private halves travel as opaque byte strings.

Each key owns the cipher objects made from it and builds them on first use:
a ``KeyPair`` its Ed25519 signing key, verify key, libsodium secret key and
X25519 recipient key, and a device's ``RootKey`` the CMAC and AES-ECB
contexts of its joins.  Nothing keyed is kept at module level, so a world
keeps only the contexts of its own keys and drops them with them.

``sign`` makes Ed25519 signatures with the system's libsodium where that
shared library loads (through ``ctypes``, on the first ``sign`` or
``verify``), and with ``cryptography`` elsewhere; libsodium is not required.
Ed25519 signing is deterministic (RFC 8032), so both return the same bytes
for the same key and message.  ``verify`` accepts through libsodium where it
loads, and ``cryptography`` decides every rejection: libsodium is the
stricter verifier, so each signature it accepts ``cryptography`` accepts too,
and a verdict never depends on the host.  On a 2-vCPU VM (libsodium 1.0.18,
``cryptography`` 48) a verify takes about 96 µs against 209 µs.  Every other
operation runs on ``cryptography``.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import Callable, NamedTuple

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# bound once: ``algorithms`` and ``modes`` are deprecation wrappers whose every
# attribute read runs a Python ``__getattr__`` (about 5 µs)
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import ECB
from cryptography.hazmat.primitives.cmac import CMAC
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

SYM_KEY_LEN = 16
MIC_LEN = 4
SIGNATURE_LEN = 64

# public_key = ed25519 verify key (32) || x25519 public key (32)
# private_key = ed25519 seed (32) || x25519 private scalar (32)
_KEY_HALF = 32
KEY_LEN = 2 * _KEY_HALF

_ENVELOPE_NONCE_LEN = 12
_ENVELOPE_TAG_LEN = 16
ENVELOPE_OVERHEAD = _KEY_HALF + _ENVELOPE_NONCE_LEN + 2 + _ENVELOPE_TAG_LEN


class CryptoError(Exception):
    """Base class for failures raised by this module."""


class BadKeyError(CryptoError):
    """A key had the wrong length or structure."""


class DecryptionError(CryptoError):
    """An authenticated envelope failed to open (wrong key or tampering)."""


class UnknownEntityError(CryptoError):
    """An entity id has no registered public key."""


@dataclass(frozen=True)
class KeyPair:
    """Signing + encryption key material owned by one named entity.

    The pair builds its key objects on first use and keeps them: the Ed25519
    signing key, the verify key its signatures verify under (made from the
    seed, whatever ``public_key`` holds), libsodium's 64-byte secret key (the
    seed followed by that verify key) and the X25519 key that ``pk_encrypt``
    seals to.  A node holds one pair, so each is built once per node.
    """

    entity_id: str
    public_key: bytes
    private_key: bytes
    _signing_key: Ed25519PrivateKey | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _verify_key: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _sodium_secret: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _recipient: X25519PublicKey | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.public_key) != KEY_LEN or len(self.private_key) != KEY_LEN:
            raise BadKeyError("key halves must each be %d bytes" % KEY_LEN)

    @property
    def verify_key(self) -> bytes:
        """The raw Ed25519 public key that this pair's signatures verify under."""
        return self._verify_key or self._bind_signing()

    def _bind_signing(self) -> bytes:
        """Build the signing key, its verify key and libsodium's secret key; returns
        the verify key."""
        seed = self.private_key[:_KEY_HALF]
        signing_key = Ed25519PrivateKey.from_private_bytes(seed)
        verify_key = signing_key.public_key().public_bytes_raw()
        object.__setattr__(self, "_signing_key", signing_key)
        object.__setattr__(self, "_verify_key", verify_key)
        object.__setattr__(self, "_sodium_secret", seed + verify_key)
        return verify_key

    def _bind_recipient(self) -> X25519PublicKey:
        recipient = X25519PublicKey.from_public_bytes(self.public_key[_KEY_HALF:])
        object.__setattr__(self, "_recipient", recipient)
        return recipient


def hash_bytes(data: bytes) -> bytes:
    """32-byte digest used for Merkle nodes, block links, and vote subjects."""
    return hashlib.sha256(data).digest()


def generate_keypair(entity_id: str, seed: int) -> KeyPair:
    """Derive a key pair deterministically; same (entity_id, seed) -> same pair."""
    base = str(seed).encode("ascii")
    sign_seed = hashlib.sha256(b"keygen.sign\x00" + entity_id.encode("utf-8") + base).digest()
    enc_seed = hashlib.sha256(b"keygen.encrypt\x00" + entity_id.encode("utf-8") + base).digest()
    sign_key = Ed25519PrivateKey.from_private_bytes(sign_seed)
    enc_key = X25519PrivateKey.from_private_bytes(enc_seed)
    pub = sign_key.public_key().public_bytes_raw() + enc_key.public_key().public_bytes_raw()
    return KeyPair(entity_id=entity_id, public_key=pub, private_key=sign_seed + enc_seed)


def _split_public(public_key: bytes) -> tuple[bytes, bytes]:
    if len(public_key) != KEY_LEN:
        raise BadKeyError("public key must be %d bytes" % KEY_LEN)
    return public_key[:_KEY_HALF], public_key[_KEY_HALF:]


def _split_private(private_key: bytes) -> tuple[bytes, bytes]:
    if len(private_key) != KEY_LEN:
        raise BadKeyError("private key must be %d bytes" % KEY_LEN)
    return private_key[:_KEY_HALF], private_key[_KEY_HALF:]


#: sonames of libsodium tried in order; the first that loads and initialises is used
_SODIUM_SONAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.so")


class _Sodium(NamedTuple):
    """libsodium's Ed25519 functions, with their C signatures declared."""

    #: ``sign(secret_key, message) -> signature``, with libsodium's 64-byte secret key
    sign: Callable[[bytes, bytes], bytes]
    #: ``accepts(verify_key, message, signature)``: True only if libsodium accepts
    accepts: Callable[[bytes, bytes, bytes], bool]


@functools.cache
def _sodium() -> _Sodium | None:
    """The system's libsodium, loaded once, on the first ``sign``, ``verify`` or
    ``uses_libsodium``.

    ``None`` where no listed soname loads or ``sodium_init`` fails.  A process
    that neither signs nor verifies (``frame decode``) imports neither
    ``ctypes`` nor the library.  The callers check every length first:
    ``c_char_p`` hands C a bare pointer, which C would read past a short buffer.
    """
    from ctypes import (
        CDLL,
        ArgumentError,
        c_char,
        c_char_p,
        c_int,
        c_ulonglong,
        c_void_p,
    )

    for soname in _SODIUM_SONAMES:
        try:
            lib = CDLL(soname)
            break
        except OSError:
            continue
    else:
        return None
    lib.sodium_init.argtypes = []
    lib.sodium_init.restype = c_int
    if lib.sodium_init() < 0:
        return None
    sign_detached = lib.crypto_sign_detached
    sign_detached.argtypes = [c_char_p, c_void_p, c_char_p, c_ulonglong, c_char_p]
    sign_detached.restype = c_int
    verify_detached = lib.crypto_sign_verify_detached
    verify_detached.argtypes = [c_char_p, c_char_p, c_ulonglong, c_char_p]
    verify_detached.restype = c_int

    # a fresh buffer per call: ``load_chain`` runs ``verify`` on threads, so
    # nothing here may be shared between calls
    signature_buffer = c_char * SIGNATURE_LEN

    def signer(secret_key: bytes, message: bytes) -> bytes:
        # ctypes takes only ``bytes``; ``cryptography`` signs any bytes-like message
        if type(message) is not bytes:
            message = memoryview(message).tobytes()
        signature = signature_buffer()
        if sign_detached(signature, None, message, len(message), secret_key) != 0:
            raise CryptoError("libsodium failed to sign")
        return signature.raw

    def accepts(verify_key: bytes, message: bytes, signature: bytes) -> bool:
        try:
            return verify_detached(signature, message, len(message), verify_key) == 0
        except ArgumentError:  # not ``bytes`` (a bytearray, say): cryptography decides
            return False

    return _Sodium(signer, accepts)


def uses_libsodium() -> bool:
    """Whether ``sign`` and ``verify`` run on libsodium here, loading it if need be.

    libsodium's calls release the GIL (``ctypes.CDLL``), so threads verify
    side by side; ``cryptography``'s Ed25519 calls hold it.
    """
    return _sodium() is not None


def sign(keypair: KeyPair, message: bytes) -> bytes:
    """Sign a message with a key pair; 64-byte signature, deterministic for a fixed key.

    Signs with libsodium's ``crypto_sign_detached`` where the library loads
    (the faster of the two), else with ``cryptography``.  Both implement RFC
    8032's deterministic Ed25519, so the bytes are the same either way.
    The pair builds libsodium's secret key once, so a signature there is one
    C call.
    """
    if keypair._sodium_secret is None:
        keypair._bind_signing()
    sodium = _sodium()
    if sodium is None:
        return keypair._signing_key.sign(message)
    return sodium.sign(keypair._sodium_secret, message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature against a public key bundle; ``cryptography``'s verdict.

    libsodium's ``crypto_sign_verify_detached`` runs first where the library
    loads, and its acceptance stands: it is the stricter of the two
    cofactorless verifiers (it also refuses a non-canonical or small-order R
    or A), so every signature it accepts ``cryptography`` accepts too.
    Anything it refuses is decided by ``cryptography``, so a verdict never
    depends on the host.
    """
    verify_key, _ = _split_public(public_key)
    if len(signature) != SIGNATURE_LEN:
        return False
    sodium = _sodium()
    if sodium is not None and sodium.accepts(verify_key, message, signature):
        return True
    try:
        Ed25519PublicKey.from_public_bytes(verify_key).verify(signature, message)
    except InvalidSignature:
        return False
    return True


def _envelope_key(shared: bytes, eph_pub: bytes, recipient_pub: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=SYM_KEY_LEN,
        salt=None,
        info=b"envelope\x00" + eph_pub + recipient_pub,
    ).derive(shared)


def pk_encrypt(recipient: KeyPair, data: bytes, rng: Random, aad: bytes = b"") -> bytes:
    """Seal data to a key pair's public encryption key (hybrid envelope).

    Layout: ephemeral_pub(32) | nonce(12) | aad_len(u16 LE) | aad | ciphertext+tag.
    The aad travels in clear but is bound by the authentication tag, so a
    holder of the envelope can read it while any modification is detected on
    decryption.  Only the matching private key opens the envelope.
    """
    if not data:
        raise ValueError("refusing to seal an empty payload")
    if len(aad) > 0xFFFF:
        raise ValueError("associated data too long")
    eph = X25519PrivateKey.from_private_bytes(rng.randbytes(_KEY_HALF))
    eph_pub = eph.public_key().public_bytes_raw()
    shared = eph.exchange(recipient._recipient or recipient._bind_recipient())
    key = _envelope_key(shared, eph_pub, recipient.public_key[_KEY_HALF:])
    nonce = rng.randbytes(_ENVELOPE_NONCE_LEN)
    sealed = AESGCM(key).encrypt(nonce, data, aad)
    return eph_pub + nonce + struct.pack("<H", len(aad)) + aad + sealed


def envelope_aad(envelope: bytes) -> bytes:
    """Read the clear associated data of an envelope without decrypting it."""
    header = _KEY_HALF + _ENVELOPE_NONCE_LEN
    if len(envelope) < header + 2:
        raise DecryptionError("envelope too short")
    (aad_len,) = struct.unpack_from("<H", envelope, header)
    aad = envelope[header + 2 : header + 2 + aad_len]
    if len(aad) != aad_len:
        raise DecryptionError("envelope truncated inside associated data")
    return aad


def pk_decrypt(private_key: bytes, envelope: bytes) -> bytes:
    """Open an envelope; raises DecryptionError on wrong key or any tampering."""
    _, enc_scalar = _split_private(private_key)
    header = _KEY_HALF + _ENVELOPE_NONCE_LEN
    aad = envelope_aad(envelope)
    eph_pub = envelope[:_KEY_HALF]
    nonce = envelope[_KEY_HALF:header]
    sealed = envelope[header + 2 + len(aad) :]
    if len(sealed) < _ENVELOPE_TAG_LEN:
        raise DecryptionError("envelope truncated before tag")
    own = X25519PrivateKey.from_private_bytes(enc_scalar)
    recipient_pub = own.public_key().public_bytes_raw()
    try:
        shared = own.exchange(X25519PublicKey.from_public_bytes(eph_pub))
    except ValueError as exc:
        raise DecryptionError("malformed ephemeral key") from exc
    key = _envelope_key(shared, eph_pub, recipient_pub)
    try:
        return AESGCM(key).decrypt(nonce, sealed, aad)
    except InvalidTag as exc:
        raise DecryptionError("envelope failed authentication") from exc


def cmac_context(key: bytes) -> CMAC:
    """A CMAC context under a 16-byte key, to be copied per message and never finalized."""
    return CMAC(AES(key))


def ecb_encryptor(key: bytes):
    """An AES-ECB encryptor under a 16-byte key.

    ECB over whole blocks keeps no state between ``update`` calls, so one
    context serves every call of its owner and is never finalized.
    """
    return Cipher(AES(key), ECB()).encryptor()


def ecb_decryptor(key: bytes):
    """An AES-ECB decryptor under a 16-byte key; like ``ecb_encryptor``'s, never finalized."""
    return Cipher(AES(key), ECB()).decryptor()


@dataclass(frozen=True, slots=True)
class RootKey:
    """A device's 16-byte AES root key and the contexts its joins use.

    The join MICs' CMAC and the AES-ECB encrypt and decrypt contexts are
    built on a join's first use of them and live as long as the key.
    ``harness.build_world`` makes one per device, which the device and its
    join server's ``Registration`` share, so a device's contexts are built
    once per world whichever side uses them first.  A key that is not 16
    bytes is refused here, when the device is made, not at its first join.
    """

    key: bytes
    _mic: CMAC | None = field(default=None, init=False, repr=False, compare=False)
    _encryptor: object = field(default=None, init=False, repr=False, compare=False)
    _decryptor: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.key) != SYM_KEY_LEN:
            raise BadKeyError("root key must be %d bytes" % SYM_KEY_LEN)

    def _bind_mic(self) -> CMAC:
        mic = cmac_context(self.key)
        object.__setattr__(self, "_mic", mic)
        return mic

    def _bind_encryptor(self):
        encryptor = ecb_encryptor(self.key)
        object.__setattr__(self, "_encryptor", encryptor)
        return encryptor

    def _bind_decryptor(self):
        decryptor = ecb_decryptor(self.key)
        object.__setattr__(self, "_decryptor", decryptor)
        return decryptor


def mac32(key: RootKey, message: bytes) -> bytes:
    """4-byte message integrity code (CMAC truncated), as used by LoRa join frames."""
    mac = (key._mic or key._bind_mic()).copy()
    mac.update(message)
    return mac.finalize()[:MIC_LEN]


def aes128_encrypt_block(key: RootKey, block: bytes) -> bytes:
    """Encrypt exactly one 16-byte block (key derivation, a join accept)."""
    if len(block) != 16:
        raise ValueError("block must be 16 bytes")
    return (key._encryptor or key._bind_encryptor()).update(block)


def aes128_decrypt_block(key: RootKey, block: bytes) -> bytes:
    """Decrypt exactly one 16-byte block (a join accept)."""
    if len(block) != 16:
        raise ValueError("block must be 16 bytes")
    return (key._decryptor or key._bind_decryptor()).update(block)


def derive_session_keys(
    app_key: RootKey, app_nonce: bytes, net_id: bytes, dev_nonce: bytes
) -> tuple[bytes, bytes]:
    """Derive (network session key, application session key) after a join.

    Each key is one AES block over a type byte (0x01 network / 0x02
    application) followed by app_nonce(3) | net_id(3) | dev_nonce(2) and zero
    padding to 16 bytes, keyed by the device's root key.
    """
    if len(app_nonce) != 3 or len(net_id) != 3 or len(dev_nonce) != 2:
        raise ValueError("nonce/net id field lengths must be 3/3/2 bytes")
    tail = app_nonce + net_id + dev_nonce + b"\x00" * 7
    nwk_s_key = aes128_encrypt_block(app_key, b"\x01" + tail)
    app_s_key = aes128_encrypt_block(app_key, b"\x02" + tail)
    return nwk_s_key, app_s_key


#: y-coordinates, mod p = 2**255 - 19, of the eight Ed25519 points of order
#: dividing 8: 1 (the identity), p - 1 (order 2), 0 (order 4) and +-y8 (order
#: 8).  Under such a verify key a cofactorless verifier accepts R = identity,
#: S = 0 for every message, so the signature binds nothing.
_P = 2**255 - 19
_Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022
_SMALL_ORDER_Y = frozenset((0, 1, _P - 1, _Y8, _P - _Y8))


def _has_small_order(verify_key: bytes) -> bool:
    """Whether a 32-byte verify key encodes a point of the 8-torsion subgroup.

    The encoding is y (255 bits, little endian, possibly >= p) and x's sign
    bit; the sign bit does not change the order, so only y mod p is read.
    """
    y = int.from_bytes(verify_key, "little") & ((1 << 255) - 1)
    return y % _P in _SMALL_ORDER_Y


#: roles an entity can hold in the key directory
ROLE_GATEWAY = "gateway"
ROLE_SERVER = "server"


#: verdicts a KeyDirectory remembers, oldest evicted first; enough for every
#: replica of a world to check a signature made in it without an Ed25519 verify
VERDICT_MEMO_SIZE = 1024


class KeyDirectory:
    """Registry of entity public keys and roles, shared by all honest nodes.

    It is also where a world's signatures are made and checked.  ``sign``
    records the verdict of each signature it makes with a registered key,
    and ``verify`` records each verdict it computes, so every replica of the
    world validates the same blocks without verifying a signature again.
    Registrations are final, so a verdict never goes stale.

    ``ledger.validate_body`` also remembers, on each block it accepts, the
    directory object it accepted the block under.  That cannot go stale
    either: entries are only added, never replaced or removed, so every
    check a body once passed under a directory passes again.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[bytes, str]] = {}
        self._verdicts: OrderedDict[tuple[str, bytes, bytes], bool] = OrderedDict()
        self._settled: dict[tuple[str, bytes, bytes], bool] = {}

    def add(self, entity_id: str, public_key: bytes, role: str) -> None:
        """Register an entity; refuses a malformed or small-order key, an unknown
        role and a second registration of the same id."""
        verify_key, _ = _split_public(public_key)
        if _has_small_order(verify_key):
            raise BadKeyError("verify key is a point of small order")
        if role not in (ROLE_GATEWAY, ROLE_SERVER):
            raise ValueError("unknown role: %r" % role)
        if entity_id in self._entries:
            raise ValueError("entity %r already registered" % entity_id)
        self._entries[entity_id] = (public_key, role)

    def verify(self, entity_id: str, message: bytes, signature: bytes) -> bool:
        """``verify`` against the entity's registered key, memoized on the exact bytes."""
        try:
            public_key = self._entries[entity_id][0]
        except KeyError:
            raise UnknownEntityError("no public key registered for %r" % entity_id) from None
        memo_key = (entity_id, message, signature)
        verdict = self._verdicts.get(memo_key)
        if verdict is None:
            verdict = self._settled.get(memo_key)
            if verdict is None:
                verdict = verify(public_key, message, signature)
            self._remember(memo_key, verdict)
        return verdict

    @contextmanager
    def settled(self, verdicts: dict[tuple[str, bytes, bytes], bool]):
        """Inside the block, ``verify`` answers the exact bytes in ``verdicts`` from them.

        For verdicts computed ahead of a replay (on ``ledger.load_chain``'s
        threads); each is remembered as if verified here, in the bounded memo.
        """
        self._settled = verdicts
        try:
            yield
        finally:
            self._settled = {}

    def sign(self, keypair: KeyPair, message: bytes) -> bytes:
        """``sign`` with the keypair, remembering the verdict if its key is the registered one.

        Ed25519 is deterministic and a signature always verifies under the
        public key of the seed that made it (RFC 8032), so a signature made
        here with the entity's registered key needs no verify in this world:
        the pair's own verify key, which it made once from its seed, equals
        the registered one.  Any other signature is left for ``verify`` to
        check, so a key signs as its entity's once it is registered, and a
        foreign key never does.
        """
        signature = sign(keypair, message)
        entry = self._entries.get(keypair.entity_id)
        if entry is not None and entry[0][:_KEY_HALF] == keypair.verify_key:
            self._remember((keypair.entity_id, message, signature), True)
        return signature

    def _remember(self, memo_key: tuple[str, bytes, bytes], verdict: bool) -> None:
        verdicts = self._verdicts
        if memo_key not in verdicts and len(verdicts) >= VERDICT_MEMO_SIZE:
            # O(1): a plain dict would scan past every slot freed at its front
            verdicts.popitem(last=False)
        verdicts[memo_key] = verdict

    def public_key(self, entity_id: str) -> bytes:
        try:
            return self._entries[entity_id][0]
        except KeyError:
            raise UnknownEntityError("no public key registered for %r" % entity_id) from None

    def role(self, entity_id: str) -> str:
        try:
            return self._entries[entity_id][1]
        except KeyError:
            raise UnknownEntityError("no role registered for %r" % entity_id) from None

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entries

    def entities(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> list[tuple[str, bytes, str]]:
        return [(eid, pub, role) for eid, (pub, role) in sorted(self._entries.items())]
