"""Primitive layer: keys, signatures, envelopes, MACs, key derivation."""

import ctypes
import hashlib
import itertools
import random
import types
from collections import Counter

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.cmac import CMAC
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loraledger import crypto
from loraledger.crypto import (
    BadKeyError,
    CryptoError,
    DecryptionError,
    ENVELOPE_OVERHEAD,
    KeyDirectory,
    KeyPair,
    ROLE_GATEWAY,
    ROLE_SERVER,
    RootKey,
    UnknownEntityError,
    VERDICT_MEMO_SIZE,
    aes128_decrypt_block,
    aes128_encrypt_block,
    derive_session_keys,
    envelope_aad,
    generate_keypair,
    hash_bytes,
    mac32,
    pk_decrypt,
    pk_encrypt,
    sign,
    verify,
)
from loraledger.harness import compare_modes
from loraledger.scenario import build_config
from test_golden import CASES, GOLDEN, artifact_digest

# Frozen expected values, computed with a standalone oracle: raw AES-ECB plus
# a hand-written RFC 4493 CMAC, itself checked against the published RFC
# vectors before these bytes were recorded.
MAC32_ABC = "0a54a6a4"
NWK_S_KEY = "698a830d6878f2fdf66edc2c4267cd63"
APP_S_KEY = "126403df5b4aa4d4f81124fa61514690"


def test_hash_is_sha256():
    """Empty-input SHA-256 is a published constant."""
    assert (
        hash_bytes(b"").hex()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_keypair_deterministic_per_seed():
    a = generate_keypair("gw0", 7)
    b = generate_keypair("gw0", 7)
    c = generate_keypair("gw0", 8)
    d = generate_keypair("gw1", 7)
    assert a.public_key == b.public_key and a.private_key == b.private_key
    assert a.public_key != c.public_key
    assert a.public_key != d.public_key


def test_sign_verify():
    kp = generate_keypair("gw0", 1)
    sig = sign(kp, b"hello")
    assert len(sig) == 64
    assert verify(kp.public_key, b"hello", sig)
    assert not verify(kp.public_key, b"hellO", sig)
    assert not verify(kp.public_key, b"hello", sig[:-1] + bytes([sig[-1] ^ 1]))
    other = generate_keypair("gw1", 1)
    assert not verify(other.public_key, b"hello", sig)


def test_signature_deterministic():
    kp = generate_keypair("gw0", 1)
    assert sign(kp, b"x") == sign(kp, b"x")


# RFC 8032 section 7.1, TEST 1 and TEST 2: (seed, public key, message, signature), in hex
RFC8032_VECTORS = {
    "test1": (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065"
        "224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    "test2": (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
}
SODIUM_ABSENT = "libsodium does not load here (tried %s): only cryptography signs and verifies" % (
    ", ".join(crypto._SODIUM_SONAMES)
)


def _vector(name: str) -> tuple[bytes, bytes, bytes, bytes]:
    """An RFC 8032 vector as bytes: (seed, public key bundle, message, signature)."""
    seed, public, message, signature = map(bytes.fromhex, RFC8032_VECTORS[name])
    return seed, public + bytes(32), message, signature


def _seed_keypair(seed: bytes, public_key: bytes = bytes(64)) -> KeyPair:
    """A key pair that signs with ``seed``; ``sign`` reads nothing of ``public_key``."""
    return KeyPair("signer", public_key, seed + bytes(32))


def _sign_vector(name: str) -> tuple[bytes, str]:
    """``sign``'s output on an RFC 8032 vector, and the signature the RFC gives."""
    seed, public_key, message, signature = _vector(name)
    return sign(_seed_keypair(seed, public_key), message), signature.hex()


@pytest.fixture(params=["libsodium", "cryptography"])
def signer(request, monkeypatch):
    """Run ``sign`` on libsodium, or on ``cryptography`` by making the loader find no library."""
    if request.param == "libsodium":
        if crypto._sodium() is None:
            pytest.skip(SODIUM_ABSENT)
        real = crypto.Ed25519PrivateKey

        class PublicOnly:
            """The signing key a key pair builds gives its public key, which
            libsodium's secret key holds, but cannot sign, so a cryptography
            signature fails."""

            @staticmethod
            def from_private_bytes(seed):
                return types.SimpleNamespace(public_key=real.from_private_bytes(seed).public_key)

        monkeypatch.setattr(crypto, "Ed25519PrivateKey", PublicOnly)
    else:
        monkeypatch.setattr(crypto, "_sodium", lambda: None)
    return request.param


@pytest.mark.parametrize("vector", sorted(RFC8032_VECTORS))
def test_sign_matches_rfc8032_on_either_signer(signer, vector):
    signature, expected = _sign_vector(vector)
    assert signature.hex() == expected


def test_sign_takes_bytes_like_messages_on_either_signer(signer):
    """libsodium is handed a copy as ``bytes``: ctypes refuses anything else."""
    seed, _, message, expected = _vector("test2")
    keypair = _seed_keypair(seed)
    for bytes_like in (bytearray(message), memoryview(message), memoryview(b"_" + message)[1:]):
        assert sign(keypair, bytes_like) == expected
    with pytest.raises(TypeError):  # not ``bytes(2)``, which would sign two zero bytes
        sign(keypair, 2)


@pytest.mark.skipif(crypto._sodium() is None, reason=SODIUM_ABSENT)
@settings(max_examples=200, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), message=st.binary(max_size=600))
def test_libsodium_and_cryptography_sign_the_same_bytes(seed, message):
    """``KeyDirectory.sign`` skips the verify of its own signatures: sound only if this holds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crypto, "_sodium", lambda: None)
        reference = sign(_seed_keypair(seed), message)
    assert sign(_seed_keypair(seed), message) == reference


def _stand_in_sodium(init=0, detached=0, verify=0, calls=None):
    """A ``CDLL`` stand-in whose functions only return the given codes.

    Each call is appended to ``calls``, when given, as (symbol, args).
    """
    codes = {
        "sodium_init": init,
        "crypto_sign_detached": detached,
        "crypto_sign_verify_detached": verify,
    }

    def function(symbol, code):
        def call(*args):
            if calls is not None:
                calls.append((symbol, args))
            return code

        return call

    def load(name):
        return types.SimpleNamespace(
            **{symbol: function(symbol, code) for symbol, code in codes.items()}
        )

    return load


def _not_found(name):
    raise OSError("%s: cannot open shared object file" % name)


@pytest.fixture
def reload_sodium(monkeypatch):
    """Clear the memoized loader so that the next ``sign`` or ``verify`` loads
    again, and once more after the test."""
    crypto._sodium.cache_clear()
    yield lambda load: monkeypatch.setattr(ctypes, "CDLL", load)
    crypto._sodium.cache_clear()


@pytest.mark.parametrize(
    "load", [_not_found, _stand_in_sodium(init=-1)], ids=["not-found", "init-fails"]
)
def test_sign_falls_back_to_cryptography_without_a_usable_libsodium(reload_sodium, load):
    reload_sodium(load)
    signature, expected = _sign_vector("test2")
    assert signature.hex() == expected
    assert crypto._sodium() is None


@pytest.mark.parametrize("load", [_stand_in_sodium(detached=-1)], ids=["sign-fails"])
def test_sign_raises_rather_than_return_a_failed_libsodium_signature(reload_sodium, load):
    reload_sodium(load)
    with pytest.raises(CryptoError):
        sign(generate_keypair("gw0", 1), b"hello")


@pytest.mark.parametrize("case", ["exp2-pbft", "exp3"])
def test_golden_digests_are_the_same_when_cryptography_signs(reload_sodium, case, tmp_path):
    """Both signers give the same bytes end to end.

    With no libsodium loading, ``cryptography`` makes every signature (the
    PBFT case signs votes too), and both modes' artifacts still hash to the
    pinned golden digest.
    """
    reload_sodium(_not_found)
    assert not crypto.uses_libsodium()
    compare_modes(build_config(flag_overrides=CASES[case])).emit(str(tmp_path))
    assert artifact_digest(tmp_path) == GOLDEN[case]


# ---------------------------------------------------------------------------
# verify gives cryptography's verdict on every host

#: order of the Ed25519 base point
L = 2**252 + 27742317777372353535851937790883648493
#: the encoding of the identity point (x = 0, y = 1)
IDENTITY = b"\x01" + bytes(31)


@pytest.fixture(params=["libsodium", "absent", "failing"])
def host(request, reload_sodium):
    """``verify`` with libsodium loaded, not loading, or replaced by a stand-in
    that loads but whose every Ed25519 function returns -1.

    Returns the host's name and the stand-in's calls (none elsewhere).
    """
    calls = []
    if request.param == "libsodium":
        if crypto._sodium() is None:
            pytest.skip(SODIUM_ABSENT)
    elif request.param == "absent":
        reload_sodium(_not_found)
    else:
        reload_sodium(_stand_in_sodium(detached=-1, verify=-1, calls=calls))
    return types.SimpleNamespace(name=request.param, calls=calls)


def reference_verdict(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """``cryptography``'s verdict alone: the one ``verify`` must give on every host."""
    if len(signature) != crypto.SIGNATURE_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key[:32]).verify(signature, message)
    except InvalidSignature:
        return False
    return True


def _c_verifies(calls) -> int:
    return sum(symbol == "crypto_sign_verify_detached" for symbol, _ in calls)


def _assert_reference_verdict(public_key, message, signature, expected):
    assert reference_verdict(public_key, message, signature) is expected
    assert verify(public_key, message, signature) is expected


@pytest.mark.parametrize("vector", sorted(RFC8032_VECTORS))
def test_verify_matches_cryptography_on_rfc8032(host, vector):
    seed, public_key, message, signature = _vector(vector)
    assert _seed_keypair(seed).verify_key == public_key[:32]
    _assert_reference_verdict(public_key, message, signature, True)
    _assert_reference_verdict(public_key, message + b"\x00", signature, False)
    # the failing stand-in was asked, and cryptography overruled its refusal
    assert _c_verifies(host.calls) == (2 if host.name == "failing" else 0)


def test_verify_refuses_a_non_canonical_s_on_every_host(host):
    _, public_key, message, signature = _vector("test1")
    s_plus_l = (int.from_bytes(signature[32:], "little") + L).to_bytes(32, "little")
    _assert_reference_verdict(public_key, message, signature[:32] + s_plus_l, False)


def _identity_r_signature(seed: bytes, message: bytes) -> bytes:
    """R = identity, S = h·a: [S]B − [h]A is the identity, whose encoding is R.

    Only the key's owner can make it (it needs the secret scalar a).  A
    cofactorless verifier that compares encodings accepts it; libsodium
    refuses it for its small-order R.
    """
    a = int.from_bytes(hashlib.sha512(seed).digest()[:32], "little")
    a = a & ((1 << 254) - 8) | (1 << 254)  # RFC 8032 clamping
    digest = hashlib.sha512(IDENTITY + _seed_keypair(seed).verify_key + message).digest()
    h = int.from_bytes(digest, "little") % L
    return IDENTITY + (h * a % L).to_bytes(32, "little")


def test_verify_accepts_an_identity_r_that_libsodium_refuses(host):
    seed, public_key, message, _ = _vector("test2")
    signature = _identity_r_signature(seed, message)
    _assert_reference_verdict(public_key, message, signature, True)
    if host.name == "libsodium":
        assert not crypto._sodium().accepts(public_key[:32], message, signature)


@pytest.mark.skipif(crypto._sodium() is None, reason=SODIUM_ABSENT)
def test_libsodium_accepts_without_a_cryptography_verify(monkeypatch):
    _, public_key, message, signature = _vector("test2")
    monkeypatch.setattr(crypto, "Ed25519PublicKey", None)  # so a cryptography verify fails
    assert verify(public_key, message, signature)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    seed=st.binary(min_size=32, max_size=32),
    message=st.binary(min_size=1, max_size=200),
    target=st.sampled_from(["none", "R", "S", "A", "message"]),
    bit=st.integers(0, 255),
)
def test_verify_matches_cryptography_on_flipped_bytes(host, seed, message, target, bit):
    """An honest signature, or one with one bit flipped in R, S, the key or the message."""
    key = Ed25519PrivateKey.from_private_bytes(seed)
    signature = key.sign(message)
    fields = {
        "R": bytearray(signature[:32]),
        "S": bytearray(signature[32:]),
        "A": bytearray(key.public_key().public_bytes_raw()),
        "message": bytearray(message),
    }
    if target != "none":
        field = fields[target]
        bit %= 8 * len(field)
        field[bit // 8] ^= 1 << (bit % 8)
    public_key = bytes(fields["A"]) + bytes(32)
    message, signature = bytes(fields["message"]), bytes(fields["R"] + fields["S"])
    expected = reference_verdict(public_key, message, signature)
    assert verify(public_key, message, signature) is expected


def test_verify_matches_cryptography_on_bytes_like_input(host):
    """ctypes takes only ``bytes``; anything else goes on to ``cryptography``."""
    _, public_key, message, signature = _vector("test2")
    _assert_reference_verdict(public_key, bytearray(message), memoryview(signature), True)
    _assert_reference_verdict(public_key, bytearray(message), signature[:-1] + b"\x01", False)
    for check in (reference_verdict, verify):
        with pytest.raises(TypeError):  # cryptography takes a key only as bytes
            check(bytearray(public_key), message, signature)


@pytest.mark.parametrize("length", [63, 65])
def test_verify_refuses_a_signature_of_the_wrong_length_before_any_c_call(host, length):
    _, public_key, message, signature = _vector("test2")
    _assert_reference_verdict(public_key, message, (signature + signature)[:length], False)
    assert _c_verifies(host.calls) == 0


@pytest.mark.parametrize("length", [0, 31, 32, 33, 63, 65])
def test_verify_raises_on_a_key_of_the_wrong_length_before_any_c_call(host, length):
    _, public_key, message, signature = _vector("test2")
    with pytest.raises(BadKeyError):
        verify((public_key + public_key)[:length], message, signature)
    assert _c_verifies(host.calls) == 0


def test_envelope_roundtrip_and_overhead():
    kp = generate_keypair("srv0", 5)
    rng = random.Random(0)
    for size in (1, 16, 49, 200):
        data = bytes(rng.randrange(256) for _ in range(size))
        env = pk_encrypt(kp, data, rng)
        assert len(env) == size + ENVELOPE_OVERHEAD
        assert pk_decrypt(kp.private_key, env) == data


def test_envelope_rejects_empty_plaintext():
    kp = generate_keypair("srv0", 5)
    with pytest.raises(ValueError):
        pk_encrypt(kp, b"", random.Random(0))


def test_envelope_aad_readable_without_key_but_authenticated():
    kp = generate_keypair("gw2", 9)
    rng = random.Random(1)
    env = pk_encrypt(kp, b"secret-context", rng, aad=b"addr+eui")
    assert envelope_aad(env) == b"addr+eui"
    # flipping an AAD byte must break decryption even though AAD is cleartext
    idx = 32 + 12 + 2  # first AAD byte
    bad = env[:idx] + bytes([env[idx] ^ 1]) + env[idx + 1 :]
    assert envelope_aad(bad) != b"addr+eui"
    with pytest.raises(DecryptionError):
        pk_decrypt(kp.private_key, bad)


def test_envelope_tamper_detected_everywhere():
    """Any single-byte flip anywhere in the envelope fails decryption."""
    kp = generate_keypair("gw0", 2)
    env = pk_encrypt(kp, b"0123456789", random.Random(2), aad=b"a")
    rng = random.Random(3)
    for _ in range(40):
        idx = rng.randrange(len(env))
        bad = bytearray(env)
        bad[idx] ^= 1 + rng.randrange(255)
        with pytest.raises(DecryptionError):
            pk_decrypt(kp.private_key, bytes(bad))


def test_envelope_wrong_recipient():
    alice = generate_keypair("gw0", 4)
    bob = generate_keypair("gw1", 4)
    env = pk_encrypt(alice, b"for alice", random.Random(0))
    with pytest.raises(DecryptionError):
        pk_decrypt(bob.private_key, env)


def test_mac32_frozen_vector():
    assert mac32(RootKey(bytes(range(16))), b"abc").hex() == MAC32_ABC


def test_mac32_key_and_message_sensitivity():
    key = RootKey(bytes(range(16)))
    base = mac32(key, b"abc")
    assert mac32(key, b"abd") != base
    assert mac32(RootKey(bytes(16)), b"abc") != base
    assert len(base) == 4


def test_derive_session_keys_frozen_vectors():
    nwk, app = derive_session_keys(
        RootKey(bytes(range(16))),
        bytes.fromhex("010203"),
        bytes.fromhex("aabbcc"),
        bytes.fromhex("0102"),
    )
    assert nwk.hex() == NWK_S_KEY
    assert app.hex() == APP_S_KEY


def test_derive_session_keys_distinct_and_sensitive():
    args = (RootKey(bytes(range(16))), b"\x01\x02\x03", b"\xaa\xbb\xcc", b"\x01\x02")
    nwk, app = derive_session_keys(*args)
    assert nwk != app
    nwk2, app2 = derive_session_keys(args[0], b"\x01\x02\x04", args[2], args[3])
    assert (nwk2, app2) != (nwk, app)
    nwk3, _ = derive_session_keys(args[0], args[1], args[2], b"\x01\x03")
    assert nwk3 != nwk


def test_key_directory():
    directory = KeyDirectory()
    gw = generate_keypair("gw0", 1)
    srv = generate_keypair("srv0", 1)
    directory.add("gw0", gw.public_key, ROLE_GATEWAY)
    directory.add("srv0", srv.public_key, ROLE_SERVER)
    assert "gw0" in directory and "nope" not in directory
    assert directory.public_key("srv0") == srv.public_key
    assert directory.role("gw0") == ROLE_GATEWAY
    assert directory.entities() == ["gw0", "srv0"]
    with pytest.raises(UnknownEntityError):
        directory.public_key("ghost")
    with pytest.raises(ValueError):
        directory.add("gw0", gw.public_key, ROLE_GATEWAY)


P = 2**255 - 19
#: y of the Ed25519 points of order 8, as in libsodium's blocklist
Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022


def _small_order_encodings() -> list[bytes]:
    """Every verify key that encodes a point of order dividing 8: each such y
    mod p, also as y + p where that fits in 255 bits, with either sign bit."""
    return [
        (value | sign).to_bytes(32, "little")
        for y in (0, 1, P - 1, Y8, P - Y8)
        for value in (y, y + P)
        if value < 2**255
        for sign in (0, 1 << 255)
    ]


def test_key_directory_refuses_small_order_keys():
    d = -121665 * pow(121666, -1, P) % P
    assert (d * Y8**4 + 2 * Y8**2 - 1) % P == 0  # doubling y8's point gives y = 0, order 4
    encodings = _small_order_encodings()
    assert len(encodings) == 14
    directory = KeyDirectory()
    for encoding in encodings:
        with pytest.raises(BadKeyError):
            directory.add("gw0", encoding + bytes(32), ROLE_GATEWAY)
    assert "gw0" not in directory
    # what the refusal keeps out: under the identity key, R = identity, S = 0
    # verifies for every message
    forgery = IDENTITY + bytes(32)
    assert all(verify(IDENTITY + bytes(32), m, forgery) for m in (b"", b"pay", b"vote"))


def _world_directory() -> KeyDirectory:
    directory = KeyDirectory()
    for entity_id, role in (("gw0", ROLE_GATEWAY), ("srv0", ROLE_SERVER)):
        directory.add(entity_id, generate_keypair(entity_id, 1).public_key, role)
    return directory


def _signed_directory():
    sig = sign(generate_keypair("gw0", 1), b"payload")
    return _world_directory(), sig


def test_key_directory_verify_agrees_with_verify():
    """A remembered verdict never answers for a different triple, in either order."""
    _, sig = _signed_directory()
    good = ("gw0", b"payload", sig)
    tampered = [
        ("gw0", b"payloaD", sig),
        ("gw0", b"payload", sig[:-1] + bytes([sig[-1] ^ 1])),
        ("srv0", b"payload", sig),
        ("gw0", b"payload", sig[:-1]),
    ]
    for bad in tampered:
        for order in ((good, bad), (bad, good)):
            directory, _ = _signed_directory()
            for entity_id, message, signature in itertools.chain(order, order):
                expected = crypto.verify(directory.public_key(entity_id), message, signature)
                assert directory.verify(entity_id, message, signature) is expected
            assert directory.verify(*good) and not directory.verify(*bad)
    directory, _ = _signed_directory()
    with pytest.raises(UnknownEntityError):
        directory.verify("ghost", b"payload", sig)


def test_key_directory_verify_memo_is_bounded(monkeypatch):
    """The memo keeps at most VERDICT_MEMO_SIZE verdicts and re-verifies evicted ones."""
    directory, sig = _signed_directory()
    calls = []
    real = crypto.verify

    def counting_verify(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crypto, "verify", counting_verify)
    for n in range(VERDICT_MEMO_SIZE + 10):
        assert not directory.verify("gw0", b"%d" % n, sig)
        assert len(directory._verdicts) <= VERDICT_MEMO_SIZE
    assert len(calls) == VERDICT_MEMO_SIZE + 10
    assert directory.verify("gw0", b"payload", sig) and len(calls) == VERDICT_MEMO_SIZE + 11
    assert directory.verify("gw0", b"payload", sig) and len(calls) == VERDICT_MEMO_SIZE + 11
    assert not directory.verify("gw0", b"0", sig)  # evicted first, so verified again
    assert len(calls) == VERDICT_MEMO_SIZE + 12


def test_key_directory_settled_verdicts_answer_only_inside_the_block(monkeypatch):
    """Settled verdicts are taken as given, remembered, and dropped when the block ends."""
    directory, sig = _signed_directory()
    calls = []
    real = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or real(*args))
    with directory.settled({("gw0", b"one", sig): True, ("gw0", b"two", sig): False}):
        assert directory.verify("gw0", b"one", sig)  # not its signature, but settled so
        assert not directory.verify("gw0", b"two", sig)
        assert not directory.verify("gw0", b"three", sig) and len(calls) == 1
    assert directory.verify("gw0", b"one", sig) and len(calls) == 1  # now in the memo
    directory._verdicts.clear()
    assert not directory.verify("gw0", b"one", sig) and len(calls) == 2


# ---------------------------------------------------------------------------
# verdicts recorded at sign time

SIGN_CASES = (
    "honest",
    "tampered",
    "bit-flipped",
    "re-attributed",
    "honest-then-re-attributed",
    "re-attributed-then-honest",
    "unregistered",
    "signed-again-once-registered",
    "second-directory",
)
#: cases whose checked signature was made here with the registered key
SPARED_CASES = ("honest", "signed-again-once-registered")


@settings(max_examples=80, deadline=None)
@given(
    message=st.binary(max_size=64),
    signer=st.sampled_from(["gw0", "srv0"]),
    case=st.sampled_from(SIGN_CASES),
    bit=st.integers(0, 8 * crypto.SIGNATURE_LEN - 1),
)
def test_only_signatures_made_here_with_the_registered_key_skip_verify(
    message, signer, case, bit
):
    """``KeyDirectory.sign`` spares the verify of exactly its own honest signatures.

    An honest signature verifies with no Ed25519 call.  Any other signature
    gets the verdict ``crypto.verify`` gives it, at the cost of one call.
    The directory decides once per entity whether a key is the registered
    one; a foreign key signing for the entity, before or after its own key
    did, is never taken for it, and a key that signed before it was
    registered signs as its entity's afterwards.
    """
    directory = _world_directory()
    keypair, entity_id = generate_keypair(signer, 1), signer
    if "re-attributed" in case:
        entity_id = "srv0" if signer == "gw0" else "gw0"
        pretender = generate_keypair(entity_id, 1)
        keypair = KeyPair(entity_id, pretender.public_key, keypair.private_key)
        if case == "honest-then-re-attributed":
            directory.sign(pretender, message)  # the entity's own key signs first
        signature = directory.sign(keypair, message)
        if case == "re-attributed-then-honest":
            directory.sign(pretender, message)
    elif case in ("unregistered", "signed-again-once-registered"):
        keypair, entity_id = generate_keypair("gw9", 1), "gw9"
        signature = directory.sign(keypair, message)
        directory.add("gw9", keypair.public_key, ROLE_GATEWAY)  # registered only afterwards
        if case == "signed-again-once-registered":
            assert directory.sign(keypair, message) == signature  # deterministic
    elif case == "second-directory":
        signature = _world_directory().sign(keypair, message)
    else:
        signature = directory.sign(keypair, message)
        if case == "tampered":
            message += b"\x00"
        elif case == "bit-flipped":
            flipped = bytearray(signature)
            flipped[bit // 8] ^= 1 << (bit % 8)
            signature = bytes(flipped)
    real = crypto.verify
    calls = []

    def counting_verify(*args):
        calls.append(args)
        return real(*args)

    expected = real(directory.public_key(entity_id), message, signature)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crypto, "verify", counting_verify)
        assert directory.verify(entity_id, message, signature) is expected
    assert len(calls) == (0 if case in SPARED_CASES else 1)
    assert expected is (case in SPARED_CASES + ("unregistered", "second-directory"))


# ---------------------------------------------------------------------------
# keyed cipher objects


def _reference_mac32(key: bytes, message: bytes) -> bytes:
    mac = CMAC(algorithms.AES(key))
    mac.update(message)
    return mac.finalize()[: crypto.MIC_LEN]


def _reference_ecb(key: bytes, data: bytes, decrypt: bool) -> bytes:
    cipher = Cipher(algorithms.AES(key), modes.ECB())
    context = cipher.decryptor() if decrypt else cipher.encryptor()
    return context.update(data) + context.finalize()


# distinct keys that do not look alike, so a context answering for another key shows
KEY_POOL = [hash_bytes(b"key %d" % n)[:16] for n in range(4)]


def _root_keys():
    """One ``RootKey`` per key bytes, made on first sight: a key's contexts serve
    every later call with it, as a device's do."""
    keys = {}
    return lambda key: keys.setdefault(key, RootKey(key))


@settings(max_examples=80, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(KEY_POOL) | st.binary(min_size=16, max_size=16),
            st.sampled_from(["mac", "encrypt", "decrypt"]),
            st.binary(max_size=80),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_keyed_ciphers_match_a_fresh_object_per_call(calls):
    """``mac32`` and the AES block functions give what a fresh CMAC or Cipher would.

    Calls repeat and interleave keys and operations on each key's own
    contexts, so a context that kept state between calls, or answered for
    another key, would show.
    """
    root_key = _root_keys()
    for key, operation, data in calls:
        if operation == "mac":
            assert mac32(root_key(key), data) == _reference_mac32(key, data)
            continue
        block = data[:16].ljust(16, b"\x00")
        if operation == "encrypt":
            assert aes128_encrypt_block(root_key(key), block) == _reference_ecb(key, block, False)
        else:
            assert aes128_decrypt_block(root_key(key), block) == _reference_ecb(key, block, True)


# blocks drawn again and again, so a context that chained one call into the next shows
BLOCK_POOL = [hash_bytes(b"block %d" % n)[:16] for n in range(3)]


@settings(max_examples=80, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(KEY_POOL) | st.binary(min_size=16, max_size=16),
            st.sampled_from(BLOCK_POOL) | st.binary(min_size=16, max_size=16),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_cached_decryptor_matches_a_fresh_context_and_inverts_encryption(calls):
    """Decryption through a root key's kept context, over interleaved keys and
    repeated blocks, gives what a fresh context gives and undoes the block encryption."""
    root_key = _root_keys()
    for key, block in calls:
        root = root_key(key)
        plain = aes128_decrypt_block(root, block)
        assert plain == _reference_ecb(key, block, True)
        assert aes128_encrypt_block(root, plain) == block
        assert aes128_decrypt_block(root, aes128_encrypt_block(root, block)) == block


def count_keyed_contexts(monkeypatch) -> Counter:
    """Count every CMAC and AES-ECB context ``crypto`` builds from here on, by
    constructor name: each key's contexts, and nothing else, come from these two."""
    built = Counter()
    for name in ("CMAC", "Cipher"):
        real = getattr(crypto, name)
        monkeypatch.setattr(
            crypto, name, lambda *args, real=real, name=name: built.update([name]) or real(*args)
        )
    return built


def test_a_root_key_builds_each_context_once_on_first_use(monkeypatch):
    """A root key builds its CMAC, encryptor and decryptor when a join first needs
    each, and keeps them; another key of the same bytes builds its own."""
    built = count_keyed_contexts(monkeypatch)
    key = RootKey(KEY_POOL[0])
    assert built == {}
    block = BLOCK_POOL[0]
    for _ in range(3):
        mac32(key, block)
        aes128_decrypt_block(key, aes128_encrypt_block(key, block))
    assert built == {"CMAC": 1, "Cipher": 2}
    twin = RootKey(KEY_POOL[0])
    assert twin == key and mac32(twin, block) == mac32(key, block)
    assert built == {"CMAC": 2, "Cipher": 2}


def test_a_short_root_key_is_refused():
    for key in (b"", b"short", bytes(15), bytes(17)):
        with pytest.raises(BadKeyError, match="root key must be 16 bytes"):
            RootKey(key)


def test_a_key_pair_builds_its_signing_keys_once_and_verifies_under_its_seed(monkeypatch):
    """The verify key comes from the private seed, not from the public key a pair
    was given; a pair builds its signing objects once, however often it signs."""
    gw0, gw1 = generate_keypair("gw0", 1), generate_keypair("gw1", 1)
    built = []
    real = crypto.Ed25519PrivateKey.from_private_bytes
    monkeypatch.setattr(
        crypto.Ed25519PrivateKey,
        "from_private_bytes",
        lambda seed: built.append(seed) or real(seed),
    )
    pretender = KeyPair("gw1", gw1.public_key, gw0.private_key)
    assert pretender.verify_key == gw0.public_key[:32] != gw1.public_key[:32]
    for message in (b"one", b"two"):
        assert verify(gw0.public_key, message, sign(pretender, message))
    assert built == [gw0.private_key[:32]]
