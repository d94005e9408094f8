"""Primitive layer: keys, signatures, envelopes, MACs, key derivation."""

import itertools
import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.cmac import CMAC
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger import crypto
from loraledger.crypto import (
    DecryptionError,
    ENVELOPE_OVERHEAD,
    KeyDirectory,
    KeyPair,
    ROLE_GATEWAY,
    ROLE_SERVER,
    UnknownEntityError,
    VERDICT_MEMO_SIZE,
    aes128_decrypt_block,
    aes128_encrypt_blocks,
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
    sig = sign(kp.private_key, b"hello")
    assert len(sig) == 64
    assert verify(kp.public_key, b"hello", sig)
    assert not verify(kp.public_key, b"hellO", sig)
    assert not verify(kp.public_key, b"hello", sig[:-1] + bytes([sig[-1] ^ 1]))
    other = generate_keypair("gw1", 1)
    assert not verify(other.public_key, b"hello", sig)


def test_signature_deterministic():
    kp = generate_keypair("gw0", 1)
    assert sign(kp.private_key, b"x") == sign(kp.private_key, b"x")


def test_envelope_roundtrip_and_overhead():
    kp = generate_keypair("srv0", 5)
    rng = random.Random(0)
    for size in (1, 16, 49, 200):
        data = bytes(rng.randrange(256) for _ in range(size))
        env = pk_encrypt(kp.public_key, data, rng)
        assert len(env) == size + ENVELOPE_OVERHEAD
        assert pk_decrypt(kp.private_key, env) == data


def test_envelope_rejects_empty_plaintext():
    kp = generate_keypair("srv0", 5)
    with pytest.raises(ValueError):
        pk_encrypt(kp.public_key, b"", random.Random(0))


def test_envelope_aad_readable_without_key_but_authenticated():
    kp = generate_keypair("gw2", 9)
    rng = random.Random(1)
    env = pk_encrypt(kp.public_key, b"secret-context", rng, aad=b"addr+eui")
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
    env = pk_encrypt(kp.public_key, b"0123456789", random.Random(2), aad=b"a")
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
    env = pk_encrypt(alice.public_key, b"for alice", random.Random(0))
    with pytest.raises(DecryptionError):
        pk_decrypt(bob.private_key, env)


def test_mac32_frozen_vector():
    assert mac32(bytes(range(16)), b"abc").hex() == MAC32_ABC


def test_mac32_key_and_message_sensitivity():
    key = bytes(range(16))
    base = mac32(key, b"abc")
    assert mac32(key, b"abd") != base
    assert mac32(bytes(16), b"abc") != base
    assert len(base) == 4


def test_derive_session_keys_frozen_vectors():
    nwk, app = derive_session_keys(
        bytes(range(16)),
        bytes.fromhex("010203"),
        bytes.fromhex("aabbcc"),
        bytes.fromhex("0102"),
    )
    assert nwk.hex() == NWK_S_KEY
    assert app.hex() == APP_S_KEY


def test_derive_session_keys_distinct_and_sensitive():
    args = (bytes(range(16)), b"\x01\x02\x03", b"\xaa\xbb\xcc", b"\x01\x02")
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


def _world_directory() -> KeyDirectory:
    directory = KeyDirectory()
    for entity_id, role in (("gw0", ROLE_GATEWAY), ("srv0", ROLE_SERVER)):
        directory.add(entity_id, generate_keypair(entity_id, 1).public_key, role)
    return directory


def _signed_directory():
    sig = sign(generate_keypair("gw0", 1).private_key, b"payload")
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
    "unregistered",
    "second-directory",
)


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
    """
    directory = _world_directory()
    keypair, entity_id = generate_keypair(signer, 1), signer
    if case == "re-attributed":
        entity_id = "srv0" if signer == "gw0" else "gw0"
        pretender = generate_keypair(entity_id, 1)
        keypair = KeyPair(entity_id, pretender.public_key, keypair.private_key)
        signature = directory.sign(keypair, message)
    elif case == "unregistered":
        keypair, entity_id = generate_keypair("gw9", 1), "gw9"
        signature = directory.sign(keypair, message)
        directory.add("gw9", keypair.public_key, ROLE_GATEWAY)  # registered only afterwards
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
    assert len(calls) == (0 if case == "honest" else 1)
    assert expected is (case in ("honest", "unregistered", "second-directory"))


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

    Calls repeat and interleave keys and operations, so a context that kept
    state between calls, or answered for another key, would show.
    """
    for key, operation, data in calls:
        if operation == "mac":
            assert mac32(key, data) == _reference_mac32(key, data)
        elif operation == "encrypt":
            blocks = data + bytes(-len(data) % 16)
            assert aes128_encrypt_blocks(key, blocks) == _reference_ecb(key, blocks, False)
        else:
            block = data[:16].ljust(16, b"\x00")
            assert aes128_decrypt_block(key, block) == _reference_ecb(key, block, True)


def test_keyed_cipher_caches_are_bounded():
    for cache in (crypto._cmac_template, crypto._ecb_encryptor):
        assert cache.cache_info().maxsize == crypto.KEYED_CACHE_SIZE
    assert 0 < crypto.KEYED_CACHE_SIZE < float("inf")
