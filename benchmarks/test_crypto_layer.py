"""Micro-benchmarks of the crypto hot path (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.
"""

import pytest

from loraledger import crypto
from loraledger.crypto import (
    KeyDirectory,
    ROLE_SERVER,
    aes128_decrypt_block,
    aes128_encrypt_block,
    generate_keypair,
    mac32,
    sign,
)
from loraledger.frames import DIR_UP, SessionKeys, decrypt_payload, encrypt_payload

KEYPAIR = generate_keypair("srv0", 1)
MESSAGE = bytes(range(256)) * 2
SIGNATURE = sign(KEYPAIR.private_key, MESSAGE)
SYM_KEY = bytes(range(16))
DEV_ADDR = bytes.fromhex("01000001")
SESSION_KEYS = SessionKeys(DEV_ADDR, SYM_KEY, SYM_KEY)
# FIPS-197 Appendix C.1 (AES-128)
FIPS_KEY = bytes(range(16))
FIPS_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def test_sign(benchmark):
    """``sign`` as the program runs it: on libsodium where it loads."""
    assert benchmark(sign, KEYPAIR.private_key, MESSAGE) == SIGNATURE


def test_sign_reference(benchmark, monkeypatch):
    """``sign`` on the ``cryptography`` signer, which runs where libsodium does not load."""
    monkeypatch.setattr(crypto, "_sodium", lambda: None)
    assert benchmark(sign, KEYPAIR.private_key, MESSAGE) == SIGNATURE


def test_verify(benchmark):
    """``verify`` as the program runs it: accepted by libsodium where it loads."""
    assert benchmark(crypto.verify, KEYPAIR.public_key, MESSAGE, SIGNATURE)


def test_verify_reference(benchmark, monkeypatch):
    """``verify`` on ``cryptography`` alone, which runs where libsodium does not load."""
    monkeypatch.setattr(crypto, "_sodium", lambda: None)
    assert benchmark(crypto.verify, KEYPAIR.public_key, MESSAGE, SIGNATURE)


def test_key_directory_verify_memo_hit(benchmark):
    directory = KeyDirectory()
    directory.add("srv0", KEYPAIR.public_key, ROLE_SERVER)
    assert directory.verify("srv0", MESSAGE, SIGNATURE)  # fill the memo
    assert benchmark(directory.verify, "srv0", MESSAGE, SIGNATURE)


def test_key_directory_sign_then_verify(benchmark):
    """A world signs a message and one of its replicas checks the signature."""
    directory = KeyDirectory()
    directory.add("srv0", KEYPAIR.public_key, ROLE_SERVER)

    def sign_then_verify():
        signature = directory.sign(KEYPAIR, MESSAGE)
        return signature, directory.verify("srv0", MESSAGE, signature)

    assert benchmark(sign_then_verify) == (SIGNATURE, True)


def test_aes128_encrypt_block(benchmark):
    assert benchmark(aes128_encrypt_block, FIPS_KEY, FIPS_PLAIN) == FIPS_CIPHER


def test_aes128_decrypt_block(benchmark):
    assert benchmark(aes128_decrypt_block, FIPS_KEY, FIPS_CIPHER) == FIPS_PLAIN


def test_mac32(benchmark):
    assert len(benchmark(mac32, SYM_KEY, MESSAGE[:64])) == crypto.MIC_LEN


@pytest.mark.parametrize("size", [16, 242])
def test_encrypt_payload(benchmark, size):
    plain = MESSAGE[:size]
    sealed = benchmark(encrypt_payload, SESSION_KEYS, 7, DIR_UP, plain)
    assert decrypt_payload(SESSION_KEYS, 7, DIR_UP, sealed) == plain
