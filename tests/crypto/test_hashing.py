"""Unit tests for hashing helpers."""

import hashlib

import pytest

from repro.crypto.hashing import hash_fields, hash_many


def test_hash_fields_deterministic():
    assert hash_fields("a", 1, 2.5) == hash_fields("a", 1, 2.5)


def test_hash_fields_framing_unambiguous():
    assert hash_fields("ab", "c") != hash_fields("a", "bc")


def test_hash_fields_type_sensitive():
    assert hash_fields(1) != hash_fields("1")
    assert hash_fields(True) != hash_fields(1)


def test_hash_fields_handles_none_and_bytes():
    assert hash_fields(None) != hash_fields(b"")
    assert len(hash_fields(b"\x00\x01", None)) == 64


def test_hash_fields_negative_ints():
    assert hash_fields(-5) != hash_fields(5)


def test_hash_fields_rejects_unhashable_types():
    with pytest.raises(TypeError):
        hash_fields(["list"])


def test_hash_many_order_sensitive():
    a = hash_fields("a")
    b = hash_fields("b")
    assert hash_many([a, b]) != hash_many([b, a])


def test_hash_many_empty_is_stable():
    assert hash_many([]) == hash_many([])


def test_hash_fields_floats_distinct():
    assert hash_fields(1.0) != hash_fields(1.5)


def test_hash_fields_is_sha256_over_type_length_and_value():
    expected = hashlib.sha256(b"str" + (2).to_bytes(8, "big") + b"ab").hexdigest()
    assert hash_fields("ab") == expected


def test_hash_many_is_sha256_of_the_concatenated_digests():
    a, b = hash_fields("a"), hash_fields("b")
    assert hash_many([a, b]) == hashlib.sha256((a + b).encode("ascii")).hexdigest()


@pytest.mark.parametrize("value", [b"\x00", "text", True, 0, -1, 2**70, 0.5, None])
def test_hash_fields_gives_a_sha256_hex_digest_for_every_supported_type(value):
    digest = hash_fields(value)
    assert len(digest) == 64
    assert int(digest, 16) >= 0 and digest == digest.lower()
