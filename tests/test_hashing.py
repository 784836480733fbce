"""The md5-prefix hash behind term buckets, derived doc ids, token
hashes and exact-duplicate text keys: its values are persisted (lexicon
buckets, segment partitions) and mirrored in SQL, so they are pinned."""

import numpy as np

from web_based_search_engine_ray.functions.hashing import (
    md5_u64,
    md5_u64_array,
    stable_hash63,
    stable_hash63_array,
    text_key63_array,
)

#: (string, md5_u64, & 63-bit mask, >> 1)
PINNED = [
    ("", 0xD41D8CD98F00B204, 6061155539545534980, 7642263788200155394),
    ("spark", 0x98F11B7A7880169C, 1797247939119158940, 5510309987986967374),
    ("merge", 0x65464C31B2E6AC04, 7297604022539037700, 3648802011269518850),
    ("https://example.com/a", 0xCD69B81EA00CC279, 5578192055148790393,
     7400782046001783100),
    ("naïve", 0x63899C6B55584197, 7172435866371506583, 3586217933185753291),
]


def test_md5_u64_and_its_63_bit_forms_are_pinned():
    for s, h, masked, shifted in PINNED:
        assert md5_u64(s) == md5_u64(s.encode()) == h
        assert stable_hash63(s) == masked
        assert h >> 1 == shifted


def test_array_forms_match_the_scalar_forms():
    strings = [p[0] for p in PINNED] * 2  # repeats are memo hits
    hv = md5_u64_array(strings)
    assert hv.dtype == np.uint64
    assert hv.tolist() == [md5_u64(s) for s in strings]
    assert stable_hash63_array(strings).tolist() == [
        stable_hash63(s) for s in strings]
    keys = text_key63_array(strings)
    assert keys.dtype == np.int64
    assert keys.tolist() == [md5_u64(s) >> 1 for s in strings]
