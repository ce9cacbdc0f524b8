import random

import pytest

from apn20.linear import apply, echelon, rank, reduce, table


def span(vectors) -> set[int]:
    """Oracle: every GF(2) combination of the vectors."""
    out = {0}
    for v in vectors:
        out |= {u ^ v for u in out}
    return out


@pytest.mark.parametrize("bits", [1, 3, 6, 10])
def test_rank_is_log2_of_span_size(bits):
    rng = random.Random(bits)
    for _ in range(60):
        vectors = [rng.randrange(1 << bits) for _ in range(rng.randrange(bits + 3))]
        assert 1 << rank(vectors) == len(span(vectors))


def test_echelon_rows_have_distinct_leading_bits_and_keep_the_span():
    rng = random.Random(5)
    for _ in range(40):
        vectors = [rng.randrange(1 << 8) for _ in range(rng.randrange(12))]
        rows = echelon(vectors)
        assert all(row.bit_length() == top for top, row in rows.items())
        assert span(rows.values()) == span(vectors)


def test_reduce_is_zero_exactly_on_the_span():
    rng = random.Random(9)
    for _ in range(30):
        vectors = [rng.randrange(1 << 7) for _ in range(rng.randrange(6))]
        rows, inside = echelon(vectors), span(vectors)
        for v in range(1 << 7):
            assert (reduce(rows, v) == 0) == (v in inside), (vectors, v)


def test_table_agrees_with_apply():
    rng = random.Random(2)
    for n in (0, 1, 4, 9):
        images = [rng.randrange(1 << 12) for _ in range(n)]
        tab = table(images)
        assert len(tab) == 1 << n
        for v in range(1 << n):
            assert tab[v] == apply(images, v)
    assert apply([0b11, 0b101], 0b10) == 0b101
