"""GF(2)-linear algebra on int bitvectors.  A linear map is given by its
basis images, images[i] being the image of 1 << i; echelon rows are keyed
by the bit_length of their leading bit."""


def apply(images: list[int], v: int) -> int:
    """The image of v under the map with the given basis images."""
    out = 0
    for img in images:
        if not v:
            break
        if v & 1:
            out ^= img
        v >>= 1
    return out


def table(images: list[int]) -> list[int]:
    """The images of all v < 2^len(images), indexed by v, built by doubling."""
    out = [0]
    for img in images:
        out += [u ^ img for u in out]
    return out


def echelon(vectors) -> dict[int, int]:
    """One row per leading bit, spanning the vectors."""
    rows = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in rows:
                rows[top] = v
                break
            v ^= rows[top]
    return rows


def reduce(rows: dict[int, int], v: int) -> int:
    """v plus rows while its leading bit leads a row: 0 iff v is in their span
    (a negative v is no bitvector and comes back as it is)."""
    while v > 0 and v.bit_length() in rows:
        v ^= rows[v.bit_length()]
    return v


def rank(vectors) -> int:
    """Dimension of the GF(2) span of the vectors."""
    return len(echelon(vectors))
