"""Multi-index calculus for derivatives of order <= m in n variables.

A multi-index is a tuple alpha = (alpha_1, ..., alpha_n) of nonnegative
integers with order |alpha| = sum(alpha).  On a cylinder R^p x omega the
coordinates split into an axial block (the first p) and a cross-sectional
block (the remaining n - p); an index is *axial* when it only differentiates
axial coordinates and *cross-sectional* when it only differentiates the rest.
"""

from itertools import product

MultiIndex = tuple[int, ...]


def order(alpha: MultiIndex) -> int:
    """Order |alpha| of a multi-index."""
    return sum(alpha)


def enumerate_upto(n: int, m: int) -> list[MultiIndex]:
    """All multi-indices of length n with |alpha| <= m, graded lexicographic.

    Indices are sorted by order first, then lexicographically, so the list
    starts with the zero index and ends with (m, 0, ..., 0) reversed ordering
    peers of the top grade.
    """
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    out = [alpha for alpha in product(range(m + 1), repeat=n) if sum(alpha) <= m]
    out.sort(key=lambda alpha: (sum(alpha), alpha))
    return out


def add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    _check_same_length(alpha, beta)
    return tuple(a + b for a, b in zip(alpha, beta))


def in_N1(alpha: MultiIndex, p: int) -> bool:
    """True when alpha differentiates axial coordinates only (entries past p are zero)."""
    _check_block(alpha, p)
    return all(a == 0 for a in alpha[p:])


def in_N2(alpha: MultiIndex, p: int) -> bool:
    """True when alpha differentiates cross-sectional coordinates only (first p entries zero)."""
    _check_block(alpha, p)
    return all(a == 0 for a in alpha[:p])


def encode(alpha: MultiIndex) -> str:
    """Serialize for config keys and report columns: (2, 0) -> "2_0"."""
    return "_".join(str(a) for a in alpha)


def decode(text: str, n: int | None = None) -> MultiIndex:
    """Inverse of encode; validates entry count when n is given."""
    parts = text.split("_")
    try:
        alpha = tuple(int(s) for s in parts)
    except ValueError:
        raise ValueError(f"bad multi-index text {text!r}") from None
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative entry in multi-index text {text!r}")
    if n is not None and len(alpha) != n:
        raise ValueError(f"expected {n} entries in {text!r}, got {len(alpha)}")
    return alpha


def _check_same_length(a: MultiIndex, b: MultiIndex) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a} vs {b}")


def _check_block(alpha: MultiIndex, p: int) -> None:
    if not 0 <= p <= len(alpha):
        raise ValueError(f"axial block size p={p} out of range for {alpha}")
