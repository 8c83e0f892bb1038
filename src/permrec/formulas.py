"""Exact closed forms and bounds for ball-overlap maxima.

Every formula is evaluated over exact integers or rationals; a closed form
that is declared integral but evaluates to a fraction raises instead of
rounding.  Validity ranges are first-class: outside the range where a value
is actually asserted, functions return None (an explicit no-claim marker)
rather than a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .perms import CycleType


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {x}")
    return int(x)


def hamming_max_overlap(n: int, q: int, r: int) -> int:
    """Largest r-ball overlap in the Hamming graph of length-n q-ary words:
    q * sum_{i<r} C(n-1, i) (q-1)^i."""
    if n < 2 or q < 2 or r < 1:
        raise ValueError(f"need n >= 2, q >= 2, r >= 1, got {(n, q, r)}")
    return q * sum(comb(n - 1, i) * (q - 1) ** i for i in range(r))


def johnson_max_overlap(n: int, e: int, r: int) -> int:
    """Largest r-ball overlap in the Johnson graph of e-subsets of an n-set:
    n * sum_{i<r} C(e-1, i) C(n-e-1, i) / (i+1)."""
    if n < 2 or not 1 <= e <= n - 1 or r < 1:
        raise ValueError(f"need n >= 2, 1 <= e <= n-1, r >= 1, got {(n, e, r)}")
    total = sum(
        Fraction(comb(e - 1, i) * comb(n - e - 1, i), i + 1) for i in range(r)
    )
    return _as_int(n * total, f"johnson overlap ({n},{e},{r})")


def transposition_max_overlap(n: int, r: int) -> int | None:
    """Largest r-ball overlap in the all-transpositions graph: 3 for r=1 and
    3(n-2)(n+1)/2 for r=2, asserted for n >= 3.  None outside that range."""
    if r not in (1, 2):
        raise ValueError(f"closed form covers r in {{1, 2}}, got r={r}")
    if n < 3:
        return None
    if r == 1:
        return 3
    return _as_int(Fraction(3 * (n - 2) * (n + 1), 2), "transposition overlap")


def transposition_sphere_overlaps(n: int) -> dict[int, int | None]:
    """Per-distance overlap maxima for two-error balls in the
    all-transpositions graph, with their validity ranges:

        s=1: n(n-1)        for n >= 3
        s=2: 3(n-2)(n+1)/2 for n >= 3
        s=3: 12            for n >= 4
        s=4: 20            for n >= 5

    Entries outside their range are None (no claim)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return {
        1: n * (n - 1),
        2: _as_int(Fraction(3 * (n - 2) * (n + 1), 2), "transposition overlap"),
        3: 12 if n >= 4 else None,
        4: 20 if n >= 5 else None,
    }


def bubble_star_max_overlap(kind: str, n: int, r: int) -> int | None:
    """Largest r-ball overlap in the adjacent-swap ('t') or prefix-swap
    ('st') graph: 2 for r=1 and 2(n-1) for r=2, asserted for n >= 3 ('t')
    or n >= 4 ('st').  None below the validity range."""
    if kind not in ("t", "st"):
        raise ValueError(f"kind must be 't' or 'st', got {kind!r}")
    if r not in (1, 2):
        raise ValueError(f"closed form covers r in {{1, 2}}, got r={r}")
    if n < (3 if kind == "t" else 4):
        return None
    return 2 if r == 1 else 2 * (n - 1)


def bubble_star_sphere_overlaps(kind: str, n: int) -> dict[int, int | None]:
    """Per-distance overlap maxima for two-error balls in the adjacent-swap
    and prefix-swap graphs, with validity ranges:

        adjacent ('t'):  s=1: 2(n-1) n>=3   s=3: 4 for n=4,5;    6 for n>=6
                         s=2: 2(n-1) n>=3   s=4: 4 for 5<=n<=7;  6 for n>=8
        prefix  ('st'):  s=1: 2(n-1) n>=4   s=2: n+1    n>=5
                         s=3: 4      n>=4   s=4: 4      n>=5

    Both graphs are bipartite, so z in B_2(e) and B_2(y) has d(e, z) +
    d(z, y) of the parity of s = d(e, y).  't', s=3: z is a neighbor of e
    or of y on a geodesic, so the overlap is des(y) + des(y^-1); des(y) <=
    inv(y) = 3, with equality iff y is three disjoint adjacent swaps (so
    n >= 6), and the reversal of three letters gives 2 + 2.  't', s=4: z is
    a geodesic midpoint, a length-2 element below y in the weak order.
    Their count depends only on the components of y's support, and every
    such shape fits in S_8, so the maximum is constant from n = 8 on, where
    four disjoint swaps give C(4, 2) = 6.  'st', s=2: e and y share one
    neighbor x (the girth is 6); the overlap is e, y, x, the n-3 other
    neighbors of x and the vertex opposite x on the hexagon (s_i s_j)^3 = e
    through e, x, y.  Every entry is checked by brute force for n <= 9.
    """
    if kind not in ("t", "st"):
        raise ValueError(f"kind must be 't' or 'st', got {kind!r}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if kind == "t":
        return {
            1: 2 * (n - 1),
            2: 2 * (n - 1),
            3: None if n < 4 else 4 if n <= 5 else 6,
            4: None if n < 5 else 4 if n <= 7 else 6,
        }
    return {
        1: 2 * (n - 1) if n >= 4 else None,
        2: n + 1 if n >= 5 else None,
        3: 4 if n >= 4 else None,
        4: 4 if n >= 5 else None,
    }


def local_params_formula(ct: CycleType) -> tuple[int, int]:
    """(c, b) for a vertex of the all-transpositions graph by cycle type:

        c = (sum_j j^2 h_j - n) / 2,   b = (n^2 - sum_j j^2 h_j) / 2.

    The level count a is 0 there, so c + b equals the valency C(n, 2)."""
    n = ct.degree
    sq = sum(j * j * h for j, h in enumerate(ct.counts, start=1))
    c = _as_int(Fraction(sq - n, 2), "closer-neighbor count")
    b = _as_int(Fraction(n * n - sq, 2), "farther-neighbor count")
    return c, b


def single_error_upper_bound(v: int, k: int, lam: int) -> Fraction:
    """Upper bound (v + lambda)/2 on the one-error overlap maximum of any
    k-regular graph; equality needs lambda = v-4 and k = v-2 on the
    triangle side and strong regularity on the common-neighbor side."""
    if not 2 <= k <= v - 2:
        raise ValueError(f"need 2 <= k <= v-2, got k={k}, v={v}")
    if not 0 <= lam <= k - 2:
        raise ValueError(f"need 0 <= lambda <= k-2, got {lam}")
    return Fraction(v + lam, 2)


def two_error_lower_bound(k: int, mu: int, n1: int) -> Fraction:
    """Lower bound mu*(k - 1 - (3/4)(mu-1)(n1 - 2)) + 2 on the two-error
    overlap maximum at center distance 2, where n1 is the one-error
    overlap maximum."""
    if mu < 1 or k < 2:
        raise ValueError(f"need mu >= 1 and k >= 2, got mu={mu}, k={k}")
    return mu * (k - 1 - Fraction(3, 4) * (mu - 1) * (n1 - 2)) + 2


@dataclass(frozen=True)
class PremiseCheck:
    """Applicability of the triangle/pentagon-free comparison between the
    distance-2 and distance-1 two-error overlap maxima."""

    applicable: bool
    reasons: tuple[str, ...]


def sphere_comparison_premises(
    k: int, mu: int, has_triangle: bool, has_pentagon: bool
) -> PremiseCheck:
    """Premises under which the distance-2 maximum dominates the distance-1
    maximum for two-error balls: no triangles, no pentagons, mu >= 2 and
    k >= 1 + (3/4) mu (mu - 1)."""
    reasons = []
    if has_triangle:
        reasons.append("graph has triangles")
    if has_pentagon:
        reasons.append("graph has pentagons")
    if mu < 2:
        reasons.append(f"mu={mu} < 2")
    if k < 1 + Fraction(3, 4) * (mu - 1) * mu:
        reasons.append(f"k={k} < 1 + (3/4)(mu-1)mu")
    return PremiseCheck(applicable=not reasons, reasons=tuple(reasons))
