"""Permutation arithmetic, cycle structure, conjugacy classes, and ranking.

Permutations of degree n are stored as tuples of 0-based values in one-line
notation: ``p[i] = p(i)``.  All text I/O is 1-based, matching the usual
``[2,3,1]`` convention, and is converted at the boundary by
:func:`parse_perm` / :func:`format_perm`.

Multiplication is on the right: ``compose(p, q)(k) = p(q(k))``, so composing
with the transposition of positions i and j swaps those two entries of the
one-line array:

>>> format_perm(compose(parse_perm("[2,1,3]"), transposition(3, 1, 2)))
'[2,3,1]'

Cycle types are the multiset of disjoint-cycle lengths (fixed points count
as 1-cycles) and index the conjugacy classes of the symmetric group.

Inside the metric engine (``cayley``, ``channel``) permutations are held in
a packed form: the bytes object with byte i equal to p(i), made by
:func:`pack` and read back by :func:`unpack`.  Composition then runs as one
``bytes.translate`` call, and a bytes object caches its hash.  Two tables
do all of it, for packed p and z of degree n:

* ``left_table(p) = p + PAD[n]``, and z translated by it is
  ``compose(p, z)``;
* ``left_inverse_table(p) = bytes.maketrans(p, IDENT[n])``, and z
  translated by it is ``compose(inverse(p), z)``.

:func:`translated` applies a table to many packed permutations at once.
Sorting packed permutations of one degree orders them as their tuples, so
sorted output is the same in either form.  Only the engine's inner loops
use the packed form; every public function takes and returns tuples.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

Perm = tuple[int, ...]

# Degree caps.  Arithmetic stays exact at any size (Python ints), these keep
# accidental factorial blow-ups from eating the machine.
MAX_DEGREE = 12
MAX_CLASS_DEGREE = 10


def identity(n: int) -> Perm:
    _check_degree(n)
    return tuple(range(n))


def is_perm(seq) -> bool:
    """True if seq is a permutation of 0..len(seq)-1."""
    n = len(seq)
    seen = [False] * n
    for v in seq:
        if not isinstance(v, int) or not 0 <= v < n or seen[v]:
            return False
        seen[v] = True
    return True


def _check_degree(n: int) -> None:
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {n}")


def _check_same_degree(p: Perm, q: Perm) -> None:
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")


def compose(p: Perm, q: Perm) -> Perm:
    """Right-action product: ``compose(p, q)(k) = p(q(k))``.

    >>> compose((1, 2, 0), (1, 2, 0))
    (2, 0, 1)
    """
    _check_same_degree(p, q)
    return tuple(p[v] for v in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


# Packed form (see the module docstring).  PAD[n] completes a packed
# permutation of degree n to a 256-byte translation table that fixes every
# byte from n on; IDENT[n] is the packed identity.
PAD = tuple(bytes(range(n, 256)) for n in range(MAX_DEGREE + 1))
IDENT = tuple(bytes(range(n)) for n in range(MAX_DEGREE + 1))


def pack(p: Perm) -> bytes:
    return bytes(p)


def unpack(p: bytes) -> Perm:
    return tuple(p)


def left_table(p: bytes) -> bytes:
    """Table that maps packed z to packed ``compose(p, z)``."""
    return p + PAD[len(p)]


def left_inverse_table(p: bytes) -> bytes:
    """Table that maps packed z to packed ``compose(inverse(p), z)``."""
    return bytes.maketrans(p, IDENT[len(p)])


def translated(packed, table: bytes):
    """Iterator over the packed permutations in ``packed`` translated by
    ``table``, in order."""
    return map(bytes.translate, packed, itertools.repeat(table))


def all_permutations(data: bytes, n: int) -> bool:
    """Whether each n-byte record of ``data`` is a packed permutation of
    degree n: no byte is n or more, and no two positions of a record hold
    the same byte.  The second test compares the records' positions
    pairwise, as columns of all records at once: two columns agree in a
    record iff their XOR has a zero byte there.

    >>> all_permutations(bytes([1, 0, 2, 2, 0, 1]), 3)
    True
    >>> all_permutations(bytes([1, 0, 2, 2, 0, 0]), 3)
    False
    """
    if data.translate(None, IDENT[n]):
        return False
    count = len(data) // n
    cols = [int.from_bytes(data[i::n], "little") for i in range(n)]
    return not any(
        b"\0" in (a ^ b).to_bytes(count, "little")
        for a, b in itertools.combinations(cols, 2)
    )


def transposition(n: int, i: int, j: int) -> Perm:
    """The swap of 0-based positions i < j as a permutation of degree n."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def cycles(p: Perm) -> list[list[int]]:
    """Disjoint cycles of p including fixed points, each starting at its
    smallest element, ordered by that element."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = p[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = p[v]
        out.append(cyc)
    return out


def cycle_count(p: Perm) -> int:
    return len(cycles(p))


@dataclass(frozen=True)
class CycleType:
    """Cycle-length multiset of a permutation: ``counts[j-1]`` is the number
    of j-cycles.  ``len(counts)`` equals the degree."""

    counts: tuple[int, ...]

    def __post_init__(self):
        n = len(self.counts)
        if n == 0:
            raise ValueError("empty cycle type")
        if any(h < 0 for h in self.counts):
            raise ValueError(f"negative cycle count in {self.counts}")
        if sum(j * h for j, h in enumerate(self.counts, start=1)) != n:
            raise ValueError(f"cycle lengths do not sum to degree: {self.counts}")

    @property
    def degree(self) -> int:
        return len(self.counts)

    @property
    def cycle_count(self) -> int:
        return sum(self.counts)

    @property
    def min_transpositions(self) -> int:
        """Least number of transpositions multiplying to this class; also the
        index of the sphere holding the class in the all-transpositions graph."""
        return self.degree - self.cycle_count

    def __str__(self) -> str:
        return format_cycle_type(self)


def cycle_type(p: Perm) -> CycleType:
    counts = [0] * len(p)
    for cyc in cycles(p):
        counts[len(cyc) - 1] += 1
    return CycleType(tuple(counts))


def cycle_types(n: int) -> list[CycleType]:
    """All cycle types of degree n (one per integer partition of n),
    in a fixed deterministic order."""
    _check_degree(n)
    out = []
    for part in _partitions(n):
        counts = [0] * n
        for j in part:
            counts[j - 1] += 1
        out.append(CycleType(tuple(counts)))
    return out


def _partitions(n: int, largest: int | None = None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def conjugacy_class_size(ct: CycleType) -> int:
    """Number of permutations with the given cycle type, as an exact integer:
    n! / prod_j (j^h_j * h_j!)."""
    denom = 1
    for j, h in enumerate(ct.counts, start=1):
        denom *= j**h * factorial(h)
    num = factorial(ct.degree)
    assert num % denom == 0
    return num // denom


def class_representative(ct: CycleType) -> Perm:
    """Canonical member of the class: cycles on consecutive blocks of
    0..n-1, longest first."""
    p = list(range(ct.degree))
    pos = 0
    for j in range(ct.degree, 0, -1):
        for _ in range(ct.counts[j - 1]):
            block = list(range(pos, pos + j))
            for a, b in zip(block, block[1:]):
                p[a] = b
            p[block[-1]] = block[0]
            pos += j
    return tuple(p)


def enumerate_class(ct: CycleType) -> frozenset[Perm]:
    """All permutations of the given cycle type.

    Built directly from the cycle structure (never by filtering all n!
    permutations); the cardinality equals :func:`conjugacy_class_size`.
    """
    if ct.degree > MAX_CLASS_DEGREE:
        raise ValueError(
            f"class enumeration capped at degree {MAX_CLASS_DEGREE}, got {ct.degree}"
        )
    return frozenset(iter_class(ct))


def iter_class(ct: CycleType, first: int | None = None):
    """Yield the members of a conjugacy class one at a time.

    Cycles are anchored at the least unused symbol, so every permutation is
    produced exactly once even when several cycles share a length.  With
    ``first``, only the members whose cycle through 0 has that length.
    """
    n = ct.degree
    image = [-1] * n
    lengths = [j for j in range(1, n + 1) if ct.counts[j - 1]]

    def build(remaining: tuple[int, ...], counts_left: list[int], choices: list[int]):
        if not remaining:
            yield tuple(image)
            return
        anchor, rest = remaining[0], remaining[1:]
        for j in choices:
            if counts_left[j - 1] == 0:
                continue
            counts_left[j - 1] -= 1
            for others in itertools.permutations(rest, j - 1):
                chain = (anchor, *others)
                for a, b in zip(chain, chain[1:]):
                    image[a] = b
                image[chain[-1]] = anchor
                chosen = set(others)
                yield from build(
                    tuple(v for v in rest if v not in chosen), counts_left, lengths
                )
            counts_left[j - 1] += 1

    yield from build(tuple(range(n)), list(ct.counts), lengths if first is None else [first])


def rank(p: Perm) -> int:
    """Lexicographic (Lehmer-code) rank of p among all permutations of its
    degree; the identity has rank 0.

    >>> rank((0, 1, 2))
    0
    >>> rank((2, 1, 0))
    5
    """
    n = len(p)
    r = 0
    f = factorial(n - 1)
    for idx in range(n - 1):
        smaller = 0
        v = p[idx]
        for later in p[idx + 1 :]:
            if later < v:
                smaller += 1
        r += smaller * f
        f //= n - 1 - idx
    return r


def unrank(n: int, r: int) -> Perm:
    """Inverse of :func:`rank`: the permutation of degree n at rank r.

    >>> unrank(3, 5)
    (2, 1, 0)
    """
    _check_degree(n)
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for degree {n}")
    symbols = list(range(n))
    out = []
    f = factorial(n)
    for k in range(n, 0, -1):
        f //= k
        d, r = divmod(r, f)
        out.append(symbols.pop(d))
    return tuple(out)


def minimal_factorization_count(ct: CycleType) -> int:
    """Number of ordered ways to write a permutation of this class as a
    product of the minimum number of transpositions:

        i! * prod_j (j^(j-2) / (j-1)!)^h_j    with i = n - (number of cycles).

    The per-cycle factors are rational but the product is always integral;
    evaluation is exact.  The identity class (i = 0) returns 1 by convention
    (the degenerate empty product).
    """
    i = ct.min_transpositions
    result = Fraction(factorial(i))
    for j, h in enumerate(ct.counts, start=1):
        if h == 0:
            continue
        base = Fraction(1 if j == 1 else j ** (j - 2), factorial(j - 1))
        result *= base**h
    if result.denominator != 1:
        raise ArithmeticError(f"non-integral factorization count for {ct}")
    return int(result)


# Text formats: permutations as "[2,3,1]" (1-based), cycle types as
# "1^2 2^1" tokens in increasing cycle length.

_PERM_RE = re.compile(r"^\[\s*(\d+(?:\s*,\s*\d+)*)\s*\]$")
_CT_TOKEN_RE = re.compile(r"^(\d+)\^(\d+)$")


def parse_perm(text: str) -> Perm:
    """Parse 1-based one-line notation, e.g. ``[2,3,1]`` -> (1, 2, 0)."""
    m = _PERM_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a permutation literal: {text!r}")
    values = [int(tok) for tok in m.group(1).split(",")]
    p = tuple(v - 1 for v in values)
    if not is_perm(p):
        raise ValueError(f"symbols are not 1..{len(p)} exactly once: {text!r}")
    _check_degree(len(p))
    return p


def format_perm(p: Perm) -> str:
    return "[" + ",".join(str(v + 1) for v in p) + "]"


def parse_cycle_type(text: str) -> CycleType:
    """Parse ``1^2 2^1`` style tokens into a cycle type."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty cycle type text")
    pairs = []
    for tok in tokens:
        m = _CT_TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad cycle-type token: {tok!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    n = sum(j * h for j, h in pairs)
    # before the n counts are allocated
    _check_degree(n)
    counts = [0] * n
    for j, h in pairs:
        # a zero count leaves j out of n, so j may still lie outside 1..n
        if not 1 <= j <= n:
            raise ValueError(f"cycle length {j} outside 1..{n} in {text!r}")
        if counts[j - 1]:
            raise ValueError(f"duplicate cycle length {j} in {text!r}")
        counts[j - 1] = h
    return CycleType(tuple(counts))


def format_cycle_type(ct: CycleType) -> str:
    return " ".join(
        f"{j}^{h}" for j, h in enumerate(ct.counts, start=1) if h
    )
