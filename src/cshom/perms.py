"""Permutations of {1..n} in one-line notation.

A permutation is a tuple ``p`` with ``p[i]`` the image of ``i + 1``.
"""

from __future__ import annotations

from typing import Iterable

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """Product ``p * q``: the right factor acts first."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def sign(p: Perm) -> int:
    """Sign of ``p``, computed from its cycle type."""
    n = len(p)
    seen = [False] * n
    s = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def sort_sign(values: Iterable[int]) -> int:
    """Sign of the permutation that sorts ``values`` ascending."""
    vals = list(values)
    inv = 0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                inv += 1
    return -1 if inv % 2 else 1


def from_mapping(mapping: dict[int, int], n: int) -> Perm:
    """Permutation sending ``k`` to ``mapping[k]``, identity elsewhere."""
    out = list(range(1, n + 1))
    for k, v in mapping.items():
        out[k - 1] = v
    p = tuple(out)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError("mapping is not a bijection")
    return p
