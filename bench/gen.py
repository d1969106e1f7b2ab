"""Seeded input generator for the torusdyn benchmark.

Everything the program sees in a benchmark run is written here from the
workload seed: random integer matrices, translated endomorphisms and
scenario JSON files.  The same (workload, seed) gives byte-identical
files.  Alongside the files the generator returns the hidden structure
it built them from (block traces and determinants, Smith forms), which
the oracles use to predict every count without touching the program.

Endomorphisms are built as P^-1 B P with B block diagonal and P a random
symplectic (or unimodular) integer matrix.  Counts depend only on the
blocks' traces and determinants, so every seed poses a problem of the
same size while the matrices the program sees differ.

This module does not import torusdyn.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cli-session", "point-sets", "exact-kernels", "deep-iterates")

# exact-kernels: dense random matrices, entries in [-ENTRY, ENTRY]
KERNEL_SIZES = (8, 16, 24, 32)
KERNEL_MATRICES_PER_SIZE = 2
# Smith forms and complementary isogenies of dense random matrices only up
# to this size: past n = 16 their running time spreads over two orders of
# magnitude from one seed to the next (the transforms are never reduced).
KERNEL_SNF_MAX = 16
KERNEL_ENTRY = 99

# (trace, determinant) of the 2x2 blocks behind each generated endomorphism
CLI_BLOCKS = ((2, 5), (-1, 5))  # 4 * 7 = 28 fixed points at l = 1
POINT_SET_BLOCKS = ((-4, 9), (-3, 9), (1, 9))  # 14 * 13 * 9 = 1638 at l = 1
HYPERBOLIC_BLOCKS = ((1, 2), (-1, 2), (2, 2))
ROOT_OF_UNITY_BLOCKS = ((0, 1), (-1, 1), (3, 1))  # orders 4 and 3, then hyperbolic

# point-sets: rank-4 maps x -> M x + t with M - I of Smith form
# diag(1, 1, 4, 4) and translations of exact denominator 6, so a brute
# scan walks the 24^4 grid to find 16 points.
TRANSLATED_MAPS = 2
TRANSLATED_DIVISORS = (1, 1, 4, 4)
TRANSLATION_DENOMINATOR = 6


@dataclass
class Inputs:
    """Generated files (relative name -> text) and the structure behind them."""

    files: dict[str, str] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(self.files.items()):
            (directory / name).write_text(text)


# ---------------------------------------------------------------------------
# integer matrices as lists of rows


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matvec(a: list[list], v: list) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def block_diagonal(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[offset + i][offset : offset + len(row)] = row
        offset += len(b)
    return out


def symplectic_form(g: int) -> list[list[int]]:
    """One [[0, -1], [1, 0]] block per factor, as the builtins use."""
    return block_diagonal([[[0, -1], [1, 0]]] * g)


def random_symplectic(rng: random.Random, g: int, steps: int):
    """(P, P^-1) with P^T S P = S: a product of symplectic transvections.

    The transvection x -> x + c (v^T S x) v has matrix I + c v v^T S and
    inverse I - c v v^T S.
    """
    n = 2 * g
    s = symplectic_form(g)
    p, p_inv = identity(n), identity(n)
    for _ in range(steps):
        v = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
        c = rng.choice((-1, 1))
        vs = matvec([list(col) for col in zip(*s)], v)  # (v^T S)^T = S^T v
        t = [[int(i == j) + c * v[i] * vs[j] for j in range(n)] for i in range(n)]
        t_inv = [[int(i == j) - c * v[i] * vs[j] for j in range(n)] for i in range(n)]
        p, p_inv = matmul(p, t), matmul(t_inv, p_inv)
    return p, p_inv


def random_unimodular(rng: random.Random, n: int, steps: int):
    """(P, P^-1) for P a product of elementary shears."""
    p, p_inv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        shear = identity(n)
        shear[i][j] = c
        shear_inv = identity(n)
        shear_inv[i][j] = -c
        p, p_inv = matmul(p, shear), matmul(shear_inv, p_inv)
    return p, p_inv


def block_with(rng: random.Random, trace: int, det: int, lift: bool = False):
    """Random [[a, b], [c, d]] with the given trace and determinant.

    With lift, a is odd and c even, so the block fixes (1/2, 0) mod Z^2:
    the condition for the half-translation involution to commute with it.
    """
    while True:
        a = rng.randint(-6, 6)
        if lift and a % 2 == 0:
            continue
        d = trace - a
        bc = a * d - det
        if bc == 0:
            c = rng.choice((-2, 2)) if lift else rng.choice((-1, 1))
            return [[a, 0], [c, d]]
        divisors = [
            k for k in range(1, abs(bc) + 1) if bc % k == 0 and (not lift or k % 2 == 0)
        ]
        if not divisors:
            continue
        c = rng.choice(divisors) * rng.choice((-1, 1))
        return [[a, bc // c], [c, d]]


def _conjugate(p_inv, m, p):
    return matmul(matmul(p_inv, m), p)


def _frac(x: Fraction) -> str:
    return str(Fraction(x) % 1)


def _rows(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# scenario builders


def polarized_scenario(
    rng: random.Random,
    name: str,
    blocks: tuple[tuple[int, int], ...],
    involution: bool,
    subvariety: bool,
    steps: int = 3,
) -> tuple[dict, dict]:
    """Scenario dict and meta for P^-1 diag(A_1..A_g) P, polarized with q.

    All blocks share the determinant q, so M^T S M = q S.  With
    involution, the group {id, x -> U x + s} with U = diag(1, 1, -1, ...)
    and s = (1/2, 0, ...) acts freely and commutes with the map.  The
    subvariety is the first block's plane.
    """
    g = len(blocks)
    n = 2 * g
    q = blocks[0][1]
    a = [block_with(rng, tr, det, lift=(involution and i == 0)) for i, (tr, det) in enumerate(blocks)]
    p, p_inv = random_symplectic(rng, g, steps)
    m = _conjugate(p_inv, block_diagonal(a), p)
    data: dict = {
        "name": name,
        "torus": {"g": str(g), "S": _rows(symplectic_form(g))},
        "endomorphism": {"M": _rows(m), "t": ["0"] * n},
        "factors": [{"g": "1", "q": str(q), "r": str(g)}],
    }
    meta: dict = {"blocks": [list(b) for b in blocks], "q": q, "g": g}
    if involution:
        u = identity(n)
        for i in range(2, n):
            u[i][i] = -1
        s = [Fraction(1, 2)] + [Fraction(0)] * (n - 1)
        data["action"] = [
            {"U": _rows(identity(n)), "s": ["0"] * n},
            {
                "U": _rows(_conjugate(p_inv, u, p)),
                "s": [_frac(x) for x in matvec(p_inv, s)],
            },
        ]
    if subvariety:
        plane = [[int(i == j) for j in range(2)] for i in range(n)]
        data["subvariety"] = {
            "basis": _rows(matmul(p_inv, plane)),
            "translate": ["0"] * n,
            "period": "1",
        }
        meta["subvariety_block"] = list(blocks[0])
    return data, meta


def translated_map(rng: random.Random, name: str) -> tuple[dict, dict]:
    """Rank-4 map x -> M x + t, M - I = R diag(1,1,4,4) R', t in (1/6)Z^4."""
    r, _ = random_unimodular(rng, 4, 6)
    r2, _ = random_unimodular(rng, 4, 6)
    k = matmul(matmul(r, block_diagonal([[[d]] for d in TRANSLATED_DIVISORS])), r2)
    m = [[k[i][j] + int(i == j) for j in range(4)] for i in range(4)]
    den = TRANSLATION_DENOMINATOR
    t = [Fraction(rng.choice((1, den - 1)), den)]
    t += [Fraction(rng.randrange(den), den) for _ in range(3)]
    data = {
        "name": name,
        "torus": {"g": "2"},
        "endomorphism": {"M": _rows(m), "t": [_frac(x) for x in t]},
    }
    return data, {"count": math.prod(TRANSLATED_DIVISORS)}


def root_of_unity_scenario(rng: random.Random, name: str) -> tuple[dict, dict]:
    """Rank-6 P^-1 diag(A_1, A_2, A_3) P with det A_i = 1.

    Blocks of trace 0 and -1 have order 4 and 3, so M^l - I is singular
    exactly when 3 | l or 4 | l; the trace-3 block keeps the other
    counts growing.  The factors entry only feeds compare's formula
    column.
    """
    blocks = ROOT_OF_UNITY_BLOCKS
    a = [block_with(rng, tr, det) for tr, det in blocks]
    p, p_inv = random_unimodular(rng, 6, 8)
    m = _conjugate(p_inv, block_diagonal(a), p)
    data = {
        "name": name,
        "torus": {"g": "3"},
        "endomorphism": {"M": _rows(m), "t": ["0"] * 6},
        "factors": [{"g": "1", "q": "2", "r": "3"}],
    }
    return data, {"blocks": [list(b) for b in blocks]}


def random_kernel_matrix(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-KERNEL_ENTRY, KERNEL_ENTRY) for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"torusdyn-bench:{workload}:{seed}")
    out = Inputs()

    def add(filename: str, pair: tuple[dict, dict]) -> None:
        data, meta = pair
        out.files[filename] = _dump(data)
        out.meta[filename] = meta

    if workload == "cli-session":
        add("cli-generated.json", polarized_scenario(
            rng, "cli-generated", CLI_BLOCKS, involution=True, subvariety=True))
    elif workload == "point-sets":
        for i in range(TRANSLATED_MAPS):
            add(f"translated-{i}.json", translated_map(rng, f"translated-{i}"))
        add("rank6-involution.json", polarized_scenario(
            rng, "rank6-involution", POINT_SET_BLOCKS, involution=True, subvariety=False))
    elif workload == "exact-kernels":
        matrices = {
            str(n): [random_kernel_matrix(rng, n) for _ in range(KERNEL_MATRICES_PER_SIZE)]
            for n in KERNEL_SIZES
        }
        out.files["matrices.json"] = _dump(matrices)
        out.meta["matrices.json"] = {"sizes": list(KERNEL_SIZES)}
    else:
        add("hyperbolic-rank6.json", polarized_scenario(
            rng, "hyperbolic-rank6", HYPERBOLIC_BLOCKS, involution=False, subvariety=False))
        add("root-of-unity-rank6.json", root_of_unity_scenario(rng, "root-of-unity-rank6"))
    return out
