"""Answer checks computed apart from isocycles.

Every check here re-derives what it compares against from classical
results, with its own arithmetic: the closed-form vertex census, the
Delfs–Galbraith count of F_p-rational supersingular j-invariants, class
numbers from the benchmark's own reduced-form count, the Ihara–Bass
recursion for non-backtracking traces, Möbius inversion and Horner
evaluation over F_{p^2}.  Nothing is compared against stored program
output.  Each check returns a list of error strings; empty means correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

# Error prefix of a graph-side count that disagrees with Ihara–Bass.
GRAPH_SIDE_MISMATCH = "graph side"


# --- integer helpers -------------------------------------------------------

def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    exps = factor(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def census(p: int) -> int:
    """Supersingular j-invariants over F_{p^2}: p//12 + {0,1,1,2}[p mod 12]."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def class_number(D: int) -> int:
    """h(D) as the count of primitive reduced forms (a, b, c) of discriminant D.

    Reduced means |b| <= a <= c, with b >= 0 when |b| = a or a = c; every
    such form has 3a^2 <= |D|.  The (a, b) grid with b >= 0 is tested at
    once; a form with 0 < b < a < c stands for itself and (a, -b, c).
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"not a negative discriminant: {D}")
    n = -D
    amax = isqrt(n // 3)
    dtype = np.int32 if amax * amax + n < 2**31 else np.int64
    a = np.arange(1, amax + 1, dtype=dtype)[:, None]
    b = np.arange(n % 2, amax + 1, 2, dtype=dtype)[None, :]
    t = b * b + n
    ok = (b <= a) & (t % (4 * a) == 0)
    c = t // (4 * a)
    ok &= (c >= a) & (np.gcd(np.gcd(a, b), c) == 1)
    twice = ok & (b > 0) & (b < a) & (c > a)
    return int(ok.sum() + twice.sum())


def fp_rational_count(p: int) -> int:
    """Delfs–Galbraith: supersingular j-invariants lying in F_p."""
    if p % 4 == 1:
        return class_number(-4 * p) // 2
    if p % 8 == 7:
        return class_number(-p)
    return 2 * class_number(-p)


# --- graphs ----------------------------------------------------------------

def parse_vertex(label: str, p: int) -> tuple[int, int]:
    """(a, b) from "a+b*s", or from "a" for an element of F_p."""
    a, plus, b = label.partition("+")
    if not plus:
        return int(a) % p, 0
    if not b.endswith("*s"):
        raise ValueError(f"bad vertex label {label!r}")
    return int(a) % p, int(b[:-2]) % p


def check_graph(payload: dict, p: int, ell: int) -> list[str]:
    """Census, out-degree, symmetry, Frobenius closure and the F_p count."""
    errors = []
    if (payload.get("p"), payload.get("ell")) != (p, ell):
        return [f"graph payload is for ({payload.get('p')}, {payload.get('ell')})"]
    verts = [parse_vertex(v, p) for v in payload["vertices"]]
    n = len(verts)
    if n != census(p):
        errors.append(f"{n} vertices, census gives {census(p)}")
    if len(set(verts)) != n:
        errors.append("repeated vertex")
    rows = [{j: m for j, m in row} for row in payload["adjacency"]]
    if len(rows) != n:
        errors.append(f"{len(rows)} adjacency rows for {n} vertices")
        return errors
    for i, row in enumerate(rows):
        if sum(row.values()) != ell + 1:
            errors.append(f"vertex {i} has out-degree {sum(row.values())}")
        if any(not 0 <= j < n or m <= 0 for j, m in row.items()):
            errors.append(f"vertex {i} has a bad adjacency entry")
    if p % 12 == 1:
        for i, row in enumerate(rows):
            for j, m in row.items():
                if 0 <= j < n and rows[j].get(i, 0) != m:
                    errors.append(f"multiplicities {i}->{j} and back differ")
    vset = set(verts)
    if any((a, -b % p) not in vset for a, b in verts):
        errors.append("vertex set is not closed under Frobenius")
    rational = sum(1 for _, b in verts if b == 0)
    expected = fp_rational_count(p)
    if rational != expected:
        errors.append(f"{rational} F_p-rational vertices, Delfs-Galbraith gives {expected}")
    return errors


def ihara_bass_traces(payload: dict, r_max: int) -> list[int]:
    """tr B^r for r = 1..r_max from the multiplicity matrix A of the graph.

    S_0 = 2I, S_1 = A, S_r = A S_{r-1} - ell S_{r-2}, and
    tr B^r = tr S_r + n(ell-1)[r even] + h_odd (-1)^r, where h_odd counts
    vertices with odd loop multiplicity: each such vertex carries one
    half-loop, a single self-dual directed edge.
    """
    ell = payload["ell"]
    rows = payload["adjacency"]
    n = len(rows)
    # entries of S_r stay below (ell+1)^r in absolute value
    if r_max * np.log2(ell + 1) + np.log2(max(n, 2)) > 62:
        raise OverflowError(f"r_max={r_max} too deep for int64 at ell={ell}")
    width = max(len(row) for row in rows)
    nbr = np.zeros((n, width), dtype=np.int64)
    mult = np.zeros((n, width), dtype=np.int64)
    h_odd = 0
    for i, row in enumerate(rows):
        for k, (j, m) in enumerate(row):
            nbr[i, k] = j
            mult[i, k] = m
            if j == i and m % 2:
                h_odd += 1

    def times_a(s):
        return sum(mult[:, k, None] * s[nbr[:, k]] for k in range(width))

    prev = 2 * np.eye(n, dtype=np.int64)
    cur = times_a(np.eye(n, dtype=np.int64))
    traces = []
    for r in range(1, r_max + 1):
        if r > 1:
            prev, cur = cur, times_a(cur) - ell * prev
        extra = n * (ell - 1) if r % 2 == 0 else 0
        traces.append(int(np.trace(cur)) + extra + h_odd * (-1) ** r)
    return traces


def primitive_counts(traces: list[int]) -> dict[int, int]:
    """Primitive directed cycle counts c_r, r >= 3, by Möbius inversion."""
    out = {}
    for r in range(3, len(traces) + 1):
        total = sum(mobius(r // d) * traces[d - 1] for d in divisors(r))
        q, rem = divmod(total, r)
        if rem:
            raise ArithmeticError(f"Möbius inversion not divisible at r={r}")
        out[r] = q
    return out


# --- order side ------------------------------------------------------------

def _exact_int(value):
    """An order-side JSON value as an int, or None if not a whole number."""
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def _rational(value) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, list):
        return Fraction(value[0], value[1])
    raise ValueError(f"ambiguous value {value!r}")


def check_count(payload: dict, p: int, ell: int, r_max: int, method: str,
                cycles: dict[int, int] | None) -> list[str]:
    """Rows of `count`: bound, integrality, match, and the Ihara–Bass counts.

    `cycles` holds the benchmark's own c_r when the graph is available.
    """
    errors = []
    if (payload.get("p"), payload.get("ell"), payload.get("r_max")) != (p, ell, r_max):
        return ["count payload is for other inputs"]
    rows = payload["rows"]
    if [row["r"] for row in rows] != list(range(3, r_max + 1)):
        return ["count rows do not cover 3..r_max"]
    for row in rows:
        r = row["r"]
        if "graph" in row and row["graph"] != cycles[r]:
            errors.append(f"{GRAPH_SIDE_MISMATCH} c_{r}={row['graph']}, "
                          f"Ihara-Bass gives {cycles[r]}")
        if method in ("orders", "both"):
            c = _exact_int(row["orders"])
            if c is None or c < 0:
                errors.append(f"order side c_{r}={row['orders']} is not a "
                              "nonnegative integer")
                continue
            if c > row["c_bound"]:
                errors.append(f"order side c_{r}={c} exceeds c_bound {row['c_bound']}")
            if cycles is not None and c != cycles[r]:
                errors.append(f"order side c_{r}={c}, Ihara-Bass gives {cycles[r]}")
        if method == "both" and row["match"] is not True:
            errors.append(f"{GRAPH_SIDE_MISMATCH} and order side disagree at r={r}: "
                          f"match is {row['match']}")
    return errors


def check_orders(payload: dict, p: int, ell: int, N: int,
                 class_numbers: dict[int, int]) -> list[str]:
    """Records of `orders --format json` at level N.

    Each discriminant is (x^2 - 4 ell^N)/f^2, each h is the benchmark's own
    class number, g and the order of the class above ell divide h, Q_N is
    the weighted sum of the records, and c_N is a nonnegative integer within
    its bound.  `class_numbers` memoises h by discriminant across calls.
    """
    errors = []
    if (payload.get("p"), payload.get("ell"), payload.get("N")) != (p, ell, N):
        return ["orders payload is for other inputs"]
    q_n = Fraction(0)
    for rec in payload["records"]:
        D = rec["discriminant"]
        if (rec["x"] ** 2 - 4 * ell**N) != D * rec["f"] ** 2:
            errors.append(f"D={D} does not come from x={rec['x']}, f={rec['f']}")
        if D not in class_numbers:
            class_numbers[D] = class_number(D)
        h = class_numbers[D]
        if rec["h"] != h:
            errors.append(f"h({D})={rec['h']}, reduced forms give {h}")
        g = rec["g"]
        if g < 1 or g & (g - 1) or h % g:
            errors.append(f"genus number {g} of D={D} is not a power of 2 dividing h")
        if h % rec["l_order"]:
            errors.append(f"order {rec['l_order']} of the class above ell does not divide h")
        q_n += _rational(rec["eps"]) * rec["h"]
    if _rational(payload["Q_N"]) != q_n:
        errors.append(f"Q_N={payload['Q_N']} is not the weighted sum {q_n}")
    c = _exact_int(payload["c_N"])
    if c is None or not 0 <= c <= payload["c_N_bound"]:
        errors.append(f"c_N={payload['c_N']} is not an integer in [0, c_N_bound]")
    return errors


# --- rim localisation ------------------------------------------------------

def fp2_eval(coeffs: list[int], x: tuple[int, int], p: int, nr: int) -> tuple[int, int]:
    """Horner evaluation of an integer polynomial (lowest degree first) at
    x = a + b s in F_p(s), s^2 = nr."""
    xa, xb = x
    ra, rb = 0, 0
    for c in reversed(coeffs):
        ra, rb = (ra * xa + rb * xb * nr + c) % p, (ra * xb + rb * xa) % p
    return ra, rb


def check_locate(payload: dict, p: int, ell: int, D: int, r: int, h: int,
                 graph: dict, class_poly: list[int]) -> list[str]:
    """h/r cycles of length r, adjacent in the graph, on roots of H_D mod p."""
    errors = []
    if (payload.get("p"), payload.get("ell"), payload.get("disc")) != (p, ell, D):
        return ["locate payload is for other inputs"]
    if len(class_poly) - 1 != h:
        errors.append(f"H_{D} has degree {len(class_poly) - 1}, h={h}")
    cycles = payload["cycles"]
    if h % r or len(cycles) != h // r:
        errors.append(f"{len(cycles)} cycles for h={h}, r={r}")
    index = {parse_vertex(v, p): i for i, v in enumerate(graph["vertices"])}
    rows = [{j: m for j, m in row} for row in graph["adjacency"]]
    nr = graph["non_residue"]
    for cyc in cycles:
        if len(cyc) != r:
            errors.append(f"cycle of length {len(cyc)}, expected {r}")
        verts = [parse_vertex(v, p) for v in cyc]
        for u, v in zip(verts, verts[1:] + verts[:1]):
            if u not in index or v not in index:
                errors.append(f"{u} or {v} is not a graph vertex")
            elif rows[index[u]].get(index[v], 0) == 0:
                errors.append(f"{u} and {v} are not adjacent")
        for v in verts:
            if fp2_eval(class_poly, v, p, nr) != (0, 0):
                errors.append(f"{v} is not a root of H_{D} mod {p}")
    return errors
