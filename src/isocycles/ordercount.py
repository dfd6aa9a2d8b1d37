"""Order-side cycle counting: representation sets, class-number sums with
multiplicity factors, Mobius inversion, and the explicit upper bound.

Every order Z[phi] <= O <= O_K with p prime to the conductor of O counts
with its class number times Eichler's factor 1 - (D_K/p): 2 when p is
inert in K, 1 when p ramifies.  Level sums and cycle counts are therefore
integers, and c_N is asserted to come out whole.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import quadform
from .ff import divisors, factor, kronecker_symbol, mobius
from .quadform import Discriminant

MAX_N = 40
EULER_GAMMA = 0.5772156649


# Not a plain int only because perfbench's tracer reads `.kind` off each `epsilon` result.
class EpsilonValue(NamedTuple):
    kind: str
    value: int


@dataclass(frozen=True)
class OrderRecord:
    """One quadratic order contributing to the count at level N."""

    discriminant: Discriminant
    x: int
    f: int
    h: int
    g: int
    eps: int
    l_order: int


def _check_level(N: int, p: int, ell: int):
    where = f"q_set(N={N}, p={p}, ell={ell}): "
    if ell == p:
        raise ValueError(f"{where}ell and p must be distinct primes")
    if N < 1 or N > MAX_N:
        raise ValueError(f"{where}N must be within 1..{MAX_N}")
    if 4 * ell**N > quadform.MAX_ABS_DISC:
        raise ValueError(
            f"{where}4*ell^N = {4 * ell**N} exceeds the discriminant cap {quadform.MAX_ABS_DISC}"
        )


def q_set(N: int, p: int, ell: int) -> list[int]:
    """Traces x of norm-ell^N elements whose fraction field K is not split at p.

    All 0 < x < 2*ell^(N/2) with x nonzero mod ell and (D_K/p) != 1, read
    off x^2 - 4*ell^N as its Kronecker symbol at p once every factor p^2 is
    divided out.
    """
    _check_level(N, p, ell)
    four_n = 4 * ell**N
    out = []
    x = 1
    while x * x < four_n:
        if x % ell:
            delta = x * x - four_n
            while delta % (p * p) == 0:
                delta //= p * p
            if kronecker_symbol(delta, p) != 1:
                out.append(x)
        x += 1
    return out


def epsilon(D, p: int) -> EpsilonValue:
    """Eichler's multiplicity factor 1 - (D_K/p) of an order prime to p.

    An order O of conductor prime to p has h(O) * (1 - (D_K/p)) optimal
    embeddings into the maximal orders of the quaternion algebra ramified at
    p and infinity (Eichler; Vignéras 1980, Thm III.5.11; Voight 2021,
    ch. 30): the factor is 2 when p is inert in K and 1 when p ramifies.
    """
    D = D if isinstance(D, Discriminant) else Discriminant(D)
    if D.conductor % p == 0:
        raise ValueError(f"epsilon(D={D.value}, p={p}): p={p} divides the conductor "
                         f"of {D.value}")
    k = kronecker_symbol(D.fundamental, p)
    if k == 1:
        raise ValueError(f"epsilon(D={D.value}, p={p}): p={p} splits in the field of "
                         f"discriminant {D.value}")
    return EpsilonValue("exact", 1 - k)


def _suborder_conductors(delta: int):
    square_part = 1
    for q, e in factor(-delta).items():
        square_part *= q ** (e // 2)
    for f in divisors(square_part):
        if (delta // (f * f)) % 4 in (0, 1):
            yield f


@lru_cache(maxsize=None)
def _records(N: int, p: int, ell: int) -> tuple:
    """OrderRecords for every (x, conductor divisor) at level N whose order
    has conductor prime to p."""
    out = []
    for x in q_set(N, p, ell):
        delta_x = x * x - 4 * ell**N
        for f in _suborder_conductors(delta_x):
            disc = Discriminant(delta_x // (f * f))
            if disc.conductor % p == 0:
                continue
            h = quadform.class_number(disc)
            g = quadform.genus_number(disc)
            sigma = quadform.prime_form(disc, ell)
            l_order = quadform.form_order(disc, sigma)
            out.append(OrderRecord(disc, x, f, h, g, epsilon(disc, p).value, l_order))
    return tuple(out)


def q_n(N: int, p: int, ell: int) -> int:
    """Weighted class-number sum over all orders at level N."""
    return sum(rec.eps * rec.h for rec in _records(N, p, ell))


def order_side_cycle_count(N: int, p: int, ell: int) -> int:
    """Directed cycle count by Mobius inversion over the level sums.

    The inversion is asserted to divide exactly.
    """
    where = f"order_side_cycle_count(N={N}, p={p}, ell={ell}): "
    if N < 3:
        raise ValueError(f"{where}cycle counts are defined for N >= 3")
    total = sum(mobius(r) * q_n(N // r, p, ell) for r in divisors(N) if mobius(r))
    count, rem = divmod(total, N)
    if rem:
        raise ArithmeticError(f"{where}order-side count is not an integer: {total}/{N}")
    return count


def enumerate_orders(r: int, p: int, ell: int) -> list[OrderRecord]:
    """Orders whose class above ell has order exactly r, deduplicated."""
    if r < 3:
        raise ValueError(f"enumerate_orders(r={r}, p={p}, ell={ell}): "
                         "order enumeration is defined for r >= 3")
    seen = set()
    out = []
    for rec in _records(r, p, ell):
        if rec.l_order == r and rec.discriminant.value not in seen:
            seen.add(rec.discriminant.value)
            out.append(rec)
    return out


def _b_real(x: float, ell: int) -> float:
    lx = ell**x
    return (
        (2.0 / 3.0)
        * (math.exp(EULER_GAMMA) * math.log(math.log(2 * ell ** (x / 2))) + 7.0 / 3.0)
        * math.log(4 * lx)
        * (math.pi * lx + 2 * ell ** (0.75 * x))
    )


def bound_b(N: int, ell: int) -> tuple[float, float]:
    """The explicit upper bound B_N on Q_N, and the derived bound on c_N."""
    if N < 3:
        raise ValueError(f"bound_b(N={N}, ell={ell}): bound requires N >= 3")
    b_n = _b_real(N, ell)
    c_bound = b_n / N + (
        math.exp(EULER_GAMMA) * math.log(math.log(N)) + 7.0 / 3.0 - 1.0 / N
    ) * _b_real(N / 2, ell)
    return b_n, c_bound


def order_records_csv(records) -> str:
    """CSV rows (r, x, f, discriminant, h, g, eps_num, eps_den); eps_den is 1."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r", "x", "f", "discriminant", "h", "g", "eps_num", "eps_den"])
    for rec in records:
        writer.writerow([rec.l_order, rec.x, rec.f, rec.discriminant.value, rec.h, rec.g,
                         rec.eps, 1])
    return buf.getvalue()


def order_census(N: int, p: int, ell: int) -> dict:
    """JSON-ready census at level N: records, Q_N, c_N, bounds."""
    records = _records(N, p, ell)
    b_n, c_bound = bound_b(N, ell) if N >= 3 else (None, None)
    payload = {
        "schema": 1,
        "p": p,
        "ell": ell,
        "N": N,
        "Q_N": q_n(N, p, ell),
        "records": [
            {
                "x": rec.x,
                "f": rec.f,
                "discriminant": rec.discriminant.value,
                "h": rec.h,
                "g": rec.g,
                "eps": rec.eps,
                "l_order": rec.l_order,
            }
            for rec in records
        ],
        "B_N": b_n,
        "c_N_bound": c_bound,
    }
    if N >= 3:
        payload["c_N"] = order_side_cycle_count(N, p, ell)
    return payload
