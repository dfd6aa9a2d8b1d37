"""Order-side cycle counting: representation sets, class-number sums with
multiplicity factors, Mobius inversion, and the explicit upper bound.

Sums are exact rationals.  When the multiplicity factor of an order is
undeterminable (p ramified, even order, non-square class above ell, more
than two genera) the result is an interval that taints everything
downstream rather than a guess.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import quadform
from .ff import divisors, factor, kronecker_symbol, mobius
from .quadform import Discriminant

MAX_N = 40
MAX_ABS_DELTA = 10**8
EULER_GAMMA = 0.5772156649

EXACT = "exact"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class EpsilonValue:
    """Fibre multiplicity factor, exact rational or an interval of rationals."""

    kind: str
    lo: Fraction
    hi: Fraction

    @property
    def value(self) -> Fraction:
        if self.kind != EXACT:
            raise ValueError("ambiguous epsilon has no single value")
        return self.lo

    @staticmethod
    def exact(v) -> "EpsilonValue":
        v = Fraction(v)
        return EpsilonValue(EXACT, v, v)

    @staticmethod
    def ambiguous(lo, hi) -> "EpsilonValue":
        return EpsilonValue(AMBIGUOUS, Fraction(lo), Fraction(hi))


@dataclass(frozen=True)
class OrderRecord:
    """One quadratic order contributing to the count at level N."""

    discriminant: Discriminant
    x: int
    f: int
    h: int
    g: int
    eps: EpsilonValue
    l_order: int


class RationalRange:
    """Closed interval of rationals; collapses to a point when exact."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = Fraction(lo)
        self.hi = self.lo if hi is None else Fraction(hi)
        if self.hi < self.lo:
            raise ValueError("interval upside down")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is not exact")
        return self.lo

    def __add__(self, other):
        return RationalRange(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return RationalRange(self.lo - other.hi, self.hi - other.lo)

    def __truediv__(self, k: int):
        return RationalRange(self.lo / k, self.hi / k)

    def __eq__(self, other):
        if isinstance(other, RationalRange):
            return self.lo == other.lo and self.hi == other.hi
        return self.exact and self.lo == other

    def __repr__(self):
        if self.exact:
            return f"RationalRange({self.lo})"
        return f"RationalRange([{self.lo}, {self.hi}])"


def _check_level(N: int, p: int, ell: int):
    where = f"q_set(N={N}, p={p}, ell={ell}): "
    if ell == p:
        raise ValueError(f"{where}ell and p must be distinct primes")
    if N < 1 or N > MAX_N:
        raise ValueError(f"{where}N must be within 1..{MAX_N}")
    if 4 * ell**N > MAX_ABS_DELTA:
        raise ValueError(
            f"{where}4*ell^N = {4 * ell**N} exceeds the discriminant cap {MAX_ABS_DELTA}"
        )


def q_set(N: int, p: int, ell: int) -> list[int]:
    """Traces x of norm-ell^N elements whose orders admit no p-split field.

    All 0 < x < 2*ell^(N/2) with x nonzero mod ell, x^2 - 4*ell^N a
    non-residue mod p, and p-adic valuation of x^2 - 4*ell^N at most 1.
    """
    _check_level(N, p, ell)
    four_n = 4 * ell**N
    out = []
    x = 1
    while x * x < four_n:
        if x % ell:
            delta = x * x - four_n
            if kronecker_symbol(delta, p) != 1:
                if delta % p != 0 or (delta // p) % p != 0:
                    out.append(x)
        x += 1
    return out


def epsilon(D, ell: int, r: int, p: int) -> EpsilonValue:
    """Fibre multiplicity factor of one order in the cycle count.

    2 when p is inert in the fraction field.  When p ramifies: 1 for odd r
    or when the class above ell is a square; 1 + r*g/(2h) when exactly two
    genera force the non-square class into the stabilizer genus; otherwise
    an interval, since the correct genus is undeterminable from (D, ell, p).
    """
    D = D if isinstance(D, Discriminant) else Discriminant(D)
    if D.conductor % p == 0:
        raise ValueError(f"p={p} divides the conductor of {D.value}")
    k = kronecker_symbol(D.fundamental, p)
    if k == 1:
        raise ValueError(f"p={p} splits in the field of discriminant {D.value}")
    if k == -1:
        return EpsilonValue.exact(2)
    # p ramifies
    if r % 2:
        return EpsilonValue.exact(1)
    sigma = quadform.prime_form(D, ell)
    if sigma is None or quadform.splitting_type(D, ell) != quadform.SPLIT:
        raise ValueError(f"ell={ell} does not split in discriminant {D.value}")
    if quadform.is_square_class(D, sigma):
        return EpsilonValue.exact(1)
    h = quadform.class_number(D)
    g = quadform.genus_number(D)
    hi = 1 + Fraction(r * g, 2 * h)
    if g == 2:
        return EpsilonValue.exact(hi)
    return EpsilonValue.ambiguous(1, hi)


def _suborder_conductors(delta: int):
    square_part = 1
    for q, e in factor(-delta).items():
        square_part *= q ** (e // 2)
    for f in divisors(square_part):
        if (delta // (f * f)) % 4 in (0, 1):
            yield f


@lru_cache(maxsize=None)
def _records(N: int, p: int, ell: int) -> tuple:
    """OrderRecords for every (x, admissible conductor divisor) at level N."""
    out = []
    for x in q_set(N, p, ell):
        delta_x = x * x - 4 * ell**N
        for f in _suborder_conductors(delta_x):
            disc = Discriminant(delta_x // (f * f))
            h = quadform.class_number(disc)
            g = quadform.genus_number(disc)
            sigma = quadform.prime_form(disc, ell)
            l_order = quadform.form_order(disc, sigma)
            out.append(OrderRecord(disc, x, f, h, g, epsilon(disc, ell, l_order, p), l_order))
    return tuple(out)


def q_n(N: int, p: int, ell: int) -> RationalRange:
    """Weighted class-number sum over all orders at level N."""
    total = RationalRange(0)
    for rec in _records(N, p, ell):
        total = total + RationalRange(rec.eps.lo * rec.h, rec.eps.hi * rec.h)
    return total


def order_side_cycle_count(N: int, p: int, ell: int) -> RationalRange:
    """Directed cycle count by Mobius inversion over the level sums.

    Exact results are asserted to be integers; ambiguity propagates as an
    interval.
    """
    if N < 3:
        raise ValueError("cycle counts are defined for N >= 3")
    total = RationalRange(0)
    for r in divisors(N):
        q = q_n(N // r, p, ell)
        if mobius(r) == 1:
            total = total + q
        elif mobius(r) == -1:
            total = total - q
    result = total / N
    if result.exact and result.value.denominator != 1:
        raise ArithmeticError(
            f"order-side count at N={N} is not an integer: {result.value}"
        )
    return result


def enumerate_orders(r: int, p: int, ell: int) -> list[OrderRecord]:
    """Orders whose class above ell has order exactly r, deduplicated."""
    if r < 3:
        raise ValueError("order enumeration is defined for r >= 3")
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
        raise ValueError("bound requires N >= 3")
    b_n = _b_real(N, ell)
    c_bound = b_n / N + (
        math.exp(EULER_GAMMA) * math.log(math.log(N)) + 7.0 / 3.0 - 1.0 / N
    ) * _b_real(N / 2, ell)
    return b_n, c_bound


def order_records_csv(records) -> str:
    """CSV rows (r, x, f, discriminant, h, g, eps_num, eps_den, ambiguous_flag).

    Ambiguous rows carry the upper interval endpoint with the flag set.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r", "x", "f", "discriminant", "h", "g",
                     "eps_num", "eps_den", "ambiguous_flag"])
    for rec in records:
        eps = rec.eps.hi
        writer.writerow([
            rec.l_order, rec.x, rec.f, rec.discriminant.value, rec.h, rec.g,
            eps.numerator, eps.denominator, 1 if rec.eps.kind == AMBIGUOUS else 0,
        ])
    return buf.getvalue()


def _range_json(r: RationalRange):
    if r.exact:
        v = r.value
        return int(v) if v.denominator == 1 else [v.numerator, v.denominator]
    return {
        "lo": [r.lo.numerator, r.lo.denominator],
        "hi": [r.hi.numerator, r.hi.denominator],
        "ambiguous": True,
    }


def order_census(N: int, p: int, ell: int) -> dict:
    """JSON-ready census at level N: records, Q_N, c_N, bounds."""
    records = _records(N, p, ell)
    b_n, c_bound = bound_b(N, ell) if N >= 3 else (None, None)
    payload = {
        "schema": 1,
        "p": p,
        "ell": ell,
        "N": N,
        "Q_N": _range_json(q_n(N, p, ell)),
        "records": [
            {
                "x": rec.x,
                "f": rec.f,
                "discriminant": rec.discriminant.value,
                "h": rec.h,
                "g": rec.g,
                "eps": _range_json(RationalRange(rec.eps.lo, rec.eps.hi)),
                "l_order": rec.l_order,
            }
            for rec in records
        ],
        "B_N": b_n,
        "c_N_bound": c_bound,
    }
    if N >= 3:
        payload["c_N"] = _range_json(order_side_cycle_count(N, p, ell))
    return payload
