"""Order-side cycle counting: representation sets, class-number sums with
multiplicity factors, Mobius inversion, and the explicit upper bound.

Every order Z[phi] <= O <= O_K with p prime to the conductor of O counts
with its class number times Eichler's factor 1 - (D_K/p): 2 when p is
inert in K, 1 when p ramifies.  Level sums and cycle counts are therefore
integers, and c_N is asserted to come out whole.

The orders above x are those of discriminant D'_x / f^2, where D'_x is
x^2 - 4*ell^N with every factor p^2 divided out, and their class numbers
sum to T(D'_x), the count of all reduced forms of D'_x.  So a level sum is
Q_N = sum over x of (1 - (D'_x/p)) * T(D'_x), and one `form_counts` sweep
gives every level a command needs, with no class group.  Order records,
which do need the class group, take h(D_K) of each field from the same
sweep and lift it to the suborders.
"""

from __future__ import annotations

import csv
import io
import math
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


class OrderRecord(NamedTuple):
    """One quadratic order contributing to the count at level N."""

    discriminant: Discriminant
    x: int
    f: int
    h: int
    g: int
    eps: int
    l_order: int


def check_level(N: int, p: int, ell: int):
    """Refuse a level q_set cannot take: ell = p, N outside 1..MAX_N, or 4*ell^N
    over the discriminant cap."""
    where = f"q_set(N={N}, p={p}, ell={ell}): "
    if ell == p:
        raise ValueError(f"{where}ell and p must be distinct primes")
    if N < 1 or N > MAX_N:
        raise ValueError(f"{where}N must be within 1..{MAX_N}")
    if 4 * ell**N > quadform.MAX_ABS_DISC:
        raise ValueError(
            f"{where}4*ell^N = {4 * ell**N} exceeds the discriminant cap {quadform.MAX_ABS_DISC}"
        )


def q_set(N: int, p: int, ell: int) -> list[tuple[int, int, int]]:
    """(x, D'_x, 1 - (D'_x/p)) for each trace x of norm-ell^N elements whose
    fraction field K is not split at p.

    All 0 < x < 2*ell^(N/2) with x nonzero mod ell and (D_K/p) != 1.  D'_x
    is x^2 - 4*ell^N with every factor p^2 divided out; its Kronecker symbol
    at p is (D_K/p), and 1 - (D'_x/p) is Eichler's factor of every order
    above x with conductor prime to p.
    """
    check_level(N, p, ell)
    four_n = 4 * ell**N
    out = []
    x = 1
    while x * x < four_n:
        if x % ell:
            delta = _prime_to_p(x * x - four_n, p)
            k = kronecker_symbol(delta, p)
            if k != 1:
                out.append((x, delta, 1 - k))
        x += 1
    return out


def _prime_to_p(delta: int, p: int) -> int:
    """delta with every factor p^2 divided out."""
    while delta % (p * p) == 0:
        delta //= p * p
    return delta


def epsilon(D, p: int) -> EpsilonValue:
    """Eichler's multiplicity factor 1 - (D_K/p) of an order prime to p.

    An order O of conductor prime to p has h(O) * (1 - (D_K/p)) optimal
    embeddings into the maximal orders of the quaternion algebra ramified at
    p and infinity (Eichler; Vignéras 1980, Thm III.5.11; Voight 2021,
    ch. 30): the factor is 2 when p is inert in K and 1 when p ramifies.
    """
    D = quadform.as_discriminant(D)
    if D.conductor % p == 0:
        raise ValueError(f"epsilon(D={D.value}, p={p}): p={p} divides the conductor "
                         f"of {D.value}")
    k = kronecker_symbol(D.fundamental, p)
    if k == 1:
        raise ValueError(f"epsilon(D={D.value}, p={p}): p={p} splits in the field of "
                         f"discriminant {D.value}")
    return EpsilonValue("exact", 1 - k)


def _swept_sums(terms: dict, fields=()) -> tuple[dict[int, int], dict[int, int]]:
    """Level sums {N: Q_N} over each level's terms, and the form counts of
    every D'_x and of `fields`, all from one form-count sweep."""
    counts = quadform.form_counts(
        [delta for level in terms.values() for _, delta, _ in level] + list(fields))
    sums = {N: sum(eps * counts[delta] for _, delta, eps in level)
            for N, level in terms.items()}
    return sums, counts


def _cycle_count(N: int, sums: dict, where: str) -> int:
    """c_N by Mobius inversion over the level sums Q_d, d | N, asserted whole."""
    total = sum(mobius(r) * sums[N // r] for r in divisors(N) if mobius(r))
    count, rem = divmod(total, N)
    if rem:
        raise ArithmeticError(f"{where}order-side count is not an integer: {total}/{N}")
    return count


def _suborder_conductors(delta: int):
    square_part = 1
    for q, e in factor(-delta).items():
        square_part *= q ** (e // 2)
    for f in divisors(square_part):
        if (delta // (f * f)) % 4 in (0, 1):
            yield f


def _records(N: int, p: int, ell: int) -> tuple[list[OrderRecord], dict[int, int]]:
    """OrderRecords for every (x, conductor divisor) at level N whose order
    has conductor prime to p, and the level sums {d: Q_d} for d | N.

    One sweep counts the forms of every field and of every D'_x of the
    levels d; each order's h is lifted from its field's.
    """
    terms = {d: q_set(d, p, ell) for d in divisors(N)}
    four_n = 4 * ell**N
    orders = []
    for x, _, _ in terms[N]:
        delta_x = x * x - four_n
        for f in _suborder_conductors(delta_x):
            disc = Discriminant(delta_x // (f * f))
            if disc.conductor % p:
                orders.append((x, f, disc))
    sums, counts = _swept_sums(terms, {disc.fundamental for _, _, disc in orders})
    out = []
    for x, f, disc in orders:
        h = quadform.lift_class_number(disc, counts[disc.fundamental])
        g = quadform.genus_number(disc)
        sigma = quadform.prime_form(disc, ell)
        l_order = quadform.form_order(disc, sigma)
        if h % g or h % l_order:
            raise AssertionError(f"_records(N={N}, p={p}, ell={ell}): g={g} or l_order="
                                 f"{l_order} does not divide h={h} at D={disc.value}")
        out.append(OrderRecord(disc, x, f, h, g, epsilon(disc, p).value, l_order))
    return out, sums


class OrderSideCounts(NamedTuple):
    """Level sums {N: Q_N} for every level from 1, and cycle counts {r: c_r} from 3."""

    sums: dict[int, int]
    cycles: dict[int, int]


def order_side_cycle_count(N: int, p: int, ell: int) -> OrderSideCounts:
    """Level sums Q_1..Q_N from one form-count sweep, and the directed cycle
    counts c_3..c_N by Mobius inversion over them.

    Each inversion is asserted to divide exactly.
    """
    where = f"order_side_cycle_count(N={N}, p={p}, ell={ell}): "
    if N < 3:
        raise ValueError(f"{where}cycle counts are defined for N >= 3")
    sums, _ = _swept_sums({n: q_set(n, p, ell) for n in range(1, N + 1)})
    return OrderSideCounts(sums, {r: _cycle_count(r, sums, where) for r in range(3, N + 1)})


def enumerate_orders(r: int, p: int, ell: int) -> list[OrderRecord]:
    """Orders whose class above ell has order exactly r, deduplicated."""
    if r < 3:
        raise ValueError(f"enumerate_orders(r={r}, p={p}, ell={ell}): "
                         "order enumeration is defined for r >= 3")
    seen = set()
    out = []
    for rec in _records(r, p, ell)[0]:
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
    """The explicit upper bound B_N on Q_N, and the derived bound on c_N.

    Refuses an (N, ell) whose bounds are past the float range.
    """
    where = f"bound_b(N={N}, ell={ell}): "
    if N < 3:
        raise ValueError(f"{where}bound requires N >= 3")
    try:
        b_n = _b_real(N, ell)
        c_bound = b_n / N + (
            math.exp(EULER_GAMMA) * math.log(math.log(N)) + 7.0 / 3.0 - 1.0 / N
        ) * _b_real(N / 2, ell)
    except OverflowError:
        c_bound = math.inf
    if math.isinf(c_bound):
        raise ValueError(f"{where}the bounds are past the float range")
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
    """JSON-ready census at level N: records, Q_N, c_N, bounds.

    Q_N is the swept form count, and must equal the sum of eps * h over the
    records, whose class numbers come from the fields' counts and the lift.
    """
    where = f"order_census(N={N}, p={p}, ell={ell}): "
    records, sums = _records(N, p, ell)
    b_n, c_bound = bound_b(N, ell)
    weighted = sum(rec.eps * rec.h for rec in records)
    if weighted != sums[N]:
        raise ArithmeticError(f"{where}the records sum to {weighted}, the swept form count "
                              f"to Q_N = {sums[N]}")
    return {
        "schema": 1,
        "p": p,
        "ell": ell,
        "N": N,
        "Q_N": sums[N],
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
        "c_N": _cycle_count(N, sums, where),
    }
