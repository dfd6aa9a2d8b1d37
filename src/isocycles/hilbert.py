"""Hilbert class polynomials from complex CM points, reduction mod p, rim location.

j comes from the eta quotient f = Delta(2 tau) / Delta(tau) as
(256 f + 1)^3 / f, with Delta from Euler's pentagonal series (Cohen, Alg.
7.6.1).  The class polynomial is expanded in real arithmetic: j is real at
the forms that are their own inverse (b = 0, b = a or a = c), and the forms
(a, b, c) and (a, -b, c) give conjugate j-values, so each pair is one real
quadratic factor.  Coefficients are
rounded to integers; the rounding residual must stay below 0.25 or the
computation retries at doubled precision.

Rims need no ell-graph.  When p neither divides the conductor of D nor
splits in its field, Deuring's reduction theorem puts every root of
H_D mod p among the supersingular j-invariants; dividing H_D mod p
by (X - v) over that vertex set finds the roots with multiplicity, and a
remainder other than 1 refutes the premise.  Two roots u, v are adjacent
when Phi_ell(u, v) = 0, and a bounded depth-first search threads the roots
into the rim cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from . import quadform
# poly_roots is no longer called here, but perfbench's tracer replaces it in
# every module that imports it, and
# perfbench/tests/test_perfbench.py::test_tracer_wraps_imported_names_and_restores
# asserts hilbert.poly_roots is ff.poly_roots.
from .ff import (MAX_ROOT_DEGREE, PolyOverFp2, PrimeField, _divide_out_root,
                 kronecker_symbol, poly_roots)
from .modpoly import (ModularPolynomial, instantiate_pairs, reduce_mod_p,
                      resolve_modular_polynomial)

MAX_ABS_DISC = 10**5
MAX_PRECISION_BITS = 8192
_GUARD_BITS = 48
_MAX_RETRIES = 3
THREADING_BUDGET = 10**6


def j_evaluate(tau, precision: int = 128):
    """Klein j-invariant at tau (upper half plane) as an mpmath complex.

    Uses j = (256 f + 1)^3 / f with the eta quotient
    f = Delta(2 tau) / Delta(tau) = q (P(q^2) / P(q))^24, P(q) = prod (1 - q^n)
    (Cohen, Alg. 7.6.1).  P comes from Euler's pentagonal series, truncated
    once its tail drops below 2^-precision.
    """
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"precision {precision} exceeds cap {MAX_PRECISION_BITS}")
    with mp.workprec(precision + _GUARD_BITS):
        tau = mp.mpc(tau)
        if mp.im(tau) <= 0:
            raise ValueError("tau must have positive imaginary part")
        q = mp.expjpi(2 * tau)
        absq = abs(q)
        # the terms q^e with e >= e_max sum to less than 2^-(precision + 16) / 24
        e_max = (((precision + 16) * mp.ln(2) + mp.ln(24) - mp.ln(1 - absq))
                 / -mp.ln(absq))
        # P(q) = 1 + sum_{n >= 1} (-1)^n (q^(n(3n-1)/2) + q^(n(3n+1)/2));
        # P(q^2) sums the squares of the same terms
        p1 = p2 = mp.mpc(1)
        lo, qn, q_odd, q2 = q, q, q**3, q * q  # q^(n(3n-1)/2), q^n, q^(2n+1)
        n, e_lo, sign = 1, 1, -1
        while e_lo < e_max:
            hi = lo * qn
            p1 += sign * (lo + hi)
            if 2 * e_lo < e_max:
                p2 += sign * (lo * lo + hi * hi)
            lo = hi * q_odd
            qn *= q
            q_odd *= q2
            n, sign = n + 1, -sign
            e_lo = n * (3 * n - 1) // 2
        f = q * (p2 / p1) ** 24
        return (256 * f + 1) ** 3 / f


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic integer polynomial of degree h(D) with CM j-invariants as roots."""

    discriminant: quadform.Discriminant
    coefficients: tuple  # lowest degree first, leading 1 included

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _precision_for(forms, min_precision: int) -> int:
    D = forms[0].discriminant()
    height = mp.pi * mp.sqrt(-D) * mp.fsum(mp.mpf(1) / f.a for f in forms)
    return max(int(mp.ceil(height / mp.ln(2))) + 64, min_precision)


def _expand_at(forms, D, precision):
    """Integer coefficients and rounding residual at one working precision.

    Only the forms with b >= 0 are evaluated.  Where b = 0, a = b or a = c,
    j is real; every other (a, b, c) also stands for (a, -b, c), whose j is
    the complex conjugate, so the pair gives X^2 - 2 Re(j) X + |j|^2.  The
    expansion is real; the residual also takes |Im j| at the real j.
    """
    with mp.workprec(precision + _GUARD_BITS):
        sqrt_d = mp.sqrt(-D)
        coeffs = [mp.mpf(1)]
        residual = mp.mpf(0)
        for f in forms:
            if f.b < 0:
                continue
            j = j_evaluate(mp.mpc(-f.b, sqrt_d) / (2 * f.a), precision)
            if f.b == 0 or f.b == f.a or f.a == f.c:
                residual = max(residual, abs(j.imag))
                factor = (-j.real,)
            else:
                factor = (j.real**2 + j.imag**2, -2 * j.real)
            k = len(factor)
            nxt = [mp.mpf(0)] * (len(coeffs) + k)
            for i, c in enumerate(coeffs):
                nxt[i + k] += c
                for t, ft in enumerate(factor):
                    nxt[i + t] += c * ft
            coeffs = nxt
        rounded = []
        for c in coeffs:
            r = mp.nint(c)
            residual = max(residual, abs(c - r))
            rounded.append(int(r))
        return rounded, float(residual)


@lru_cache(maxsize=None)
def _class_poly_cached(D: int, min_precision: int) -> ClassPolynomial:
    where = f"hilbert_class_poly(D={D}): "
    disc = quadform.Discriminant(D)
    forms = quadform.reduced_forms(disc)
    precision = _precision_for(forms, min_precision)
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"{where}needs {precision} bits, over the cap {MAX_PRECISION_BITS}")
    for retry in range(_MAX_RETRIES + 1):
        if retry:
            precision *= 2
        coeffs, residual = _expand_at(forms, D, precision)
        if residual < 0.25:
            return ClassPolynomial(disc, tuple(coeffs))
        if 2 * precision > MAX_PRECISION_BITS:
            break
    raise ArithmeticError(
        f"{where}rounding residual {residual} at {precision} bits is not below 0.25"
    )


def hilbert_class_poly(D, min_precision: int = 0) -> ClassPolynomial:
    """The class polynomial of the order of discriminant D, |D| <= 1e5.

    The working precision is the one the reduced forms need, and at least
    `min_precision` bits.
    """
    disc = D if isinstance(D, quadform.Discriminant) else quadform.Discriminant(D)
    if -disc.value > MAX_ABS_DISC:
        raise ValueError(f"|D| = {-disc.value} exceeds cap {MAX_ABS_DISC}")
    return _class_poly_cached(disc.value, min_precision)


def hilbert_mod_p(D, p: int, field: PrimeField | None = None,
                  min_precision: int = 0) -> PolyOverFp2:
    """Coefficientwise reduction of the class polynomial mod p."""
    if field is None:
        field = PrimeField(p)
    elif field.p != p:
        raise ValueError("field does not match p")
    poly = hilbert_class_poly(D, min_precision)
    return PolyOverFp2(field, [c % p for c in poly.coefficients])


def _canonical_cycle(seq: tuple) -> tuple:
    """Least representative of a cycle under rotation and reversal."""
    return min(base[k:] + base[:k] for base in (seq, seq[::-1]) for k in range(len(seq)))


def check_locate_inputs(D, p: int, ell: int, modpoly: ModularPolynomial | None = None,
                        modpoly_dir: str | None = None):
    """Refuse what `locate` cannot do, before any class polynomial or graph.

    The class number comes from the reduced forms and is checked against the
    root-finding cap; Phi_ell is resolved (embedded, or from a directory);
    ell must split in D, so that a class above ell exists; and p must
    neither divide the conductor nor split in the field, Deuring's
    conditions for the roots of H_D mod p to be supersingular.  Returns the
    discriminant and Phi_ell.
    """
    disc = D if isinstance(D, quadform.Discriminant) else quadform.Discriminant(D)
    h = quadform.class_number(disc)
    if h > MAX_ROOT_DEGREE:
        raise ValueError(
            f"class number h({disc.value}) = {h} exceeds the root-finding "
            f"degree cap {MAX_ROOT_DEGREE}"
        )
    phi = modpoly if modpoly is not None else resolve_modular_polynomial(ell, modpoly_dir)
    if phi.level != ell:
        raise ValueError(f"modular polynomial level {phi.level} != ell {ell}")
    if quadform.splitting_type(disc, ell) != quadform.SPLIT:
        raise ValueError(f"{ell} does not split in discriminant {disc.value}")
    if disc.conductor % p == 0:
        raise ValueError(f"p={p} divides the conductor of {disc.value}")
    if kronecker_symbol(disc.fundamental, p) == 1:
        raise ValueError(
            f"p={p} splits in the field of discriminant {disc.value}; the "
            "reductions of its class polynomial roots are not supersingular"
        )
    return disc, phi


def locate_rim_vertices(D, p: int, ell: int, graph, min_precision: int = 0,
                        modpoly: ModularPolynomial | None = None) -> list[tuple]:
    """Thread the mod-p class polynomial roots into cycles of the isogeny graph.

    `graph` is any graph over F_{p^2} and serves only for its vertex set,
    the supersingular j-invariants.  H_D mod p is divided by (X - v) for
    each vertex v in turn and must deflate to 1; the roots (with
    multiplicity) are then decomposed into h/r cyclic vertex sequences of
    length r, where r is the order of the class above ell, with consecutive
    vertices u, v adjacent: Phi_ell(u, v) = 0.  `modpoly` is Phi_ell, the
    embedded one by default.  Output cycles are canonicalized up to rotation
    and reversal, preferring lexicographically least starting vertices.
    Errors name the inputs.
    """
    with locate_stage(D, p, ell):
        return _thread_rims(D, p, ell, graph, min_precision, modpoly)


@contextmanager
def locate_stage(D, p: int, ell: int):
    """Prefix errors raised inside with `locate_rim_vertices(D=…, p=…, ell=…): `."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        where = f"locate_rim_vertices(D={getattr(D, 'value', D)}, p={p}, ell={ell}): "
        exc.args = (where + str(exc),)
        raise


def _thread_rims(D, p, ell, graph, min_precision, modpoly):
    disc, phi = check_locate_inputs(D, p, ell, modpoly)
    if graph.p != p:
        raise ValueError(f"graph was built for p={graph.p}")
    sigma = quadform.prime_form(disc, ell)
    r = quadform.form_order(disc, sigma)
    n = graph.field.non_residue

    # Deuring: every root of H_D mod p is a supersingular j-invariant, so
    # dividing out the vertices one by one must leave the constant 1.
    c = list(hilbert_mod_p(disc, p, graph.field, min_precision).coeff_pairs())
    count = {}
    for i, v in enumerate(graph.vertices):
        while len(c) > 1:
            quo, rem = _divide_out_root(c, v.key(), p, n)
            if rem != (0, 0):
                break
            count[i] = count.get(i, 0) + 1
            c = quo
    if c != [(1, 0)]:
        raise ValueError(
            f"H_{disc.value} mod {p} keeps a factor of degree {len(c) - 1} with no "
            f"supersingular root; the order of discriminant {disc.value} fails the "
            "nonsplit condition"
        )
    total = sum(count.values())
    if total % r:
        raise ValueError(f"{total} roots cannot split into cycles of length {r}")

    # The search runs on the distinct roots, numbered in vertex order, which
    # is the order of their (a, b) keys since graph.vertices is sorted.
    ids = sorted(count)
    keys = [graph.vertices[i].key() for i in ids]
    rows = reduce_mod_p(phi, p)
    neighbours = []
    for u in keys:
        f = instantiate_pairs(rows, u, p, n)
        neighbours.append([k for k, v in enumerate(keys)
                           if _divide_out_root(f, v, p, n)[1] == (0, 0)])
    cycles = _thread_cycles([count[i] for i in ids], neighbours, r)
    if cycles is None:
        raise ValueError(
            f"no consistent threading of the roots of H_{disc.value} into "
            f"{total // r} cycles of length {r}"
        )
    return [tuple(graph.vertices[ids[k]] for k in cyc)
            for cyc in sorted(_canonical_cycle(c) for c in cycles)]


def _thread_cycles(multiplicities: list[int], neighbours: list[list[int]], r: int):
    """Split a multiset of roots into closed walks of length r, or None.

    Root k occurs multiplicities[k] times; neighbours[k] lists the roots
    adjacent to k in increasing order.  The depth-first search makes at
    most THREADING_BUDGET extension steps and raises past them.
    """
    remaining = list(multiplicities)
    cycles: list[tuple] = []
    failed = set()  # multiplicity vectors from which no threading exists
    steps = 0

    def solve():
        state = tuple(remaining)
        if state in failed:
            return False
        # the least remaining root must begin some cycle; both traversal
        # directions are covered by the candidate loop below
        start = next((k for k, m in enumerate(remaining) if m), None)
        if start is None:
            return True
        remaining[start] -= 1
        if extend_and_recurse([start]):
            return True
        remaining[start] += 1
        failed.add(state)
        return False

    def extend_and_recurse(path):
        nonlocal steps
        steps += 1
        if steps > THREADING_BUDGET:
            raise ArithmeticError(
                f"threading {sum(multiplicities)} roots into cycles of length {r} "
                f"exceeded the search budget of {THREADING_BUDGET} steps"
            )
        if len(path) == r:
            if path[0] not in neighbours[path[-1]]:
                return False
            cycles.append(tuple(path))
            if solve():
                return True
            cycles.pop()
            return False
        for k in neighbours[path[-1]]:
            if not remaining[k]:
                continue
            remaining[k] -= 1
            path.append(k)
            if extend_and_recurse(path):
                return True
            path.pop()
            remaining[k] += 1
        return False

    return cycles if solve() else None
