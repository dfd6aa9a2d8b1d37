"""Classical modular polynomials: embedded levels 2 and 3, file ingestion, instantiation.

Storage keeps one coefficient per symmetric pair (i, j) with i >= j;
the implied symmetry c[i,j] = c[j,i] completes the polynomial.
Coefficients are reduced mod p only by `reduce_mod_p`, once per prime,
so one loaded object serves every prime.
"""

from __future__ import annotations

import os

from .ff import PolyOverFp2, PrimeField, QuadExtElement

# Coefficients of the classical level-2 and level-3 modular polynomials,
# keyed by exponent pair (i, j) with i >= j.
_EMBEDDED = {
    2: {
        (3, 0): 1,
        (2, 2): -1,
        (2, 1): 1488,
        (2, 0): -162000,
        (1, 1): 40773375,
        (1, 0): 8748000000,
        (0, 0): -157464000000000,
    },
    3: {
        (4, 0): 1,
        (3, 3): -1,
        (3, 2): 2232,
        (3, 1): -1069956,
        (3, 0): 36864000,
        (2, 2): 2587918086,
        (2, 1): 8900222976000,
        (2, 0): 452984832000000,
        (1, 1): -770845966336000000,
        (1, 0): 1855425871872000000000,
    },
}

MODPOLY_ENV_VAR = "ISOCYCLES_MODPOLY_DIR"
MAX_FILE_LEVEL = 13


class ModularPolynomial:
    """Symmetric bivariate polynomial Phi_ell(X, Y) with integer coefficients."""

    __slots__ = ("level", "coefficients")

    def __init__(self, level: int, coefficients: dict):
        self.level = level
        self.coefficients = dict(coefficients)
        self._validate()

    def _validate(self):
        d = self.level + 1
        if not self.coefficients:
            raise ValueError("empty coefficient map")
        for (i, j), c in self.coefficients.items():
            if i < j:
                raise ValueError(f"stored exponent pair ({i}, {j}) must have i >= j")
            if not isinstance(c, int) or c == 0:
                raise ValueError(f"coefficient at ({i}, {j}) must be a nonzero integer")
        deg = max(i for i, _ in self.coefficients)
        if deg != d:
            raise ValueError(f"degree mismatch: expected {d} in each variable, found {deg}")
        for (i, j) in self.coefficients:
            if i == d and j != 0:
                if j == d:
                    raise ValueError(f"coefficient of X^{d} Y^{d} must vanish")
                raise ValueError(
                    f"term X^{d} Y^{j} breaks monicity in X after fixing Y"
                )
        if self.coefficients.get((d, 0)) != 1:
            raise ValueError(f"not monic: coefficient of X^{d} must be 1")

    def __repr__(self):
        return f"ModularPolynomial(level={self.level}, {len(self.coefficients)} terms)"


def _parse_text(text: str) -> ModularPolynomial:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("ell="):
        raise ValueError("malformed file: first line must be 'ell=<level>'")
    try:
        level = int(lines[0][4:])
    except ValueError:
        raise ValueError("malformed file: unreadable level") from None
    coeffs = {}
    prev = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise ValueError(f"malformed file: blank line {line_no}")
        parts = line.split(" ")
        if len(parts) != 3 or line != " ".join(parts) or line.rstrip() != line:
            raise ValueError(f"malformed file: line {line_no} is not '<i> <j> <c>'")
        try:
            i, j, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"malformed file: non-integer on line {line_no}") from None
        if (i, j) in coeffs:
            raise ValueError(f"malformed file: duplicate exponent pair ({i}, {j})")
        if prev is not None and (i, j) >= prev:
            raise ValueError("malformed file: lines not sorted descending by (i, j)")
        prev = (i, j)
        coeffs[(i, j)] = c
    return ModularPolynomial(level, coeffs)


def load_modular_polynomial(level: int, source: str = "embedded") -> ModularPolynomial:
    """Load Phi_level from the embedded table or from a file path."""
    if source == "embedded":
        if level not in _EMBEDDED:
            raise ValueError(
                f"no embedded modular polynomial for level {level}; provide a file"
            )
        return ModularPolynomial(level, _EMBEDDED[level])
    if level > MAX_FILE_LEVEL:
        raise ValueError(f"levels beyond {MAX_FILE_LEVEL} are out of scope")
    with open(source, "r", encoding="utf-8") as fh:
        poly = _parse_text(fh.read())
    if poly.level != level:
        raise ValueError(f"file declares level {poly.level}, expected {level}")
    return poly


def resolve_modular_polynomial(level: int, modpoly_dir: str | None = None) -> ModularPolynomial:
    """Embedded for levels 2 and 3; otherwise phi<level>.txt from a directory.

    The directory defaults to the ISOCYCLES_MODPOLY_DIR environment variable.
    """
    if level in _EMBEDDED:
        return load_modular_polynomial(level, "embedded")
    directory = modpoly_dir or os.environ.get(MODPOLY_ENV_VAR)
    if not directory:
        raise ValueError(
            f"level {level} is not embedded and no modular polynomial directory given"
        )
    return load_modular_polynomial(level, os.path.join(directory, f"phi{level}.txt"))


def reduce_mod_p(phi: ModularPolynomial, p: int) -> list[list[tuple[int, int]]]:
    """Phi_ell(X, Y) mod p as rows: row i lists (k, c) with c*Y^k in the X^i coefficient."""
    if phi.level >= p:
        raise ValueError(f"level {phi.level} must be smaller than p={p}")
    rows = [[] for _ in range(phi.level + 2)]
    for (i, j), c in phi.coefficients.items():
        rows[i].append((j, c % p))
        if i != j:
            rows[j].append((i, c % p))
    return rows


def instantiate_pairs(rows, v: tuple[int, int], p: int, n: int) -> list[tuple[int, int]]:
    """Coefficient pairs of Phi_ell(X, v) for v = (a, b) in F_p(s), s^2 = n.

    `rows` comes from `reduce_mod_p`; the result is monic of degree ell + 1,
    lowest degree first.
    """
    a, b = v
    powers = [(1, 0)]
    for _ in range(len(rows) - 1):
        x, y = powers[-1]
        powers.append(((x * a + n * y * b) % p, (x * b + y * a) % p))
    out = []
    for row in rows:
        sa = sb = 0
        for k, c in row:
            x, y = powers[k]
            sa += c * x
            sb += c * y
        out.append((sa % p, sb % p))
    return out


def instantiate(phi: ModularPolynomial, j_value: QuadExtElement, field: PrimeField) -> PolyOverFp2:
    """The univariate polynomial Phi_ell(X, j) over F_{p^2}, degree ell + 1."""
    if j_value.field != field:
        raise ValueError("j-invariant does not live in the given field")
    rows = reduce_mod_p(phi, field.p)
    return PolyOverFp2(field, instantiate_pairs(rows, j_value.key(), field.p, field.non_residue))
