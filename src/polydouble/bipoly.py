"""Exact integer polynomials in two variables a and t.

Houses the face-count polynomial f, the h-polynomial h = f(a-t, t), and
the three equivalent expressions for the h-polynomial of a doubled
polytope:

  * face enumeration of the doubled complex,
  * the alternating face sum over links (face_sum_lemma2),
  * the divided-derivative operator applied to h (doubling_operator_apply),

all of which must equal (a+t)^(m-n) * h(a^2, t^2) (theorem3_rhs).

The operator's 1/i! and (a+t)^(-i) factors are never materialized:
divided derivatives keep coefficients integral and the power (a+t)^(m-i)
is multiplied in directly, so every computation stays in Z[a, t].
"""

from __future__ import annotations

import re
from math import comb
from typing import Mapping

from .complexes import DualPolytope, f_counts, link
from .errors import DegreeExceedsM, DegreeMismatch, ParseError


class BivariatePolynomial:
    """Sparse map (a-degree, t-degree) -> nonzero integer coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] = ()):
        table: dict[tuple[int, int], int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in ({i}, {j})")
            if c:
                table[(i, j)] = table.get((i, j), 0) + c
                if not table[(i, j)]:
                    del table[(i, j)]
        self._coeffs = table

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero() -> "BivariatePolynomial":
        return BivariatePolynomial()

    @staticmethod
    def one() -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 0): 1})

    @staticmethod
    def monomial(i: int, j: int, c: int = 1) -> "BivariatePolynomial":
        return BivariatePolynomial({(i, j): c})

    @staticmethod
    def alpha() -> "BivariatePolynomial":
        return BivariatePolynomial({(1, 0): 1})

    @staticmethod
    def t() -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 1): 1})

    # -- inspection --------------------------------------------------------

    def coefficient(self, i: int, j: int) -> int:
        return self._coeffs.get((i, j), 0)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._coeffs.items())

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None."""
        degrees = {i + j for i, j in self._coeffs}
        if len(degrees) == 1:
            return degrees.pop()
        return None if degrees else 0

    def is_palindromic(self) -> bool:
        """h_i = h_(n-i) for a homogeneous polynomial written in a, t."""
        n = self.homogeneous_degree()
        if n is None:
            return False
        return all(c == self.coefficient(j, i) for (i, j), c in self._coeffs.items())

    def evaluate(self, a, t):
        return sum(c * a**i * t**j for (i, j), c in self._coeffs.items())

    # -- arithmetic ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        table = dict(self._coeffs)
        for key, c in other._coeffs.items():
            table[key] = table.get(key, 0) + c
            if not table[key]:
                del table[key]
        out = BivariatePolynomial()
        out._coeffs = table
        return out

    def __neg__(self) -> "BivariatePolynomial":
        out = BivariatePolynomial()
        out._coeffs = {key: -c for key, c in self._coeffs.items()}
        return out

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "BivariatePolynomial":
        if isinstance(other, int):
            return self.scale(other)
        table: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._coeffs.items():
            for (i2, j2), c2 in other._coeffs.items():
                key = (i1 + i2, j1 + j2)
                table[key] = table.get(key, 0) + c1 * c2
                if not table[key]:
                    del table[key]
        out = BivariatePolynomial()
        out._coeffs = table
        return out

    def __rmul__(self, other) -> "BivariatePolynomial":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> "BivariatePolynomial":
        if not c:
            return BivariatePolynomial.zero()
        out = BivariatePolynomial()
        out._coeffs = {key: c * v for key, v in self._coeffs.items()}
        return out

    def __pow__(self, k: int) -> "BivariatePolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = BivariatePolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- the two substitutions the identities need ---------------------------

    def sub_alpha_minus_t(self) -> "BivariatePolynomial":
        """Monomial map a -> a - t, t -> t (defines h from f)."""
        table: dict[tuple[int, int], int] = {}
        for (i, j), c in self._coeffs.items():
            for k in range(i + 1):
                key = (k, j + i - k)
                term = c * comb(i, k) * (-1) ** (i - k)
                table[key] = table.get(key, 0) + term
                if not table[key]:
                    del table[key]
        out = BivariatePolynomial()
        out._coeffs = table
        return out

    def sub_squares(self) -> "BivariatePolynomial":
        """Monomial map a -> a^2, t -> t^2."""
        out = BivariatePolynomial()
        out._coeffs = {(2 * i, 2 * j): c for (i, j), c in self._coeffs.items()}
        return out

    # -- text form -------------------------------------------------------------

    def to_text(self) -> str:
        """Render terms in degree-lexicographic order, e.g. "a^2 + 3*a*t + t^2"."""
        if not self._coeffs:
            return "0"
        keys = sorted(self._coeffs, key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))
        pieces: list[str] = []
        for idx, (i, j) in enumerate(keys):
            c = self._coeffs[(i, j)]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            factors = []
            if mag != 1 or (i == 0 and j == 0):
                factors.append(str(mag))
            if i:
                factors.append("a" if i == 1 else f"a^{i}")
            if j:
                factors.append("t" if j == 1 else f"t^{j}")
            term = "*".join(factors)
            if idx == 0:
                pieces.append(term if c > 0 else f"-{term}")
            else:
                pieces.append(f"{sign} {term}")
        return " ".join(pieces)

    @staticmethod
    def from_text(text: str) -> "BivariatePolynomial":
        """Parse the grammar produced by to_text."""
        stripped = text.replace(" ", "")
        if not stripped:
            raise ParseError("empty polynomial text")
        if stripped == "0":
            return BivariatePolynomial.zero()
        table: dict[tuple[int, int], int] = {}
        matches = re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", stripped)
        if matches is None:
            raise ParseError(f"cannot parse polynomial {text!r}")
        for piece in re.findall(r"[+-]?[^+-]+", stripped):
            sign = -1 if piece.startswith("-") else 1
            body = piece.lstrip("+-")
            if not body:
                raise ParseError(f"dangling sign in {text!r}")
            coeff, i, j = 1, 0, 0
            for factor in body.split("*"):
                if factor.isdigit():
                    coeff *= int(factor)
                elif m := re.fullmatch(r"a(?:\^(\d+))?", factor):
                    i += int(m.group(1) or 1)
                elif m := re.fullmatch(r"t(?:\^(\d+))?", factor):
                    j += int(m.group(1) or 1)
                else:
                    raise ParseError(f"bad factor {factor!r} in {text!r}")
            key = (i, j)
            table[key] = table.get(key, 0) + sign * coeff
        return BivariatePolynomial(table)

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.to_text()!r})"


ALPHA_PLUS_T = BivariatePolynomial({(1, 0): 1, (0, 1): 1})
ALPHA_T = BivariatePolynomial({(1, 1): 1})


def f_polynomial(P: DualPolytope) -> BivariatePolynomial:
    """a^n + sum_i f_counts[i-1] a^(n-i) t^i, homogeneous of degree n."""
    n = P.dim
    table = {(n, 0): 1}
    for i, count in enumerate(f_counts(P), start=1):
        table[(n - i, i)] = count
    return BivariatePolynomial(table)


def h_polynomial(P: DualPolytope) -> BivariatePolynomial:
    """h = f(a - t, t); palindromic for every valid dual polytope."""
    return f_polynomial(P).sub_alpha_minus_t()


def derivative_sum(p: BivariatePolynomial) -> BivariatePolynomial:
    """(d/da + d/dt) p, exactly."""
    table: dict[tuple[int, int], int] = {}
    for (i, j), c in p.items():
        if i:
            key = (i - 1, j)
            table[key] = table.get(key, 0) + c * i
        if j:
            key = (i, j - 1)
            table[key] = table.get(key, 0) + c * j
    return BivariatePolynomial(table)


def divided_derivative(p: BivariatePolynomial, order: int) -> BivariatePolynomial:
    """(1/order!) (d/da + d/dt)^order, via the binomial monomial rule.

    On a^i t^j the result is sum_k C(i,k) C(j,order-k) a^(i-k) t^(j-order+k),
    which is integral term by term.
    """
    table: dict[tuple[int, int], int] = {}
    for (i, j), c in p.items():
        for k in range(max(0, order - j), min(i, order) + 1):
            key = (i - k, j - order + k)
            term = c * comb(i, k) * comb(j, order - k)
            if term:
                table[key] = table.get(key, 0) + term
    return BivariatePolynomial(table)


def face_sum_lemma2(P: DualPolytope, m: int) -> BivariatePolynomial:
    """Alternating sum over all faces s of the complex (empty face included):

        sum_s (-1)^|s| (a t)^|s| (a+t)^(m-|s|) h(link s),

    homogeneous of degree m + n.  The |s| = 0 term is (a+t)^m h(P); the
    maximal faces contribute the polytope's vertices with h = 1.
    """
    if m != P.complex.vertex_count:
        raise DegreeMismatch(
            f"m = {m} does not match the facet count {P.complex.vertex_count}"
        )
    total = BivariatePolynomial.zero()
    for size, level in enumerate(P.complex.faces_by_size()):
        links = BivariatePolynomial.zero()
        for face in level:
            links = links + h_polynomial(link(P, face)[0])
        term = (ALPHA_T**size) * (ALPHA_PLUS_T ** (m - size)) * links
        total = total + (term.scale(-1) if size % 2 else term)
    return total


def doubling_operator_apply(h: BivariatePolynomial, m: int) -> BivariatePolynomial:
    """sum_i (-1)^i (a t)^i (a+t)^(m-i) D_i(h), D_i the divided derivative.

    Requires h homogeneous of degree n <= m; terms with i > n vanish
    because D_i annihilates degree-n polynomials, so the sum is finite and
    no negative powers of (a+t) survive.
    """
    n = h.homogeneous_degree()
    if n is None:
        raise DegreeMismatch("operator input must be homogeneous")
    if n > m:
        raise DegreeExceedsM(f"degree {n} exceeds m = {m}")
    total = BivariatePolynomial.zero()
    for i in range(n + 1):
        term = (ALPHA_T**i) * (ALPHA_PLUS_T ** (m - i)) * divided_derivative(h, i)
        total = total + (term.scale(-1) if i % 2 else term)
    return total


def theorem3_rhs(h: BivariatePolynomial, m: int, n: int) -> BivariatePolynomial:
    """(a+t)^(m-n) * h(a^2, t^2), homogeneous of degree m + n."""
    if h.homogeneous_degree() != n:
        raise DegreeMismatch(f"polynomial is not homogeneous of degree {n}")
    if m < n:
        raise DegreeMismatch(f"m = {m} is smaller than n = {n}")
    return (ALPHA_PLUS_T ** (m - n)) * h.sub_squares()
