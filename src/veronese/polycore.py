"""Exact sparse multivariate polynomials over QQ and prime fields.

Everything here is immutable and canonical: a polynomial stores its terms as a
tuple sorted in descending graded-reverse-lexicographic order, so structural
equality is mathematical equality.  A rational coefficient is a plain int
when it is integral and a `fractions.Fraction` with a denominator above 1
otherwise; `fractions` is imported on the first value that needs it, so a
computation over the integers, as every presentation ideal is, never loads
it.  A prime-field coefficient is its least nonnegative residue, an int.
No floating point anywhere.

Immutability comes from plain slotted classes (``_Record``), written out
by hand: assignment and deletion raise ``AttributeError``, and no code is
generated at import, which keeps the start-up of every CLI report short.
``ResourceCapError`` is the one error every layer raises when a request
exceeds a deterministic work cap.
"""
from __future__ import annotations

import re
import sys
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, mul, neg
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

Exponents = tuple[int, ...]
Scalar = Union[int, "Fraction"]

__all__ = [
    "Rationals", "PrimeField", "CoeffDomain", "QQ", "GF",
    "Lex", "GrevLex", "Block", "MonomialOrder", "PolyRing", "Polynomial",
    "ParseError", "parse_polynomial", "parse_polynomial_list", "divide",
    "homogeneous_degree", "is_homogeneous", "ResourceCapError",
    "PRODUCT_CAP", "PRIME_BOUND",
]


class ResourceCapError(RuntimeError):
    """A request exceeded a deterministic work cap; refused outright, never
    truncated."""


# ---------------------------------------------------------------------------
# immutable value classes
# ---------------------------------------------------------------------------

_setattr = object.__setattr__     # sets a field once, inside __init__


class _Record:
    """Base of the immutable value classes.

    ``__match_args__`` names the fields in constructor order and
    ``__slots__`` holds them; ``_defaults`` holds the defaults of the last
    fields.  The constructor takes the fields by position or by keyword.
    Equality and hash go by class and field values, assignment and deletion
    raise ``AttributeError``, and copies and pickles rebuild through the
    constructor.

    The generic methods loop over the fields, which costs several times a
    written-out comparison.  Only the types compared or hashed thousands of
    times per report write ``__eq__`` and ``__hash__`` out by hand:
    ``PrimeField``, ``PolyRing``, ``Polynomial`` and ``_Fieldless``.
    Colder types, cache keys among them (``Ideal``, ``GroebnerBasis``,
    ``Block``), use these.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{self.__class__.__name__} takes {len(names)} "
                            f"fields, got {len(args)}")
        first_default = len(names) - len(self._defaults)
        for i, name in enumerate(names):
            if i < len(args):
                if name in kwargs:
                    raise TypeError(f"field {name!r} given twice")
                value = args[i]
            elif name in kwargs:
                value = kwargs.pop(name)
            elif i >= first_default:
                value = self._defaults[i - first_default]
            else:
                raise TypeError(f"missing field {name!r}")
            _setattr(self, name, value)
        if kwargs:
            raise TypeError(f"unknown fields {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class _CachedHash(_Record):
    """A record whose hash is computed once, on first use, for values that
    are hashed again and again (polynomials, rings, ideals and bases as
    cache keys).  A subclass that writes ``__eq__`` must name ``__hash__``
    again, since defining ``__eq__`` alone clears the inherited hash."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values())
            _setattr(self, "_hash", h)
            return h


_EMPTY_HASH = hash(())            # the hash of every value without fields


class _Fieldless(_Record):
    """A value without fields: all instances of one class are equal."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return _EMPTY_HASH


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

#: ``PrimeField`` takes primes below this bound, where Miller-Rabin with
#: the first twelve primes as bases is exact (OEIS A014233), and refuses p
#: at or past it with ``ResourceCapError``
PRIME_BOUND = 318_665_857_834_031_151_167_461

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the bases ``_MR_BASES``: exact below
    ``PRIME_BOUND``, a few modular powers at any size."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals(_Fieldless):
    """The field QQ.  A scalar is an int when it is integral and a
    ``Fraction`` with a denominator above 1 otherwise, so that integral
    work runs on ints; ``fractions`` is imported on the first value that
    is neither an int nor a ``Fraction`` already, or on the inverse of a
    non-unit."""

    __slots__ = ()

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def normalize(self, value) -> Scalar:
        """``value`` as its canonical scalar; a value other than an int,
        a float or a ``Decimal`` among them, is read exactly by
        ``Fraction(value)``."""
        if value.__class__ is int:       # no ABC instance check
            return value
        from fractions import Fraction
        # an exact class test: the metaclass of ``Fraction`` is ABCMeta,
        # so isinstance tests on it, its constructor's too, are slow
        if value.__class__ is not Fraction:
            value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def invert(self, value: Scalar) -> Scalar:
        if value == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        if value == 1 or value == -1:
            return self.normalize(value)
        from fractions import Fraction
        # the one division of scalars
        return self.normalize(Fraction(1, 1) / Fraction(value))

    def __str__(self) -> str:
        return "QQ"


class PrimeField(_Record):
    """The field F_p, scalars stored as least nonnegative residues."""

    __match_args__ = ("p",)
    __slots__ = __match_args__

    def __init__(self, p: int) -> None:
        if isinstance(p, int) and p >= PRIME_BOUND:
            raise ResourceCapError(f"the prime field needs p below "
                                   f"{PRIME_BOUND}, got {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"PrimeField needs a prime, got {p!r}")
        _setattr(self, "p", p)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash((self.p,))

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def normalize(self, value) -> int:
        if value.__class__ is int:       # no ABC instance check
            return value % self.p
        # any other value is read in QQ first, exactly, as an int or a
        # Fraction, both of which have a numerator and a denominator
        value = QQ.normalize(value)
        den = value.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator {value.denominator} vanishes mod {self.p}")
        return (value.numerator % self.p) * pow(den, -1, self.p) % self.p

    def invert(self, value: int) -> int:
        v = value % self.p
        if v == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(v, -1, self.p)

    def __str__(self) -> str:
        return f"GF({self.p})"


CoeffDomain = Union[Rationals, PrimeField]

QQ = Rationals()


def GF(p: int) -> PrimeField:
    """Prime field of order p; rejects composite p."""
    return PrimeField(p)


# ---------------------------------------------------------------------------
# monomials (bare exponent tuples) and monomial orders
# ---------------------------------------------------------------------------
#
# Every order key is one flat tuple of ints whose length depends only on the
# arity, so comparing keys as tuples is comparing monomials in the order.
#
# Inside the reduction kernel a monomial is one int instead (packed exponent
# vectors, as in Monagan & Pearce, "Sparse polynomial division using a
# heap", J. Symbolic Comput. 46, 2011).  Every order key here is linear in
# the exponents.  Replacing each key row by the sum of the rows up to it
# keeps the comparison, because a later row decides only when all earlier
# rows are equal, and leaves only 0/1 entries.  A packed monomial holds,
# most significant first, one field per nonzero summed row and then one per
# exponent, each ``bits`` wide with its top bit as a guard that stays clear.
# Then int ``a < b`` is the order, ``a + b`` the product, and
# ``(b - a) & guard == 0`` says that a divides b: a field of b smaller than
# the one of a borrows and sets its guard bit.  Every field is at most the
# total degree.  A created monomial whose guard bits are set raises
# ``_PackingOverflow``, and ``_packed`` reruns the whole computation with
# fields twice as wide.

def _is_int(value: object) -> bool:
    """An int and not a bool: ``True`` is an int to Python, but no count,
    exponent or index here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_ints(**values: object) -> None:
    """Refuse, by name, each value that is not an int (a bool is not one)
    with ``ValueError``."""
    for name, value in values.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be an int, not {value!r}")


def _naturals(entries: Iterable[int], arity: Union[int, None] = None
              ) -> tuple[int, ...]:
    """``entries`` as a tuple of nonnegative ints, such as an exponent
    vector, and ``arity`` of them when it is given; anything else, a float
    or a bool among them, raises ``ValueError``."""
    v = tuple(entries)
    if (arity is not None and len(v) != arity) or not all(
            _is_int(e) and e >= 0 for e in v):
        count = "" if arity is None else f"{arity} "
        raise ValueError(f"expected {count}nonnegative ints, got {v!r}")
    return v


def _grevlex_key(m: Exponents) -> tuple[int, ...]:
    # graded, then reverse-lex: later variables count against a monomial
    return (sum(m),) + tuple(map(neg, reversed(m)))


class Lex(_Fieldless):
    """Pure lexicographic order, first variable strongest."""

    __slots__ = ()

    def key(self, m: Exponents):
        return m

    def __str__(self) -> str:
        return "lex"


class GrevLex(_Fieldless):
    """Graded reverse lexicographic order."""

    __slots__ = ()

    def key(self, m: Exponents):
        return _grevlex_key(m)

    def __str__(self) -> str:
        return "grevlex"


class Block(_Record):
    """Elimination order: grevlex on the eliminated variables dominates,
    ties broken by grevlex on the remaining variables.

    Any monomial containing an eliminated variable beats every monomial in
    the remaining variables alone, which is exactly the elimination
    property needed to read off intersection ideals from a basis.  The key
    is the grevlex key of the eliminated exponents followed by the grevlex
    key of the rest.
    """

    __match_args__ = ("eliminated",)
    __slots__ = __match_args__

    def __init__(self, eliminated: Iterable[int]) -> None:
        # checked before the set is built, in which True and 1 are one
        elim = _naturals(eliminated)
        if not elim:
            raise ValueError("Block order needs a nonempty eliminated set")
        _setattr(self, "eliminated", frozenset(elim))

    def key(self, m: Exponents):
        elim = self.eliminated
        block = tuple(e for i, e in enumerate(m) if i in elim)
        rest = tuple(e for i, e in enumerate(m) if i not in elim)
        return _grevlex_key(block) + _grevlex_key(rest)

    def __str__(self) -> str:
        return f"block(eliminate={sorted(self.eliminated)})"


MonomialOrder = Union[Lex, GrevLex, Block]


def _check_order(order: MonomialOrder, arity: int) -> None:
    """Refuse a ``Block`` order that eliminates an index outside a ring of
    ``arity`` variables, which its key would silently ignore."""
    if isinstance(order, Block) and max(order.eliminated) >= arity:
        raise ValueError("eliminated index out of range")


_FIELD_BITS = 8     # field width of the first packing tried


class _PackingOverflow(Exception):
    """A packed monomial outgrew the fields of its packing."""


class _Packing:
    """Packed monomials of one arity under one order, ``bits`` per field."""

    __slots__ = ("order", "units", "guard", "limit", "shifts", "mask",
                 "low", "exp_guard", "top")

    def __init__(self, order: "MonomialOrder", arity: int, bits: int):
        _check_order(order, arity)
        self.order = order
        unit = [tuple(int(i == j) for j in range(arity)) for i in range(arity)]
        cols = [order.key(u) for u in unit]
        rows, acc = [], [0] * arity
        for r in range(len(cols[0])):
            acc = [a + col[r] for a, col in zip(acc, cols)]
            if any(acc):
                rows.append(acc)
        rows += unit                     # the exponent fields
        if any(e not in (0, 1) for row in rows for e in row):
            raise ValueError(f"cannot pack monomials under {order}")
        top = len(rows) - 1
        # the packed unit vectors: packing is linear while no field overflows
        self.units = tuple(
            sum(row[i] << bits * (top - r) for r, row in enumerate(rows))
            for i in range(arity))
        self.guard = sum(1 << bits * r + bits - 1 for r in range(len(rows)))
        self.limit = 1 << bits - 1
        self.shifts = tuple(bits * (arity - 1 - i) for i in range(arity))
        self.mask = (1 << bits) - 1
        # the exponent fields are the low ``arity * bits`` bits; ``exp_guard``
        # holds their guard bits, and ``top`` shifts a guard bit to its
        # field's 1
        self.low = (1 << bits * arity) - 1
        self.exp_guard = self.guard & self.low
        self.top = bits - 1

    def pack(self, m: Exponents) -> int:
        if sum(m) >= self.limit:
            raise _PackingOverflow
        return sum(map(mul, m, self.units))

    def unpack(self, x: int) -> Exponents:
        mask = self.mask
        return tuple([x >> s & mask for s in self.shifts])

    def pack_terms(self, terms: Iterable[tuple[Exponents, Scalar]]) -> dict:
        pack = self.pack
        return {pack(m): c for m, c in terms}

    def polynomial(self, ring: "PolyRing", d: Mapping[int, Scalar],
                   kept: Union[Sequence[int], None] = None) -> "Polynomial":
        """The polynomial of a packed term dict, terms descending and
        coefficients normalized and nonzero, as ``_nf_dict`` returns them.
        Under grevlex, the order a polynomial keeps, the terms are taken as
        they stand, and under another order sorted by ``_from_dict``.  With
        ``kept``, the indices of the variables of ``ring``, only their
        exponent fields are read and the terms are taken as they stand: the
        dict must be free of the other variables, as an element of an
        elimination basis whose lead is free of the eliminated ones is, and
        an elimination order is grevlex on such monomials.  A ``Fraction``
        coefficient over QQ that a division left integral becomes its
        int."""
        mask = self.mask
        shifts = (self.shifts if kept is None
                  else [self.shifts[i] for i in kept])
        coeffs = d.values()
        if not ring.domain.characteristic:
            coeffs = [c if c.__class__ is int else QQ.normalize(c)
                      for c in coeffs]
        terms = tuple(zip([tuple([x >> s & mask for s in shifts])
                           for x in d], coeffs))
        if kept is None and not isinstance(self.order, GrevLex):
            return _from_dict(ring, dict(terms))
        return Polynomial(ring, terms)


@lru_cache(maxsize=64)
def _packing(order: "MonomialOrder", arity: int, bits: int) -> _Packing:
    return _Packing(order, arity, bits)


def _packed(order: "MonomialOrder", arity: int, run):
    """``run(packing)`` under the narrowest packing, from ``_FIELD_BITS``
    bits per field up, in which no monomial it creates overflows; after an
    overflow the whole run is repeated with fields twice as wide, so
    ``run`` must start from scratch on every call."""
    bits = _FIELD_BITS
    while True:
        try:
            return run(_packing(order, arity, bits))
        except _PackingOverflow:
            bits *= 2


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

def _is_name(text: str) -> bool:
    """A variable name: an ASCII lowercase letter, then ASCII lowercase
    letters and digits."""
    return (text.isascii() and text.isalnum() and text.islower()
            and not text[0].isdigit())


class PolyRing(_CachedHash):
    """A polynomial ring: ordered variable names over a coefficient domain."""

    __match_args__ = ("names", "domain")
    __slots__ = __match_args__

    def __init__(self, names: Sequence[str], domain: CoeffDomain = QQ) -> None:
        names = tuple(names)
        if not names:
            raise ValueError("a ring needs at least one variable")
        for nm in names:
            if not _is_name(nm):
                raise ValueError(f"bad variable name {nm!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        _setattr(self, "names", names)
        _setattr(self, "domain", domain)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names and self.domain == other.domain

    __hash__ = _CachedHash.__hash__

    @property
    def arity(self) -> int:
        return len(self.names)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Scalar) -> "Polynomial":
        c = self.domain.normalize(c)
        if c == 0:
            return Polynomial(self, ())
        return Polynomial(self, (((0,) * self.arity, c),))

    def variable(self, which: Union[int, str]) -> "Polynomial":
        if isinstance(which, str):
            try:
                which = self.names.index(which)
            except ValueError:
                raise ValueError(f"unknown variable {which!r}") from None
        _require_ints(index=which)
        if not 0 <= which < self.arity:
            raise ValueError(f"variable index {which} out of range")
        exps = tuple(1 if i == which else 0 for i in range(self.arity))
        return Polynomial(self, ((exps, self.domain.one),))

    def monomial(self, exps: Sequence[int]) -> "Polynomial":
        return Polynomial(self, ((_naturals(exps, self.arity),
                                  self.domain.one),))

    def from_dict(self, mapping: Mapping[Exponents, Scalar]) -> "Polynomial":
        return _from_dict(self, dict(mapping))

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def __str__(self) -> str:
        return f"{self.domain}[{', '.join(self.names)}]"


def _from_dict(ring: PolyRing, d: Mapping[Exponents, Scalar]) -> "Polynomial":
    """The canonical polynomial of a term dict in any order: coefficients
    normalized in the ring's domain, zero terms dropped, the rest sorted
    grevlex-descending."""
    dom = ring.domain
    items = []
    for m, c in d.items():
        c = dom.normalize(c)
        if c != 0:
            items.append((m, c))
    items.sort(key=lambda t: _grevlex_key(t[0]), reverse=True)
    return Polynomial(ring, tuple(items))


def _read(polys: Sequence[Polynomial], ring: PolyRing
          ) -> tuple[Polynomial, ...]:
    """Polynomials over QQ with integer coefficients, read into ``ring``:
    each coefficient normalized in its field, the vanishing terms dropped
    and the grevlex order kept.  That is what a parse, or a derivation, in
    that field gives, since reduction mod p commutes with both."""
    normalize = ring.domain.normalize
    return tuple(Polynomial(ring, tuple([(m, r) for m, c in f.terms
                                         if (r := normalize(c))]))
                 for f in polys)


class Polynomial(_CachedHash):
    """Canonical sparse polynomial; terms grevlex-descending, no zero terms.

    Build through PolyRing helpers or arithmetic, not raw construction.
    """

    __match_args__ = ("ring", "terms")
    __slots__ = __match_args__

    def __init__(self, ring: PolyRing,
                 terms: tuple[tuple[Exponents, Scalar], ...]) -> None:
        _setattr(self, "ring", ring)
        _setattr(self, "terms", terms)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms and (
            self.ring is other.ring or self.ring == other.ring)

    __hash__ = _CachedHash.__hash__

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> Union[int, None]:
        """Largest term degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m, _ in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        target = tuple(exps)
        for m, c in self.terms:
            if m == target:
                return c
        return self.ring.domain.zero

    def lead_monomial(self, order: MonomialOrder) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no lead monomial")
        _check_order(order, self.ring.arity)
        return max((m for m, _ in self.terms), key=order.key)

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return _from_dict(self.ring, d)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.domain.characteristic
        if p:
            return Polynomial(self.ring, tuple((m, (-c) % p) for m, c in self.terms))
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        d: dict[Exponents, Scalar] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(map(add, m1, m2))
                d[m] = d.get(m, 0) + c1 * c2
        return _from_dict(self.ring, d)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return _power(self, e, mul)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        # no Fraction exists before ``fractions`` is imported
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(other, fractions.Fraction):
            return self.ring.constant(other)
        return NotImplemented

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.names
        chunks: list[str] = []
        for i, (m, c) in enumerate(self.terms):
            neg = c < 0
            mag = -c if neg else c
            vars_part = "*".join(
                nm if e == 1 else f"{nm}^{e}"
                for nm, e in zip(names, m) if e > 0
            )
            scalar = _decimal(mag.numerator)
            if mag.denominator != 1:
                scalar += f"/{_decimal(mag.denominator)}"
            if not vars_part:
                body = scalar
            elif mag == 1:
                body = vars_part
            else:
                body = f"{scalar}*{vars_part}"
            if i == 0:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<{self} in {self.ring}>"


#: ``_decimal`` writes an int in pieces of this many digits, fewer than the
#: least ``-X int_max_str_digits`` (640) that CPython allows
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(n: int) -> str:
    """A nonnegative int in decimal, written piece by piece, so that no
    setting of ``int_max_str_digits`` refuses it."""
    pieces = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        pieces.append(str(low).zfill(_CHUNK_DIGITS))
    pieces.append(str(n))
    return "".join(reversed(pieces))


def _power(f: Polynomial, e: int, times) -> Polynomial:
    """f^e by repeated squaring, each product formed by ``times``."""
    if not _is_int(e) or e < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = f.ring.one
    while e:
        if e & 1:
            result = times(result, f)
        f = times(f, f) if e > 1 else f
        e >>= 1
    return result


def homogeneous_degree(f: Polynomial) -> Union[int, None]:
    """Common total degree of all terms, or None (zero polynomial, or mixed)."""
    if not f.terms:
        return None
    degs = {sum(m) for m, _ in f.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def is_homogeneous(f: Polynomial) -> bool:
    """Zero counts as homogeneous (of every degree)."""
    if not f.terms:
        return True
    return homogeneous_degree(f) is not None


# ---------------------------------------------------------------------------
# multivariate division
# ---------------------------------------------------------------------------

def _nf_dict(work: dict, entries: list, guard: int, p: int) -> dict:
    """Full normal form of a packed term dict against monic divisor entries.

    Consumes ``work``.  Each entry is (lead, quotient, tail) with packed
    monomials.  ``quotient`` is None, or a dict that receives the packed
    multiplier of every reduction step by that entry.  Deterministic: the
    current maximal term is reduced by the first entry whose lead divides
    it, in entry order.  The maximal term comes off a heap of negated packed
    monomials; a term whose coefficient cancelled stays in ``work`` as 0 and
    is skipped when popped.  The result lists its terms in descending order.
    Raises ``_PackingOverflow`` when a new term outgrows its fields.
    """
    heap = [-m for m in work]
    heapify(heap)
    result: dict[int, Scalar] = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        for lead, quotient, tail in entries:
            q = m - lead
            if q & guard:
                continue
            if quotient is not None:
                # the reduced term strictly decreases, so q is never repeated
                quotient[q] = c
            # work -= c * x^q * (lead + tail); the lead part is the popped
            # term, and every new term is smaller than it
            for tm, tc in tail:
                nm = tm + q
                old = work.get(nm)
                if old is None:
                    if nm & guard:
                        raise _PackingOverflow
                    work[nm] = -c * tc % p if p else -c * tc
                    heappush(heap, -nm)
                else:
                    work[nm] = (old - c * tc) % p if p else old - c * tc
            break
        else:
            result[m] = c
    return result


def _monic(terms: dict, dom: CoeffDomain) -> tuple[int, Scalar, tuple]:
    """A nonzero packed term dict as a monic divisor of ``_nf_dict``: its
    lead, the inverse of the lead coefficient, and the tail, the other terms
    times that inverse in the dict's order.  Consumes ``terms``."""
    lead = max(terms)
    inv = dom.invert(terms.pop(lead))
    p = dom.characteristic
    return lead, inv, tuple([(m, c * inv % p if p else c * inv)
                             for m, c in terms.items()])


def divide(f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder
           ) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: f = sum(q_i * d_i) + r.

    Ties go to the first divisor whose lead divides the current lead, so the
    output is deterministic.  No term of r is divisible by any divisor lead.
    Each quotient receives its terms in descending order, so it is built
    like the remainder (``_Packing.polynomial``), without a sort under
    grevlex.
    """
    ring = f.ring
    dom = ring.domain
    p = dom.characteristic
    if not divisors:
        raise ValueError("need at least one divisor")
    for d in divisors:
        if d.ring != ring:
            raise ValueError("divisor in a different ring")
        if d.is_zero():
            raise ValueError("zero divisor")

    def run(packing: _Packing):
        # reduce by the monic divisors d_i / lc_i; q_i is then the collected
        # multiplier times 1 / lc_i
        entries = []
        scaled = []
        for d in divisors:
            lead, lcinv, tail = _monic(packing.pack_terms(d.terms), dom)
            quotient: dict[int, Scalar] = {}
            entries.append((lead, quotient, tail))
            scaled.append((quotient, lcinv))
        remainder = _nf_dict(packing.pack_terms(f.terms), entries,
                             packing.guard, p)
        qs = [packing.polynomial(ring, {q: c * lcinv % p if p else c * lcinv
                                        for q, c in quotient.items()})
              for quotient, lcinv in scaled]
        return qs, packing.polynomial(ring, remainder)

    return _packed(order, ring.arity, run)


# ---------------------------------------------------------------------------
# parser for the input grammar
# ---------------------------------------------------------------------------
#
#   expr   := ('+'|'-')? term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' integer)?
#   atom   := integer | variable | '(' expr ')'
#
# Variables are [a-z][a-z0-9]*, integers are nonnegative literals [0-9]+
# of at most _MAX_DIGITS digits (both ASCII only), whitespace is
# insignificant.  '^' binds tighter than '*'.  Parentheses nest at most
# _MAX_NESTING deep, well inside the interpreter's recursion limit.

_MAX_NESTING = 100

#: most digits of an integer read from text, here and by the CLI: ``int``
#: converts 640 under any ``-X int_max_str_digits``; a longer one is
#: refused before ``int`` sees it, and its digits are not echoed
_MAX_DIGITS = 640

#: most term pairs in one product that the parser forms, squarings behind
#: '^' included; a larger product is refused with ``ResourceCapError``
PRODUCT_CAP = 1 << 16


class ParseError(ValueError):
    """Input text rejected; ``message`` says why and ``position`` is the
    0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.message = message
        self.position = position


# one ASCII token per match: an integer, a name, an operator, or (last
# group) any other non-space character, which is refused; ``re`` compiles
# it on the first parse and keeps it in its own cache, so import does not
_TOKEN_PATTERN = r"([0-9]+)|([a-z][a-z0-9]*)|([-+*^()])|(\S)"
_TOKEN_KINDS = (None, "int", "name", "op")


def _capped_product(a: Polynomial, b: Polynomial) -> Polynomial:
    pairs = len(a.terms) * len(b.terms)
    if pairs > PRODUCT_CAP:
        raise ResourceCapError(f"a product of {pairs} term pairs exceeds "
                               f"the parser's cap of {PRODUCT_CAP}")
    return a * b


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in re.finditer(_TOKEN_PATTERN, text):
        if m.lastindex == 4:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastindex == 1 and len(m.group()) > _MAX_DIGITS:
            raise ParseError(f"integer of more than {_MAX_DIGITS} digits",
                             m.start())
        tokens.append((_TOKEN_KINDS[m.lastindex], m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: PolyRing):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring
        self.depth = 0                   # parentheses open at this point

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.take()

    def expr(self) -> Polynomial:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        result = self.term()
        if sign < 0:
            result = -result
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                nxt = self.term()
                result = result - nxt if val == "-" else result + nxt
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                result = _capped_product(result, self.factor())
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_, epos = self.peek()
            if ekind != "int":
                raise ParseError("exponent must be a nonnegative integer", epos)
            self.take()
            return _power(base, int(eval_), _capped_product)
        return base

    def atom(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind == "int":
            return self.ring.constant(int(val))
        if kind == "name":
            if val not in self.ring.names:
                raise ParseError(f"unknown variable {val!r}", pos)
            return self.ring.variable(val)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError("parentheses nested too deeply", pos)
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a variable, integer or '('", pos)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse grammar text into a canonical polynomial of the ring."""
    parser = _Parser(text, ring)
    result = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return result


def parse_polynomial_list(text: str, ring: PolyRing) -> list[Polynomial]:
    """Parse a comma-separated list of polynomials."""
    pieces = text.split(",")
    out = []
    offset = 0
    for piece in pieces:
        if not piece.strip():
            raise ParseError("empty polynomial in list", offset)
        try:
            out.append(parse_polynomial(piece, ring))
        except ParseError as exc:
            raise ParseError(exc.message, offset + exc.position) from None
        offset += len(piece) + 1
    return out
