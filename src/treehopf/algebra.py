"""Exact coefficient arithmetic and linear combinations of forests.

Coefficients live in the polynomial ring over Q generated by the
symbols ``q{i}{j}`` (``i`` in {1,2}, ``j`` a colour).  A coefficient
specification (:class:`QSpec`) pins each of the 2n symbols to either a
rational constant or a polynomial (usually the symbol itself).  The
engine in ``hopf`` runs at a point without denominators
(``QSpec.integral``) and computes on plain ``int`` values wherever a
value is a constant: ``_power`` of a constant entry is an ``int``, the
term dicts of Δ and S hold such values beside ``Coeff`` ones with
``int`` coefficients, and Python's operators mix the two.
``_extend_linearly``, the one exit of Δ and S, hands each value to the
memoised ``_box``, which divides it by the power of the point's
denominator that its term lost, so a ``Fraction`` first appears there,
and boxes it into a canonical ``Coeff``, one object per value and
process, so every public combination holds ``Coeff`` values only.

A monomial is one ``int`` packing the exponents of the 2n symbols in
fixed-width fields, so multiplying monomials is an integer addition;
values stay ``int`` until a denominator appears.  Terms are stored
unordered and sorted into canonical order (by degree, then by symbol)
only when printed, so equal coefficients always print identically.

Coefficients, elements and tensors share one text form, a signed sum:
``_signed_sum`` is the one term loop of all three grammars, and
``_signed`` the one sign rule of every printed sum.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import lcm
from operator import mul

from .trees import ColourMismatchError, EMPTY_FOREST, Forest, Scanner

# A monomial is one int: the exponent of q_{ij} sits in the _WIDTH-bit
# field at index 2(j-1) + (i-1), and the constant monomial is 0, so a
# monomial product is one integer addition.  The top bit of each field is
# a guard: every stored exponent is below EXPONENT_LIMIT, so adding two
# fields never carries into the next one, and a sum that sets a guard bit
# has overflowed.
_WIDTH = 32
_FIELD = (1 << _WIDTH) - 1
EXPONENT_LIMIT = 1 << (_WIDTH - 1)
# symbols q_{i1}..q_{i MAX_SYMBOL_COLOUR}; a symbol's field lies past all
# lower ones, so the colour bounds the size of a monomial
MAX_SYMBOL_COLOUR = 1024

# The guard bits of all 2 * MAX_SYMBOL_COLOUR fields.  ``m & _GUARD`` costs
# the length of the shorter operand, so a small monomial does not pay for
# the width of the mask.
_GUARD = EXPONENT_LIMIT * ((1 << (_WIDTH * 2 * MAX_SYMBOL_COLOUR)) - 1) // _FIELD


def _shift(i: int, j: int) -> int:
    """Bit offset of the field of q_{ij}."""
    if i not in (1, 2) or not 1 <= j <= MAX_SYMBOL_COLOUR:
        raise ValueError(
            f"no such coefficient symbol q{i}{j} (colours run 1..{MAX_SYMBOL_COLOUR})"
        )
    return _WIDTH * (2 * (j - 1) + (i - 1))


def _overflow():
    raise ValueError(f"a coefficient exponent reached the limit {EXPONENT_LIMIT}")


def _unpack(mono: int) -> tuple:
    """The ((i, j), exponent) pairs of a packed monomial, sorted by symbol."""
    pairs = []
    field = 0
    while mono:
        exp = mono & _FIELD
        if exp:
            pairs.append((((field & 1) + 1, (field >> 1) + 1), exp))
            mono >>= _WIDTH
            field += 1
        else:  # jump to the lowest set field, so a sparse monomial costs its length
            skip = ((mono & -mono).bit_length() - 1) // _WIDTH
            mono >>= _WIDTH * skip
            field += skip
    pairs.sort()
    return tuple(pairs)


def _norm(value):
    """An int for an integral value, else the Fraction."""
    return value.numerator if value.denominator == 1 else value


def _make(terms: dict) -> "Coeff":
    """Trusted constructor: ``terms`` maps packed monomials to nonzero
    int or (non-integral) Fraction values."""
    out = object.__new__(Coeff)
    out._t = terms
    return out


class Coeff:
    """A multivariate polynomial over Q in the q-symbols (immutable).

    The terms are a dict from packed monomial to nonzero value; a value
    is an ``int`` unless it has a denominator, then a ``Fraction``.
    """

    __slots__ = ("_t", "_hash")

    def __init__(self, terms: Mapping | Iterable = ()):
        """From (monomial, value) pairs or a mapping; a monomial is a
        tuple of ((i, j), exponent) pairs, and repeated monomials add up."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        total = _make({})
        for mono, value in items:
            part = Coeff.rational(value)
            for (i, j), e in mono:
                part = part * Coeff.variable(i, j) ** e
            total = total + part
        self._t = total._t

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value) -> "Coeff":
        if value.__class__ is not int:
            value = _norm(Fraction(value))
        return _make({0: value} if value else {})

    @classmethod
    def variable(cls, i: int, j: int) -> "Coeff":
        return _make({1 << _shift(i, j): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def is_rational(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and 0 in t)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational constant")
        return Fraction(self._t.get(0, 0))

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Coeff":
        if isinstance(value, Coeff):
            return value
        if isinstance(value, (int, Fraction)):
            return Coeff.rational(value)
        raise TypeError(f"cannot treat {value!r} as a coefficient")

    def __add__(self, other):
        if other.__class__ is not Coeff:
            if not isinstance(other, (int, Fraction)):
                other = self._coerce(other)
            elif not other:
                return self
            else:  # a plain number: straight into the constant term
                out = self._t.copy()
                v = out.pop(0, 0) + other
                if v:
                    out[0] = v if v.__class__ is int else _norm(v)
                return _make(out)
        a, b = self._t, other._t
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        for m, v in b.items():
            if m in out:
                v += out[m]
                if v:
                    out[m] = v if v.__class__ is int else _norm(v)
                else:
                    del out[m]
            else:
                out[m] = v
        return _make(out)

    __radd__ = __add__

    def __neg__(self):
        return _make({m: -v for m, v in self._t.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not Coeff:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return ZERO
            # a plain number scales the values; the monomials stay
            out = {}
            for m, v in self._t.items():
                v *= other
                out[m] = v if v.__class__ is int else _norm(v)
            return _make(out)
        a, b = self._t, other._t
        if len(a) == 1 and len(b) == 1:
            [(ma, va)] = a.items()
            [(mb, vb)] = b.items()
            m = ma + mb
            if m & _GUARD:
                _overflow()
            v = va * vb
            return _make({m: v if v.__class__ is int else _norm(v)})
        acc: dict = {}
        for ma, va in a.items():
            for mb, vb in b.items():
                m = ma + mb
                if m in acc:
                    acc[m] += va * vb
                else:
                    acc[m] = va * vb
        # checking the result's monomials suffices: the terms of top degree
        # in a symbol never cancel, so an overflowed field always survives
        guard = _GUARD
        out = {}
        for m, v in acc.items():
            if v:
                if m & guard:
                    _overflow()
                out[m] = v if v.__class__ is int else _norm(v)
        return _make(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not exponent:
            return ONE
        # square up to the lowest set bit, which starts the product
        base = self
        while not exponent & 1:
            base = base * base
            exponent >>= 1
        out = base
        while exponent := exponent >> 1:
            base = base * base
            if exponent & 1:
                out = out * base
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * Coeff.rational(1 / other.as_fraction())

    def substitute(self, values: Mapping[tuple[int, int], "Coeff | Fraction | int"]) -> "Coeff":
        """Replace the listed symbols; symbols not mentioned stay symbolic.

        Each term keeps the fields of its unlisted symbols and is
        multiplied by the memoised powers of the listed values; the terms
        are summed in one dict.
        """
        if not values:
            return self
        table = {sym: self._coerce(v) for sym, v in values.items()}
        acc: dict = {}
        for mono, value in self._t.items():
            kept = 0
            part = _make({0: value})
            for sym, exp in _unpack(mono):
                factor = table.get(sym)
                if factor is None:
                    kept += exp << _shift(*sym)
                else:
                    part = part * _power(factor, exp)
            for m, v in part._t.items():
                m += kept
                if m & _GUARD:  # a listed value shares a symbol with the kept fields
                    _overflow()
                acc[m] = acc[m] + v if m in acc else v
        return _make({m: _norm(v) for m, v in acc.items() if v})

    # -- ordering / hashing / printing --------------------------------------

    @property
    def terms(self) -> tuple:
        """The (monomial, value) pairs in canonical order: by degree, then
        by the monomial's ((i, j), exponent) pairs sorted by symbol."""
        keyed = []
        for mono, value in self._t.items():
            pairs = _unpack(mono)
            keyed.append((sum(e for _, e in pairs), pairs, value))
        keyed.sort(key=lambda k: k[:2])
        return tuple((pairs, value) for _, pairs, value in keyed)

    def __eq__(self, other):
        # the class test first: Fraction's ABC check costs a third of the call
        if other.__class__ is not Coeff:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            t = self._t
            return len(t) == 1 and t.get(0) == other if other else not t
        return self._t == other._t

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            t = self._t
            # a constant hashes as the number it equals, as ``__eq__`` compares
            self._hash = hash(t.get(0, 0)) if self.is_rational() else hash(frozenset(t.items()))
            return self._hash

    def __str__(self):
        t = self._t
        if len(t) == 1 and 0 in t:  # a constant prints as its value
            return str(t[0])
        return _signed([(value, _format_monomial(mono, value)) for mono, value in self.terms])

    def __repr__(self):
        return f"Coeff({self})"


def _format_monomial(mono: tuple, value) -> str:
    mag = abs(value)
    factors = [f"q{i}{j}" + (f"^{e}" if e > 1 else "") for (i, j), e in mono]
    if not factors:
        return str(mag)
    if mag != 1:
        factors.insert(0, str(mag))
    return "*".join(factors)


def _signed(pieces) -> str:
    """The one sign rule of a printed sum: the texts of the (value, text)
    pieces joined by `` + `` or, before a negative value, `` - ``; a
    negative first piece is led by ``-``, and no pieces print ``0``."""
    out = []
    for value, text in pieces:
        if out:
            out.append(" - " if value < 0 else " + ")
        elif value < 0:
            out.append("-")
        out.append(text)
    return "".join(out) or "0"


ZERO = Coeff()
ONE = Coeff.rational(1)


def _scan_rational(sc: Scanner) -> Fraction:
    num = sc.integer()
    save = sc.pos
    sc.skip_ws()
    if sc.try_take("/"):
        sc.skip_ws()
        at = sc.pos
        den = sc.integer()
        if not den:
            sc.pos = at
            raise sc.error("zero denominator")
        return Fraction(num, den)
    sc.pos = save
    return Fraction(num)


def _scan_symbol(sc: Scanner) -> tuple[int, int]:
    sc.expect("q")
    digits = sc.pos
    code = sc.integer()
    text = sc.text[digits:sc.pos]
    i = int(text[0])
    if i not in (1, 2) or len(text) < 2:
        raise sc.error(f"bad coefficient symbol q{code}")
    return (i, int(text[1:]))


def _scan_monomial(sc: Scanner) -> Coeff:
    """One signless monomial: rational and/or '*'-joined q-symbol powers."""
    out = ONE
    first = True
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == "q":
            sym = _scan_symbol(sc)
            exp = 1
            if sc.try_take("^"):
                at = sc.pos
                exp = sc.integer()
                if exp >= EXPONENT_LIMIT:
                    sc.pos = at
                    raise sc.error(f"exponent at or over the limit {EXPONENT_LIMIT}")
            out = out * Coeff.variable(*sym) ** exp
        elif ch.isdigit() and first:
            out = out * Coeff.rational(_scan_rational(sc))
        else:
            raise sc.error("expected a coefficient factor")
        first = False
        save = sc.pos
        sc.skip_ws()
        if not sc.try_take("*"):
            sc.pos = save
            return out
        after = sc.pos
        sc.skip_ws()
        if sc.peek() != "q":  # the '*' belonged to a forest, back out
            sc.pos = save
            return out
        sc.pos = after


def parse_coeff(text: str) -> Coeff:
    """Parse a polynomial coefficient, e.g. ``2/3*q11^2*q22 - q21``."""
    return _signed_sum(text, 0, lambda sc, n: (_scan_monomial(sc), 0)).get(0, ZERO)


# ---------------------------------------------------------------------------
# coefficient specifications
# ---------------------------------------------------------------------------

def _rational_entry(word: str) -> Fraction:
    """``Fraction(word)``, but a zero mantissa reads as 0 and a nonzero one
    is refused when its exponent passes the digit limit of int printing by
    more than its digit count, before ten is raised to the exponent."""
    m = re.fullmatch(r"(.*)e([-+]?\d+(?:_\d+)*)", word, re.IGNORECASE)  # Fraction's exponent
    try:
        mantissa = m and Fraction(m[1] + "e0")
    except ValueError:  # not a decimal: Fraction(word) names the fault
        return Fraction(word)
    if m:
        exponent = int(m[2])
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (before 3.10.7)
        if not mantissa:
            return mantissa
        if limit and abs(exponent) > limit + sum(map(str.isdecimal, m[1])):
            raise ValueError(f"the decimal exponent would print over {limit} digits")
    return Fraction(word)


def _symbolic_limit_error(n: int) -> ValueError:
    """The refusal of a symbolic ``--q`` entry for a colour of ``--n n``
    past ``MAX_SYMBOL_COLOUR``."""
    return ValueError(
        f"--n {n} is over the {MAX_SYMBOL_COLOUR}-colour limit of symbolic "
        f"--q entries; give rational entries for colours past {MAX_SYMBOL_COLOUR}"
    )


@dataclass(frozen=True)
class QSpec:
    """Values of the 2n coefficient symbols: row 1 then row 2, colours 1..n."""

    n: int
    entries: tuple[Coeff, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.entries) != 2 * self.n:
            raise ValueError(f"need exactly {2 * self.n} entries for n = {self.n}")
        # hashed once: every memo lookup keyed on a parameter point hashes it
        object.__setattr__(self, "_hash", hash((self.n, self.entries)))

    def __hash__(self):
        return self._hash

    def q(self, i: int, j: int) -> Coeff:
        if i not in (1, 2) or not 1 <= j <= self.n:
            raise ValueError(f"q{i}{j} is outside the 2x{self.n} specification")
        return self.entries[(i - 1) * self.n + (j - 1)]

    @classmethod
    def symbolic(cls, n: int) -> "QSpec":
        return cls(n, tuple(Coeff.variable(i, j) for i in (1, 2) for j in range(1, n + 1)))

    @classmethod
    def rational(cls, n: int, values: Sequence) -> "QSpec":
        return cls(n, tuple(Coeff.rational(v) for v in values))

    @classmethod
    def connes_kreimer(cls) -> "QSpec":
        """n = 1, q11 = 1, q21 = 0: the Connes-Kreimer coproduct."""
        return cls.rational(1, (1, 0))

    @classmethod
    def indicator(cls, n: int, p: Iterable[int]) -> "QSpec":
        """Row 1 is the indicator of the colour set p, row 2 is zero."""
        chosen = set(p)
        if not chosen <= set(range(1, n + 1)):
            raise ValueError(f"colour set {sorted(chosen)} not within 1..{n}")
        row1 = [Coeff.rational(1 if j in chosen else 0) for j in range(1, n + 1)]
        return cls(n, tuple(row1) + tuple(ZERO for _ in range(n)))

    @classmethod
    def symmetric_symbolic(cls, n: int) -> "QSpec":
        """Both rows share one symbol per colour (forces cocommutativity)."""
        row = tuple(Coeff.variable(1, j) for j in range(1, n + 1))
        return cls(n, row + row)

    @classmethod
    def from_strings(cls, n: int, words: Sequence[str]) -> "QSpec":
        """CLI form: 2n comma-split entries, each a rational or ``sym``; a bad
        entry raises ``ValueError`` naming it."""
        if len(words) != 2 * n:
            raise ValueError(f"--q needs {2 * n} entries for n = {n}, got {len(words)}")
        entries = []
        for pos, word in enumerate(words):
            i, j = divmod(pos, n)
            word = word.strip()
            name = f"--q entry q{i + 1}{j + 1} = {word!r}"
            if word == "sym":
                if j >= MAX_SYMBOL_COLOUR:
                    raise _symbolic_limit_error(n)
                entries.append(Coeff.variable(i + 1, j + 1))
                continue
            try:
                value = _rational_entry(word)
                str(value)  # the output prints every entry
            except ZeroDivisionError:
                raise ValueError(f"{name} has a zero denominator") from None
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            entries.append(Coeff.rational(value))
        return cls(n, tuple(entries))

    def is_rational(self) -> bool:
        return all(e.is_rational() for e in self.entries)

    def integral(self) -> "tuple[int, QSpec]":
        """``(D, D·q)``: D is the least common multiple of the denominators
        of every coefficient of every entry, constant or not, and D·q the
        point with every entry multiplied by D; a point without
        denominators gives ``(1, self)``.

        Computed on the first call and kept on this value, as ``_hash``
        is: a field of an immutable value, not a memo.
        """
        try:
            return self._integral
        except AttributeError:
            pass
        scale = lcm(*(v.denominator for e in self.entries for v in e._t.values()))
        point = QSpec(self.n, tuple(e * scale for e in self.entries)) if scale > 1 else self
        object.__setattr__(self, "_integral", (scale, point))
        return self._integral


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------


def _acc(store: dict, key, coeff):
    """Add ``coeff`` to the term ``key`` of a term dict, dropping it at zero.

    The value is a ``Coeff`` or, in the engine of ``hopf``, a plain
    ``int`` (a ``Fraction`` only on the route of a caller's Δ); the two
    add through Python's operators and either is zero exactly when it is
    false.
    """
    prev = store.get(key)
    total = coeff if prev is None else prev + coeff
    if total:
        store[key] = total
    else:
        store.pop(key, None)


class Combination:
    """Shared plumbing for finite linear combinations over a hashable basis.

    A subclass names its basis-key type ``_key_type`` and the word for one
    key, ``_noun``; such keys carry ``max_colour`` and ``sort_key``.
    Subclasses with other keys override ``_check_key`` and
    ``_term_sort_key``.
    """

    _key_type: type
    _noun: str

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: Mapping | Iterable = ()):
        items = data.items() if isinstance(data, Mapping) else data
        store: dict = {}
        for key, coeff in items:
            coeff = Coeff._coerce(coeff)
            if coeff.is_zero():
                continue
            self._check_key(key, n)
            _acc(store, key, coeff)
        self.n = n
        self.data = store

    @classmethod
    def _adopt(cls, n: int, data: dict):
        """Trusted constructor: ``data`` is a term dict built from checked
        keys over ``n`` with zero coefficients dropped (as ``_acc`` does)."""
        out = cls.__new__(cls)
        out.n = n
        out.data = data
        return out

    def _check_key(self, key, n):
        if not isinstance(key, self._key_type):
            raise TypeError(f"{type(self).__name__} keys must be {self._noun}s, got {key!r}")
        if key.max_colour > n:
            raise ColourMismatchError(
                f"{self._noun} {key} uses colour {key.max_colour} > n = {n}"
            )

    @staticmethod
    def _term_sort_key(key):
        return key.sort_key()

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def basis(cls, key, n: int):
        return cls(n, {key: ONE})

    # -- vector-space structure ---------------------------------------------

    def _require_compatible(self, other):
        if type(other) is not type(self) or other.n != self.n:
            raise ValueError(
                f"cannot combine {type(self).__name__} over n={self.n} "
                f"with {type(other).__name__} over n={getattr(other, 'n', '?')}"
            )

    def __add__(self, other):
        self._require_compatible(other)
        return type(self)(self.n, list(self.data.items()) + list(other.data.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.n, ((k, -c) for k, c in self.data.items()))

    def scale(self, factor):
        factor = Coeff._coerce(factor)
        return type(self)(self.n, ((k, c * factor) for k, c in self.data.items()))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Coeff)):
            return self.scale(other)
        return NotImplemented

    def coefficient(self, key) -> Coeff:
        return self.data.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.data

    def terms(self):
        """Deterministically ordered (key, coefficient) pairs."""
        return sorted(self.data.items(), key=lambda kv: self._term_sort_key(kv[0]))

    def support(self):
        return [k for k, _ in self.terms()]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.data == other.data

    def __hash__(self):
        return hash((self.n, tuple(self.terms())))

    def __len__(self):
        return len(self.data)

    def __str__(self):
        return _format_terms(self.terms(), str)

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {self})"


class Element(Combination):
    """An element of the free algebra on trees: a finite Q[q]-linear
    combination of basis monomials.

    Here the monomials are forests and the algebra is commutative; the
    subclass ``PlanarElement`` takes planar words, multiplied in order.
    """

    _key_type = Forest
    _noun = "forest"

    @classmethod
    def unit(cls, n: int):
        return cls(n, {cls._key_type(): ONE})

    def __mul__(self, other):
        # the class test first: Fraction's ABC check is the slow one
        if other.__class__ is not self.__class__ and isinstance(other, (int, Fraction, Coeff)):
            return self.scale(other)
        self._require_compatible(other)
        acc: dict = {}
        for fa, ca in self.data.items():
            for fb, cb in other.data.items():
                _acc(acc, fa * fb, ca * cb)
        return self._adopt(self.n, acc)

    def counit(self) -> Coeff:
        return self.coefficient(self._key_type())

    def graded_part(self, degree: int):
        return type(self)(self.n, {f: c for f, c in self.data.items() if f.size == degree})

    def max_degree(self) -> int:
        return max((f.size for f in self.data), default=0)


class TensorElement(Combination):
    """A finite combination of monomial pairs (two-fold tensors) over the
    basis of ``_element``: forest pairs here, word pairs in
    ``PlanarTensorElement``."""

    _element = Element

    def _check_key(self, key, n):
        monomial = self._element._key_type
        if not (
            isinstance(key, tuple)
            and len(key) == 2
            and isinstance(key[0], monomial)
            and isinstance(key[1], monomial)
        ):
            raise TypeError(f"{type(self).__name__} keys must be {self._element._noun} pairs")
        if max(key[0].max_colour, key[1].max_colour) > n:
            raise ColourMismatchError(f"tensor {key} uses a colour > n = {n}")

    @staticmethod
    def _term_sort_key(key):
        return (key[0].sort_key(), key[1].sort_key())

    @classmethod
    def unit(cls, n: int):
        empty = cls._element._key_type()
        return cls(n, {(empty, empty): ONE})

    def __mul__(self, other):
        if other.__class__ is not self.__class__ and isinstance(other, (int, Fraction, Coeff)):
            return self.scale(other)
        self._require_compatible(other)
        acc: dict = {}
        for (la, ra), ca in self.data.items():
            for (lb, rb), cb in other.data.items():
                _acc(acc, (la * lb, ra * rb), ca * cb)
        return self._adopt(self.n, acc)

    def swap(self):
        return type(self)(self.n, (((r, l), c) for (l, r), c in self.data.items()))

    def left_counit(self) -> Element:
        """Apply the counit to the left leg."""
        return self._element(
            self.n,
            ((r, c) for (l, r), c in self.data.items() if l.is_empty()),
        )

    def right_counit(self) -> Element:
        return self._element(
            self.n,
            ((l, c) for (l, r), c in self.data.items() if r.is_empty()),
        )

    def __str__(self):
        return _format_terms(self.terms(), lambda k: f"{k[0]} ⊗ {k[1]}")


def _format_terms(terms, key_str) -> str:
    """Shared element printer: one monomial per printed term, a unit
    coefficient left out."""
    pieces = []
    for key, coeff in terms:
        t = coeff._t
        # a constant: nothing to unpack or sort
        for mono, value in (((), t[0]),) if len(t) == 1 and 0 in t else coeff.terms:
            body = _format_monomial(mono, value)
            pieces.append((value, key_str(key) if body == "1" else f"{body} {key_str(key)}"))
    return _signed(pieces)


# ---------------------------------------------------------------------------
# structure maps
# ---------------------------------------------------------------------------


@cache
def _power(q: Coeff, k: int):
    """``q ** k``, memoised: the q-weights of σ, of the root-constructor
    square and of the dual product all read this one memo.

    A constant ``q`` gives a plain number (0^0 = 1, as for ``Coeff``):
    this is where constants enter the engine, which computes on them as
    plain numbers.  The engine's points have no denominators, so there it
    is an ``int``; a ``Fraction`` comes out only for a caller at a point
    with denominators (``sigma``, ``Coeff.substitute``, or the route of a
    caller's Δ in ``hopf``).
    """
    if q.is_rational():
        v = q._t.get(0, 0) ** k
        return v if v.__class__ is int else _norm(v)
    return q ** k


@cache
def _box(c, d: int) -> Coeff:
    """The canonical ``Coeff`` of the engine value ``c`` divided by ``d``.

    ``d`` = 1 boxes a plain number; ``d`` = D^e divides an ``int``, or a
    ``Coeff`` with ``int`` coefficients, by the power of D that its term
    lost (see ``_extend_linearly``).  This is the exit's one boxing rule
    and its one division by a power of D.

    Memoised, so equal values leave Δ and S as one object per process and
    a repeated Δ or S reads its divided values back.  A number is reduced
    before it is boxed, so (2, 4) and (1, 2) give one box.  A constant
    ``Coeff`` hashes and compares as its number, so it shares that
    number's memo key and is boxed as the number.
    """
    if c.__class__ is Coeff:
        if not c.is_rational():
            return c * Fraction(1, d) if d > 1 else c
        c = c._t.get(0, 0)
    v = Fraction(c, d)
    if v.numerator != c or v.denominator != d:
        return _box(v.numerator, v.denominator)
    return _make({0: _norm(v)} if v else {})


def _extend_linearly(a, basis_fn, cls, scale: int = 1):
    """The ``cls`` combination Σ c·basis_fn(k) over the terms c·k of ``a``.

    This is the one exit of Δ and S to callers: every plain value of the
    engine leaves boxed by ``_box``, so every public combination holds
    ``Coeff`` values only.  A ``scale`` D > 1 says that ``basis_fn`` is Δ
    or S computed at the point D·q for a caller at q (see the ``hopf``
    docstring): the value c of the term k in ``basis_fn(f)`` is then
    ``_box(c, D^e)``, where e = P(f) − P(k) is the drop in the ``paths``
    count from f to k, the sum over both legs for a pair.
    """
    pairs = issubclass(cls, TensorElement)
    out: dict = {}
    for key, coeff in a.data.items():
        one = coeff == ONE
        terms = basis_fn(key).data.items()
        if scale == 1:
            for k, c in terms:
                _acc(out, k, c if one else c * coeff)
            continue
        top = key.paths
        powers = [scale**e for e in range(top + 1)]
        for k, c in terms:
            c = _box(c, powers[top - (k[0].paths + k[1].paths if pairs else k.paths)])
            _acc(out, k, c if one else c * coeff)
    for k, c in out.items():
        if c.__class__ is not Coeff:
            out[k] = _box(c, 1)
    return cls._adopt(a.n, out)


def _check_entry(basis, a, n: int):
    """Refuse ``a`` unless it is a ``basis`` element over the context's ``n``:
    the other variant raises ``TypeError``, another n
    ``ColourMismatchError``."""
    if getattr(a, "_key_type", None) is not basis.monomial:
        raise TypeError(f"expected a {basis.element.__name__}, got a {type(a).__name__}")
    if a.n != n:
        raise ColourMismatchError(f"element over n={a.n} used with a context over n={n}")


def _graded(a, q: Coeff):
    """``a`` with each term multiplied by ``q`` to the term's size; the size
    of a monomial pair is the total size of its two legs."""
    pairs = isinstance(a, TensorElement)
    out = {}
    for key, c in a.data.items():
        w = c * _power(q, key[0].size + key[1].size if pairs else key.size)
        if w:
            out[key] = w
    return a._adopt(a.n, out)


def sigma(side: int, qspec: QSpec, slots: Sequence[Element]) -> Element:
    """The q-scaled product map for the given row (1 or 2).

    The product of the slots in slot order, slot j graded by
    ``q(side, j)``: on basis forests, their product weighted by
    Π_j q(side, j)^{|slot j|}, extended multilinearly.
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    n = qspec.n
    if len(slots) != n:
        raise ValueError(f"sigma needs {n} slot arguments, got {len(slots)}")
    for s in slots:
        if s.n != n:
            raise ValueError("slot elements must live over the same n")
    graded = (_graded(s, qspec.q(side, j)) for j, s in enumerate(slots, start=1))
    return reduce(mul, graded, Element.unit(n))


# ---------------------------------------------------------------------------
# basis variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Basis:
    """One basis of the free algebra on n-coloured trees, as the shared
    engine in ``hopf`` and ``prelie`` and the subset sum of ``oracles`` read it.

    Two instances: ``_FORESTS`` (commutative forests, below) and
    ``_WORDS`` (ordered planar words, in ``planar``).  Δ, S, the dual
    product and the verifier are written once over this record; the root
    constructor, the enumerations and the product rule are read off the
    monomial class through the generic functions of ``trees``.
    """

    monomial: type  # trees -> monomial; ``.trees`` lists them in product order
    element: type  # combinations of monomials
    tensor: type  # combinations of monomial pairs


_FORESTS = _Basis(monomial=Forest, element=Element, tensor=TensorElement)


def _signed_sum(text: str, n: int, scan) -> dict:
    """The one term loop of the coefficient, element and tensor grammars:
    signed terms joined by ``+``/``-``, each read by ``scan(sc, n)`` as a
    (coefficient, key) pair, summed into one term dict; a lone ``0`` is
    the empty sum."""
    if text.strip() == "0":
        return {}
    sc = Scanner(text)
    out: dict = {}
    sc.skip_ws()
    sign = -1 if sc.try_take("-") else 1
    while True:
        coeff, key = scan(sc, n)
        _acc(out, key, coeff * sign)
        sc.skip_ws()
        if sc.try_take("+"):
            sign = 1
        elif sc.try_take("-"):
            sign = -1
        else:
            sc.check_done()
            return out


def parse_element(text: str, n: int) -> Element:
    """Parse ``coef forest (+|-) ...``; omitted coefficients default to 1."""
    return Element(n, _signed_sum(text, n, _scan_term))


def _scan_term(sc: Scanner, n: int) -> tuple[Coeff, Forest]:
    """One signless term: an optional coefficient monomial, read once, then
    a forest; the cases of a digit-led one go by its text, not its value."""
    sc.skip_ws()
    ch = sc.peek()
    if ch == "[":
        return ONE, sc.monomial(n)
    if ch != "q" and not ch.isdigit():
        raise sc.error("expected a term")
    start = sc.pos
    coeff = _scan_monomial(sc)
    end = sc.pos
    read = sc.text[start:end]
    sc.skip_ws()
    if "q" in read or sc.peek() in ("[", "1"):
        return coeff, sc.monomial(n)
    if sc.peek() == "*":  # a bare rational's '*' with no symbol after it
        sc.pos = end
        raise sc.error("expected a coefficient symbol after '*'")
    if read == "1":  # a lone "1" is the empty forest, not a coefficient
        return ONE, EMPTY_FOREST
    raise sc.error("expected a forest after the coefficient")


def parse_tensor(text: str, n: int) -> TensorElement:
    """Parse ``coef forest ⊗ forest (+|-) ...`` (``(x)`` accepted for ``⊗``)."""
    return TensorElement(n, _signed_sum(text, n, _scan_tensor_term))


def _scan_tensor_term(sc: Scanner, n: int) -> tuple[Coeff, tuple[Forest, Forest]]:
    """One signless tensor term: a term, ``⊗``, then the right forest."""
    coeff, left = _scan_term(sc, n)
    sc.skip_ws()
    if not sc.try_take("⊗"):
        sc.expect("(x)")
    sc.skip_ws()
    return coeff, (left, sc.monomial(n))
