"""Minimal exact-arithmetic expression kernel.

Expression trees are immutable: rational constants, named variables,
flattened sums and products, powers, quotients and the elementary
functions exp, log, sin, cos, sqrt.  Nodes are interned, so equal trees
are one object and equality is identity.  Constants stay exact, each in
one canonical form: an int when integral, else a fractions.Fraction with
denominator > 1 (`_ratio` divides two of them).  Floating point enters
only in the functions that `compile_exprs` generates, the one evaluator:
plain float operations, a quotient as `/`, a power as `**` (through
`_guard_pow`, which adds its domain errors, unless the exponent is a whole
number 0..16, which has none), and, in a function that divides or takes a
sine or cosine, one handler that turns a division by zero or sin or cos
of inf into EvalDomainError; a power or exp beyond the float range raises
the OverflowError of `**` or `math.exp`.  A negation is a rational
coefficient: `-x` is the product `-1*x`.  Inside a `simplify_memo()`
scope normal forms, normalizer steps, derivatives, zero-test verdicts and
sample point sets are remembered; `simplify` and `differentiate` open a
scope of their own when none is open.  Generated code is kept per tree
for as long as the tree lives (`generated`), in and out of any scope.

Zero testing is two-tier: `simplify` normalizes (constant folding,
like-term collection, bounded expansion) and an expression is *proven*
zero only when the normal form is the literal zero constant; everything
else is decided by seeded random sampling over a domain box.  A check
of the other modules returns its labelled verdicts as one `Verdicts`.
"""

from __future__ import annotations

import math
import random
import re
import threading
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence
from _weakref import _remove_dead_weakref

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")

class ParseError(ValueError):
    """Syntax error with the character offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Real evaluation left its domain (log/sqrt/division/power)."""


class SamplingError(RuntimeError):
    """Too many sample points were rejected during zero testing: they hit
    domain errors, overflowed, or gave a non-finite residual.  `subexpr` is
    the innermost failing subterm when some hit a domain error."""

    def __init__(self, message: str, subexpr: Optional["Expr"] = None):
        super().__init__(message)
        self.subexpr = subexpr


# --------------------------------------------------------------------------
# tree nodes
# --------------------------------------------------------------------------

class Expr:
    """Base class of the immutable expression nodes.

    Nodes are interned: every constructor call goes through one weak-value
    table, keyed by the node's class and fields with the child nodes
    themselves, so there is exactly one live node per structural value and
    structural equality is identity: `==` and `hash` are object's, so a
    dict lookup on a node, or on a key of nodes, makes no Python call, and
    building a node that exists is one lookup.  Every node caches its
    free-variable set and sort key, computed on first use; no other slot
    holds a node.  pickle and copy hand back the interned node."""

    __slots__ = ("_fv", "_sk", "__weakref__")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which re-interns
        return type(self), tuple(getattr(self, s) for s in type(self).__slots__)

    def __add__(self, other):
        return add(self, coerce(other))

    def __radd__(self, other):
        return add(coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(coerce(other)))

    def __rsub__(self, other):
        return add(coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, coerce(other))

    def __rmul__(self, other):
        return mul(coerce(other), self)

    def __truediv__(self, other):
        return div(self, coerce(other))

    def __rtruediv__(self, other):
        return div(coerce(other), self)

    def __pow__(self, other):
        return Power(self, coerce(other))

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return f"<{type(self).__name__} {format_expr(self)!r}>"


_new = object.__new__
_put_fv = Expr._fv.__set__   # the cache slots' setters, past the immutability guard
_put_sk = Expr._sk.__set__


class Record:
    """Base class of the immutable value records: settings, verdicts,
    reports and what a problem file describes.  A record's fields are the
    `__slots__` of its classes, base first; each class's `__init__` takes
    them with their defaults and checks and stores them, in field order,
    with `Record.__init__(self, *values)`.  Unlike a node, a record is not
    interned: `==` and `hash` go by field, between records of one class (so
    a dict or array field makes it unhashable), as does the repr."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__["__slots__"]
        cls._puts = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *values):
        for put, value in zip(self._puts, values, strict=True):
            put(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} records are immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy store the fields as they are, past __init__
        return _new, (type(self),), self._values()

    def __setstate__(self, values):
        Record.__init__(self, *values)


# The intern table maps a node's key to a weak reference to the one live node
# with that key.  The key is the node's class and fields and holds the very
# children the node holds: (class, parts) for a sum or product, with the
# tuple the node stores, (class, a, b) for a power or quotient, (class, name,
# arg) for a function, so it hashes and compares by identity with no Python
# call.  A child lives as long as its parent, and the entry goes as its node
# dies, so a key holds no node longer than the node would be held anyway.  A
# hit is one lookup; a miss publishes under the lock, so threads racing to
# build the same node all get the first one published.
_TABLE: dict = {}
_LOCK = threading.Lock()


class _Ref(weakref.ref):
    """The table's reference to a node, carrying its key.  It is the node's
    `__weakref__`, so its module is weakref's, as KeyedRef's is: perfbench's
    node counter takes each type of this module for a node."""
    __slots__ = ("key",)
    __module__ = weakref.__name__


def _forget(r, _table=_TABLE, _remove=_remove_dead_weakref):
    _remove(_table, r.key)  # only if no live node took the key since


def _intern(key, cls, *values) -> Expr:
    """A new node of class cls with fields values, published under key; if
    another thread published a node under key first, that node instead."""
    e = _new(cls)
    for put, v in zip(cls._puts, values):
        put(e, v)
    _put_sk(e, None)
    with _LOCK:
        r = _TABLE.get(key)
        first = r and r()
        if first:
            return first
        r = _TABLE[key] = _Ref(e, _forget)
        r.key = key
    return e


# Largest numerator or denominator, in bits, of a constant: below Python's
# 4,300-digit limit on int to text (14,284 bits), so every constant prints
# and sorts.  Building a larger one raises ValueError; `simplify` folds an
# integer power (a/b)^k only when |k| * bits(max(|a|, b)) is within it, so
# a larger power stays a Power of two constants, which keeps its value.
MAX_CONST_BITS = 14_000


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        # the canonical rational: an int when integral, else a Fraction
        if type(value) is not int:
            if not isinstance(value, Fraction):
                value = Fraction(value)
            if value.denominator == 1:
                value = value.numerator
        key = (cls, value.numerator, value.denominator)
        r = _TABLE.get(key)
        if r is None and max(key[1].bit_length(), key[2].bit_length()) > MAX_CONST_BITS:
            raise ValueError(f"constant beyond the limit of {MAX_CONST_BITS} bits")
        return r and r() or _intern(key, cls, value)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        r = _TABLE.get(key)
        return r and r() or _intern(key, cls, name)


class _Flat(Expr):
    __slots__ = ()  # a Sum or Product of a tuple of two or more nodes

    def __new__(cls, parts: tuple):
        assert len(parts) >= 2
        key = (cls, parts)
        r = _TABLE.get(key)
        return r and r() or _intern(key, cls, parts)


class Sum(_Flat):
    __slots__ = ("terms",)


class Product(_Flat):
    __slots__ = ("factors",)


class _Pair(Expr):
    __slots__ = ()  # a Power or Quotient of two nodes

    def __new__(cls, a: Expr, b: Expr):
        key = (cls, a, b)
        r = _TABLE.get(key)
        return r and r() or _intern(key, cls, a, b)


class Power(_Pair):
    __slots__ = ("base", "exponent")


class Quotient(_Pair):
    __slots__ = ("numerator", "denominator")


class Func(Expr):
    __slots__ = ("name", "arg")

    def __new__(cls, name: str, arg: Expr):
        assert name in FUNCTIONS
        key = (cls, name, arg)
        r = _TABLE.get(key)
        return r and r() or _intern(key, cls, name, arg)


# each node class's field setters, in the order of its constructor's arguments
for _cls in (Const, Var, Sum, Product, Power, Quotient, Func):
    _cls._puts = tuple(getattr(_cls, s).__set__ for s in _cls.__slots__)


_KIDS = {
    Sum: lambda e: e.terms,
    Product: lambda e: e.factors,
    Power: lambda e: (e.base, e.exponent),
    Quotient: lambda e: (e.numerator, e.denominator),
    Func: lambda e: (e.arg,),
}

ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)
# normal form of all that is undefined everywhere (x/0, log(0), sqrt(-1), ...);
# it absorbs every node it enters, so no zero factor or cancellation drops it
UNDEFINED = Quotient(ZERO, ZERO)


def _ratio(a, b):
    """a / b for rationals a and b != 0, exactly and in Const's canonical
    form; `/` on two ints would give a float."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _undefined(e: Expr) -> bool:
    return type(e) is Quotient and e.denominator == ZERO


def coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(v)
    if isinstance(v, float):
        # decimal reading of the literal, not the binary float
        return Const(Fraction(str(v)))
    raise TypeError(f"cannot use {type(v).__name__} as an expression")


# --------------------------------------------------------------------------
# smart constructors: flattening and the cheap folds the parser relies on
# --------------------------------------------------------------------------

def add(*parts: Expr) -> Expr:
    flat = []
    for p in parts:
        if type(p) is Sum:
            flat.extend(p.terms)
        else:
            flat.append(p)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*parts: Expr) -> Expr:
    flat = []
    for p in parts:
        if type(p) is Product:
            flat.extend(p.factors)
        else:
            flat.append(p)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Product) and isinstance(e.factors[0], Const):
        c = Const(-e.factors[0].value)
        rest = e.factors[1:]
        if c.value == 1 and len(rest) == 1:
            return rest[0]
        if c.value == 1:
            return Product(rest)
        return Product((c,) + rest)
    if isinstance(e, Quotient):
        return Quotient(neg(e.numerator), e.denominator)
    return mul(MINUS_ONE, e)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value != 0:
        if isinstance(a, Const):
            return Const(_ratio(a.value, b.value))
        if b.value == 1:
            return a
        return mul(Const(_ratio(1, b.value)), a)
    return Quotient(a, b)


_NO_VARS = frozenset()


def free_vars(e: Expr) -> frozenset:
    try:
        return e._fv
    except AttributeError:
        pass
    t = type(e)
    if t is Var:
        out = frozenset((e.name,))
    elif t is Const:
        out = _NO_VARS
    elif t in _KIDS:
        # share a child's set when it holds all the others, as it mostly does
        out = _NO_VARS
        for k in _KIDS[t](e):
            fk = free_vars(k)
            if not fk <= out:
                out = fk if out <= fk else out | fk
    else:
        raise TypeError(t)
    _put_fv(e, out)
    return out


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*|\+|-|/|\^|\(|\))"
)

_ADD_PREC = 10
_MUL_PREC = 20
_POW_PREC = 30

# Deepest nesting `parse` accepts, of parentheses and operators in the text
# and of the tree it builds.  Python refuses generated source nested 200
# levels deep, so `compile_exprs` handles trees up to 199 levels; the
# recursive passes (simplify, differentiate, format_expr) handle about 400.
# Half of the compiler's limit leaves room for derivatives and normal forms.
MAX_NESTING = 100

# Most digits in a part of a number literal (Python's limit on text to int) and
# largest |exponent|: a nonzero literal beyond either is refused unbuilt, as it
# is past MAX_CONST_BITS or Python's limit.
MAX_LITERAL_DIGITS = 4_300
MAX_LITERAL_EXPONENT = MAX_LITERAL_DIGITS + math.ceil(MAX_CONST_BITS / math.log2(10))

# Most sample points a zero test may ask for: the sampling tier builds its
# whole point set at once, and 100,000 is 500 times the most any caller uses.
MAX_SAMPLES = 100_000


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        n = len(text)
        while pos < n:
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", n))
        self.i = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, op: str):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    def parse(self) -> Expr:
        e = self.expression(0)
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def expression(self, rbp: int) -> Expr:
        self.level += 1
        if self.level > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.peek()[2])
        left = self.nud()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-*/^":
                break
            lbp = {"+": _ADD_PREC, "-": _ADD_PREC,
                   "*": _MUL_PREC, "/": _MUL_PREC, "^": _POW_PREC}[val]
            if lbp <= rbp:
                break
            self.next()
            if val == "+":
                left = add(left, self.expression(lbp))
            elif val == "-":
                left = add(left, neg(self.expression(lbp)))
            elif val == "*":
                left = mul(left, self.expression(lbp))
            elif val == "/":
                left = div(left, self.expression(lbp))
            else:  # right-associative power
                left = Power(left, self.expression(lbp - 1))
        self.level -= 1
        return left

    def nud(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            mantissa, _, exponent = val.lower().partition("e")
            if not mantissa.strip("0."):
                return ZERO     # whatever its exponent
            if max(map(len, re.split(r"[.eE][+-]?", val))) > MAX_LITERAL_DIGITS:
                raise ParseError(f"number with a part of more than {MAX_LITERAL_DIGITS} digits", off)
            if abs(int(exponent or 0)) > MAX_LITERAL_EXPONENT:
                raise ParseError(f"number with an exponent beyond +-{MAX_LITERAL_EXPONENT}", off)
            try:
                return Const(Fraction(val))
            except ValueError as err:   # past MAX_CONST_BITS
                raise ParseError(str(err), off) from None
        if kind == "name":
            if val in FUNCTIONS:
                nk, nv, noff = self.peek()
                if nk != "op" or nv != "(":
                    raise ParseError(f"function {val!r} requires parentheses", noff)
                self.next()
                arg = self.expression(0)
                self.expect(")")
                return Func(val, arg)
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                raise ParseError(f"unknown function name {val!r}", off)
            return Var(val)
        if kind == "op" and val == "-":
            return neg(self.expression(_ADD_PREC))
        if kind == "op" and val == "(":
            e = self.expression(0)
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse(text: str) -> Expr:
    """Parse an expression string into a raw (unnormalized) tree.

    Text or a tree nested deeper than MAX_NESTING levels is a ParseError;
    left-associative chains such as x/y/x/y build deep trees from flat text."""
    e = _Parser(text).parse()
    if _depth(e) > MAX_NESTING:
        raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", 0)
    return e


def _depth(e: Expr) -> int:
    deepest, todo = 0, [(e, 1)]
    while todo:
        x, d = todo.pop()
        deepest = max(deepest, d)
        kids = _KIDS.get(type(x))
        if kids is not None:
            todo.extend((k, d + 1) for k in kids(x))
    return deepest


# --------------------------------------------------------------------------
# normalization / simplify
# --------------------------------------------------------------------------

_EXPAND_LIMIT = 128


_MEMO: ContextVar = ContextVar("lamsym_simplify_memo", default=None)


class _Forgetful(dict):
    """The memo of a normalizer step outside a scope: it keeps nothing."""
    def __setitem__(self, key, value):
        pass


_NO_MEMO = _Forgetful()


@contextmanager
def simplify_memo():
    """Scope in which the kernel remembers the work it did.

    One dict maps each tree `simplify` normalized to its normal form and
    each normal form to itself, which is sound because `simplify` is
    idempotent; each normalizer step (`_norm_sum`, `_norm_product`,
    `_norm_quotient`, `_norm_power`, `_norm_func`) and its operand nodes to
    its result; each normal term to its `_split_coeff` split; each pair
    (tree, variable name) to the derivative; each zero test's normal form,
    ZeroTestConfig and box bounds to its verdict; and each sample point
    set to its variables, their intervals, seed and count, drawn once
    however many zero tests read it.  `remembered` adds such an entry, as
    `lagrangian.hessian_regularity` does for its result.  Every entry is a
    pure function of its key, so a hit is the very node, verdict or point
    set that recomputing would build.  The memo lives until the outermost scope
    exits, normally or by an exception; a nested scope shares the outer
    memo.  Each context (thread) has its own.

    A step looks itself up in its own frame, keyed (step, operands...) with
    a list operand keyed by its nodes, and stores its result at its one
    exit, so a chain of steps that recurses along a tree takes one frame
    per level.  Outside a scope it looks up and stores into `_NO_MEMO`,
    which stays empty, so it runs every time."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def remembered(key: tuple, compute: Callable, *args):
    """`compute(*args)`, remembered under key in the open `simplify_memo()`
    scope; outside a scope it is computed on every call.  key must name
    compute and every input its result depends on."""
    memo = _MEMO.get(_NO_MEMO)
    r = memo.get(key)
    if r is None:
        r = memo[key] = compute(*args)
    return r


# tree -> {key: generated code, or a weak map from the next input tree to
# the same}; an entry goes when any of its trees dies
_GENERATED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def generated(owner: Expr, key: tuple, build: Callable, *args, inputs: Sequence[Expr] = ()):
    """`build(*args)`, kept for as long as the tree owner and every tree of
    inputs live, in and out of any scope: nodes are interned, so the same
    trees built again in a later call find the code, and it is built once.
    key must name build and every input that is not a tree.  Each tree is
    held weakly, so an input that is or contains owner, such as a Lambda
    entry L, keeps no entry alive; the result must refer to no tree either."""
    kept = _GENERATED.get(owner)
    if kept is None:
        kept = _GENERATED[owner] = {}
    for tree in inputs:
        under = kept.get(key)
        if under is None:
            under = kept[key] = weakref.WeakKeyDictionary()
        kept = under.get(tree)
        if kept is None:
            kept = under[tree] = {}
    r = kept.get(key)
    if r is None:
        r = kept[key] = build(*args)
    return r


def simplify(e: Expr) -> Expr:
    """Normalize: exact constant folding, like-term collection in flattened
    sums, like-base merging and bounded expansion in products, cancellation
    of syntactically identical quotient factors.  Idempotent and pointwise
    value preserving on the natural domain.

    Runs inside a `simplify_memo()` scope, and opens one for the call when
    none is open (`runner.run_checks` opens one per run): a tree normalized
    before in the scope, a normal form produced in it, or a normalizer step
    taken before on the same operands is answered from the memo."""
    t = type(e)
    if t is Const or t is Var:
        return e
    memo = _MEMO.get()
    if memo is None:
        with simplify_memo():
            return simplify(e)
    r = memo.get(e)
    if r is not None:
        return r
    if t is Sum:
        r = _norm_sum([simplify(a) for a in e.terms])
    elif t is Product:
        rest = _negated(e)
        if rest is None:
            r = _norm_product([simplify(f) for f in e.factors])
        else:
            # normalize the operand, then flip its sign: `_norm_product` is
            # not confluent and can reach another normal form
            r = _negate(simplify(rest))
    elif t is Quotient:
        r = _norm_quotient(simplify(e.numerator), simplify(e.denominator))
    elif t is Power:
        r = _norm_power(simplify(e.base), simplify(e.exponent))
    elif t is Func:
        r = _norm_func(e.name, simplify(e.arg))
    else:
        raise TypeError(t)
    memo[e] = r
    if r is not e:
        memo[r] = r
    return r


def _negated(e: Product):
    """The operand of a negation, a product led by the coefficient -1."""
    f = e.factors
    if type(f[0]) is Const and f[0].value == -1:
        return f[1] if len(f) == 2 else Product(f[1:])
    return None


def _sort_key(e: Expr):
    """The key that orders the terms of a normal sum and the factors of a
    normal product; computed once per node and kept in its `_sk` slot."""
    k = e._sk
    if k is not None:
        return k
    t = type(e)
    if t is Const:
        k = (0, str(e.value))
    elif t is Var:
        k = (1, e.name)
    elif t is Func:
        k = (2, e.name, _sort_key(e.arg))
    elif t is Power:
        k = (3, _sort_key(e.base), _sort_key(e.exponent))
    elif t is Quotient:
        k = (5, _sort_key(e.numerator), _sort_key(e.denominator))
    elif t is Product:
        rest = _negated(e)
        if rest is not None:
            # a negation sorts by its operand, between powers and quotients
            k = (4, _sort_key(rest))
        else:
            k = (6, len(e.factors)) + tuple(_sort_key(f) for f in e.factors)
    elif t is Sum:
        k = (7, len(e.terms)) + tuple(_sort_key(u) for u in e.terms)
    else:
        raise TypeError(t)
    _put_sk(e, k)
    return k


def _negate(n: Expr) -> Expr:
    # canonical sign handling on an already-normalized tree
    c, r = _split_coeff(n)
    return _join_coeff(-c, r)


def _split_coeff(n: Expr):
    """Split a normalized term into (rational coefficient, positive rest).
    The split of a product, quotient or sum is remembered per term in the
    open scope."""
    t = type(n)
    if t is Const:
        return n.value, ONE
    # UNDEFINED has no coefficient: its numerator's 0 would make it vanish
    if not (t is Product and type(n.factors[0]) is Const or t is Sum
            or t is Quotient and n.denominator is not ZERO):
        return 1, n
    memo, key = _MEMO.get(_NO_MEMO), (_split_coeff, n)
    r = memo.get(key)
    if r is not None:
        return r
    if t is Product:
        rest = n.factors[1:]
        r = n.factors[0].value, rest[0] if len(rest) == 1 else Product(rest)
    elif t is Quotient:
        c, rest = _split_coeff(n.numerator)
        r = c, Quotient(rest, n.denominator)
    else:
        # scale out the leading coefficient so that rests are scale-canonical
        c0, _ = _split_coeff(n.terms[0])
        if c0 == 1:
            r = 1, n
        else:
            parts = []
            for u in n.terms:
                uc, ur = _split_coeff(u)
                parts.append(_join_coeff(_ratio(uc, c0), ur))
            r = c0, Sum(tuple(parts))
    memo[key] = r
    return r


def _join_coeff(c: int | Fraction, rest: Expr) -> Expr:
    if c == 0:
        return ZERO
    if rest is ONE:
        return Const(c)
    if c == 1:
        return rest
    t = type(rest)
    if t is Sum:
        parts = []
        for u in rest.terms:
            uc, ur = _split_coeff(u)
            parts.append(_join_coeff(c * uc, ur))
        return _norm_sum(parts)
    if t is Quotient:
        # UNDEFINED keeps its numerator 0 (elsewhere it has coefficient 1)
        nc, nr = _split_coeff(rest.numerator)
        return Quotient(_join_coeff(c * nc, nr), rest.denominator)
    if t is Product:
        return Product((Const(c),) + rest.factors)
    return Product((Const(c), rest))


def _norm_sum(terms: list) -> Expr:
    memo, key = _MEMO.get(_NO_MEMO), (_norm_sum, *terms)
    r = memo.get(key)
    if r is not None:
        return r
    flat = []
    for t in terms:
        if type(t) is Sum:
            flat.extend(t.terms)
        elif _undefined(t):
            r = UNDEFINED
            break
        else:
            flat.append(t)
    else:  # no term is undefined
        coeffs: dict = {}  # rest -> summed coefficient; the constant's rest is ONE
        for t in flat:
            c, rest = _split_coeff(t)
            prev = coeffs.get(rest)
            coeffs[rest] = c if prev is None else prev + c
        const = coeffs.pop(ONE, 0)
        parts = [Const(const)] if const != 0 else []
        for rest in sorted(coeffs, key=_sort_key):
            if coeffs[rest] != 0:
                parts.append(_join_coeff(coeffs[rest], rest))
        r = ZERO if not parts else parts[0] if len(parts) == 1 else Sum(tuple(parts))
    memo[key] = r
    return r


def _rational_exponent(e: Expr):
    if isinstance(e, Power) and isinstance(e.exponent, Const):
        return e.base, e.exponent.value
    return e, 1


def _norm_product(factors: list) -> Expr:
    """The normal form of the product of the factors: the coefficient
    first, then the bases in `_sort_key` order, each to its summed exponent,
    exponentials combined into one, and sums distributed while the expansion
    has at most _EXPAND_LIMIT terms; over a denominator when a factor is a
    quotient."""
    memo, key = _MEMO.get(_NO_MEMO), (_norm_product, *factors)
    r = memo.get(key)
    if r is not None:
        return r
    coeff = 1
    bases: dict = {}   # atomic base expr -> accumulated rational exponent
    opaque: list = []  # powers with non-constant exponents
    den_parts: list = []

    # decompose every factor down to atoms (Var/Func/Sum/odd powers),
    # routing quotients to the denominator and signs/constants to coeff;
    # the stack holds the factors still to visit, the next one on top
    todo = factors[::-1]
    while todo:
        f = todo.pop()
        t = type(f)
        if t is Product:
            todo.extend(reversed(f.factors))
        elif t is Const:
            coeff *= f.value
        elif t is Quotient:
            if f.denominator is ZERO:
                r = UNDEFINED
                break
            todo.append(f.numerator)
            den_parts.append(f.denominator)
        elif t is Power and type(f.exponent) is not Const:
            opaque.append(f)
        elif t is Power:
            p = _norm_power(f.base, f.exponent)
            if p is not f:
                todo.append(p)
            else:
                bases[f.base] = bases.get(f.base, 0) + f.exponent.value
        else:
            bases[f] = bases.get(f, 0) + 1

    if r is None and coeff == 0:
        r = ZERO

    if r is None:
        # exponentials combine: exp(a)^x * exp(b)^y = exp(x*a + y*b)
        exp_args = []
        for b in list(bases):
            if type(b) is Func and b.name == "exp":
                x = bases.pop(b)
                if x != 0:
                    exp_args.append(_norm_product([Const(x), b.arg]))
        if exp_args:
            combined = _norm_sum(exp_args)
            if combined != ZERO:
                e = Func("exp", combined)
                bases[e] = bases.get(e, 0) + 1

        built = []
        for b in sorted(bases, key=_sort_key):
            x = bases[b]
            if x == 0:
                continue
            p = b if x == 1 else _norm_power(b, Const(x))
            # merged exponents can fold (e.g. an expanded power of a sum)
            if type(p) in (Const, Product, Quotient):
                r = _norm_product(
                    [p, Const(coeff)]
                    + [bb if xx == 1 else Power(bb, Const(xx))
                       for bb, xx in bases.items() if bb != b and xx != 0]
                    + opaque
                    + [Quotient(ONE, d) for d in den_parts])
                break
            built.append(p)

    if r is None:
        built.extend(sorted(opaque, key=_sort_key))
        # bounded distribution over sums
        sums = [b for b in built if type(b) is Sum]
        if sums and math.prod(len(s.terms) for s in sums) <= _EXPAND_LIMIT:
            rest = [b for b in built if type(b) is not Sum]
            combos = [[Const(coeff)]]  # the factor lists of the expansion's terms
            for s in sums:
                parts = [_factor_list(t) for t in s.terms]
                combos = [c + t for c in combos for t in parts]
            r = _norm_sum([_norm_product(c + rest) for c in combos])
        elif not built:
            r = Const(coeff)
        else:
            r = _join_coeff(coeff, built[0] if len(built) == 1 else Product(tuple(built)))
        if den_parts:
            r = _norm_quotient(r, _norm_product(den_parts))
    memo[key] = r
    return r


def _factor_list(e: Expr):
    """Multiplicative factors of a normalized expression (no sign/coeff)."""
    if isinstance(e, Product):
        return list(e.factors)
    return [e]


def _term_power_map(t: Expr):
    """Base -> rational exponent map of one sum term (an opaque power is a
    base with exponent 1)."""
    _c, r = _split_coeff(t)
    pm: dict = {}
    if r == ONE:
        return pm
    for f in _factor_list(r):
        b, x = _rational_exponent(f)
        pm[b] = pm.get(b, 0) + x
    return pm


def _sum_content(s: Sum):
    """Common positive monomial content of every term of a sum."""
    maps = [_term_power_map(t) for t in s.terms]
    least = {b: min(pm.get(b, 0) for pm in maps) for b in maps[0]}
    return {b: x for b, x in least.items() if x > 0}


def _strip_content(s: Sum, common: dict) -> Expr:
    parts = []
    for t in s.terms:
        factors = []
        for b, x in _term_power_map(t).items():
            x -= common.get(b, 0)
            if x != 0:
                factors.append(b if x == 1 else Power(b, Const(x)))
        parts.append(_join_coeff(_split_coeff(t)[0], _norm_product(factors) if factors else ONE))
    return _norm_sum(parts)


def _norm_quotient(num: Expr, den: Expr) -> Expr:
    memo, key = _MEMO.get(_NO_MEMO), (_norm_quotient, num, den)
    r = memo.get(key)
    if r is not None:
        return r
    if isinstance(den, Const):
        r = UNDEFINED if den.value == 0 else _norm_product([Const(_ratio(1, den.value)), num])
    elif isinstance(num, Quotient):
        r = _norm_quotient(num.numerator, _norm_product([num.denominator, den]))
    elif isinstance(den, Quotient):
        r = _norm_quotient(_norm_product([num, den.denominator]), den.numerator)
    elif isinstance(num, Const) and num.value == 0:
        r = ZERO
    else:
        # cancel common factors in one pass over num's factors, then den's:
        # powers of a common base cancel by exponent, and an opaque power
        # (non-constant exponent) below cancels an equal one above
        powers: dict = {}  # base -> exponent in num minus exponent in den
        opaque_num, opaque_den = [], []
        (nc, nrest), (dc, drest) = _split_coeff(num), _split_coeff(den)
        for sign, rest in ((1, nrest), (-1, drest)):
            for f in _factor_list(rest) if rest != ONE else ():
                if isinstance(f, Sum):
                    # a sum donates the monomial content its terms share
                    common = _sum_content(f)
                    if common:
                        for b, x in common.items():
                            powers[b] = powers.get(b, 0) + sign * x
                        f = _strip_content(f, common)
                if isinstance(f, Power) and not isinstance(f.exponent, Const):
                    if sign < 0 and f in opaque_num:
                        opaque_num.remove(f)
                    else:
                        (opaque_num if sign > 0 else opaque_den).append(f)
                else:
                    b, x = _rational_exponent(f)
                    powers[b] = powers.get(b, 0) + sign * x

        new_nf, new_df = [], []
        for b in sorted(powers, key=_sort_key):
            x = powers[b]
            if x != 0:
                side, x = (new_nf, x) if x > 0 else (new_df, -x)
                side.append(b if x == 1 else Power(b, Const(x)))
        new_nf.extend(opaque_num)
        new_df.extend(opaque_den)

        c = Const(_ratio(nc, dc))
        new_num = _norm_product([c] + new_nf) if new_nf else c
        # what is left above can multiply out to 0 although num is not 0: in
        # (|q|-q)*(|q|+q)*S/(S*p), S a sum too long to expand num, S cancels
        if not new_df or new_num is ZERO:
            r = new_num
        else:
            new_den = _norm_product(new_df)
            if isinstance(new_num, Quotient) or isinstance(new_den, (Quotient, Const)):
                r = _norm_quotient(new_num, new_den)
            else:
                # keep denominators coefficient-free (monic leading term)
                dc, new_den = _split_coeff(new_den)
                if dc != 1:
                    new_num = _norm_product([Const(_ratio(1, dc)), new_num])
                r = Quotient(new_num, new_den)
    memo[key] = r
    return r


def _nth_root_exact(v: int | Fraction, n: int):
    """The rational n-th root of v >= 0 when it is exact and its terms are
    within the float estimate's range, else None."""
    def iroot(k: int):
        if k < 2:
            return k
        if not n < k.bit_length() <= 1000:
            return None  # 2^n > k, or k beyond the float estimate below
        r = round(k ** (1.0 / n))
        return next((c for c in (r - 1, r, r + 1) if c ** n == k), None)
    a, b = iroot(v.numerator), iroot(v.denominator)
    return None if a is None or b is None else Fraction(a, b)


def _norm_power(b: Expr, x: Expr) -> Expr:
    memo, key = _MEMO.get(_NO_MEMO), (_norm_power, b, x)
    r = memo.get(key)
    if r is not None:
        return r
    if _undefined(b) or _undefined(x):
        r = UNDEFINED
    elif isinstance(x, Const):
        v = x.value
        if v == 0:
            r = ONE
        elif v == 1:
            r = b
        elif isinstance(b, Const):
            c = b.value
            if v.denominator != 1:
                if c < 0:
                    # a negative base has no real fractional power
                    r = UNDEFINED
                else:
                    root = _nth_root_exact(c, v.denominator)
                    if root is not None:
                        r = _norm_power(Const(root), Const(v.numerator))
            elif c == 0 and v < 0:
                r = UNDEFINED
            elif abs(v) * max(abs(c.numerator), c.denominator).bit_length() <= MAX_CONST_BITS:
                # v is an int; an int c to a negative power would be a float
                r = Const(Fraction(c) ** v)
        elif isinstance(b, Power) and isinstance(b.exponent, Const):
            m = b.exponent.value
            # (u^m)^v = u^(m*v) except for even integer m with fractional v,
            # where the left side is |u|^(m*v)
            if not (m.denominator == 1 and m.numerator % 2 == 0 and v.denominator != 1):
                r = _norm_power(b.base, Const(m * v))
        elif isinstance(b, Func) and b.name == "exp":
            r = Func("exp", _norm_product([Const(v), b.arg]))
        elif isinstance(b, Product) and v.denominator == 1:
            r = _norm_product([_norm_power(f, x) for f in b.factors])
        elif isinstance(b, Quotient) and v.denominator == 1:
            if v > 0:
                r = _norm_quotient(_norm_power(b.numerator, x), _norm_power(b.denominator, x))
            else:
                r = _norm_quotient(_norm_power(b.denominator, Const(-v)),
                                   _norm_power(b.numerator, Const(-v)))
        elif isinstance(b, Sum) and v.denominator == 1 and 2 <= v <= 4 \
                and len(b.terms) ** int(v) <= _EXPAND_LIMIT:
            combos = parts = [_factor_list(t) for t in b.terms]  # factor lists
            for _ in range(int(v) - 1):
                combos = [c + t for c in combos for t in parts]
            r = _norm_sum([_norm_product(c) for c in combos])
    if r is None:  # no rule applies
        r = Power(b, x)
    memo[key] = r
    return r


def _norm_func(name: str, a: Expr) -> Expr:
    memo, key = _MEMO.get(_NO_MEMO), (_norm_func, name, a)
    r = memo.get(key)
    if r is not None:
        return r
    if name == "sqrt":
        r = _norm_power(a, Const(Fraction(1, 2)))
    elif _undefined(a) or (name == "log" and isinstance(a, Const) and a.value <= 0):
        r = UNDEFINED
    elif name == "exp":
        if a == ZERO:
            r = ONE
        elif isinstance(a, Func) and a.name == "log":
            r = a.arg
    elif name == "log":
        if a == ONE:
            r = ZERO
        elif isinstance(a, Func) and a.name == "exp":
            r = a.arg
    elif name == "sin" and a == ZERO:
        r = ZERO
    elif name == "cos" and a == ZERO:
        r = ONE
    if r is None:  # no rule applies
        r = Func(name, a)
    memo[key] = r
    return r


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

def _node_prec(e: Expr) -> int:
    """The precedence of a node that `_sign_split` left without a sign."""
    if isinstance(e, Const):
        return _MUL_PREC if e.value.denominator != 1 else 40
    if isinstance(e, (Var, Func)):
        return 40
    if isinstance(e, Power):
        return _POW_PREC
    if isinstance(e, (Product, Quotient)):
        return _MUL_PREC
    return _ADD_PREC  # Sum


def _sign_split(e: Expr):
    if isinstance(e, Const) and e.value < 0:
        return True, Const(-e.value)
    if isinstance(e, Product) and isinstance(e.factors[0], Const) and e.factors[0].value < 0:
        return True, _negate(e)
    if isinstance(e, Quotient):
        s, pos = _sign_split(e.numerator)
        return s, (Quotient(pos, e.denominator) if s else e)
    return False, e


def _print(e: Expr, ctx: int) -> str:
    """`e` printed in a context of precedence ctx; one frame per tree level."""
    negd, e = _sign_split(e)
    if isinstance(e, Const):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Func):
        s = f"{e.name}({_print(e.arg, 0)})"
    elif isinstance(e, Sum):
        s = _print(e.terms[0], _ADD_PREC)
        for t in e.terms[1:]:
            negt, pos = _sign_split(t)
            s += "-" + _print(pos, _ADD_PREC + 1) if negt else "+" + _print(t, _ADD_PREC + 1)
    elif isinstance(e, Product):
        s = _print(e.factors[0], _MUL_PREC)
        for f in e.factors[1:]:
            s += "*" + _print(f, _MUL_PREC)
    elif isinstance(e, Quotient):
        s = _print(e.numerator, _MUL_PREC) + "/" + _print(e.denominator, _MUL_PREC + 1)
    elif isinstance(e, Power):
        # `^` is right-associative, so a power exponent needs no parentheses
        s = _print(e.base, _POW_PREC + 1) + "^" + _print(e.exponent, _POW_PREC)
    else:
        raise TypeError(type(e))
    if negd:
        s = "-" + s
    if (_ADD_PREC if negd else _node_prec(e)) < ctx:
        return "(" + s + ")"
    return s


def format_expr(e: Expr) -> str:
    """Render the normalized form of `e`; output re-parses to that tree."""
    return _print(simplify(e), 0)


# --------------------------------------------------------------------------
# calculus
# --------------------------------------------------------------------------

def differentiate(e: Expr, v: str) -> Expr:
    """Exact symbolic partial derivative with respect to variable `v`,
    remembered per (tree, v) in the `simplify_memo()` scope, which it opens
    for the call when none is open."""
    if v not in free_vars(e):
        return ZERO
    if type(e) is Var:
        return ONE
    memo = _MEMO.get()
    if memo is None:
        with simplify_memo():
            return differentiate(e, v)
    key = (e, v)
    d = memo.get(key)
    if d is None:
        d = memo[key] = _derivative(e, v)
    return d


def _derivative(e: Expr, v: str) -> Expr:
    if isinstance(e, Sum):
        return add(*[differentiate(t, v) for t in e.terms])
    if isinstance(e, Product):
        terms = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, v)
            if df == ZERO:
                continue
            terms.append(mul(*e.factors[:i], df, *e.factors[i + 1:]))
        return add(*terms)
    if isinstance(e, Quotient):
        a, b = e.numerator, e.denominator
        da, db = differentiate(a, v), differentiate(b, v)
        return div(add(mul(da, b), neg(mul(a, db))), Power(b, Const(2)))
    if isinstance(e, Power):
        b, x = e.base, e.exponent
        if x is ZERO:       # 0*B^0: zero wherever simplify(B^0) is 1
            return mul(ZERO, e)
        if v not in free_vars(x):
            return mul(x, Power(b, add(x, MINUS_ONE)), differentiate(b, v))
        if v not in free_vars(b):
            return mul(e, Func("log", b), differentiate(x, v))
        return mul(e, add(mul(differentiate(x, v), Func("log", b)),
                          mul(x, div(differentiate(b, v), b))))
    if isinstance(e, Func):
        da = differentiate(e.arg, v)
        if e.name == "exp":
            return mul(Func("exp", e.arg), da)
        if e.name == "log":
            return div(da, e.arg)
        if e.name == "sin":
            return mul(Func("cos", e.arg), da)
        if e.name == "cos":
            return neg(mul(Func("sin", e.arg), da))
        if e.name == "sqrt":
            return div(da, mul(Const(2), Func("sqrt", e.arg)))
    raise TypeError(type(e))


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution; inserted right-hand sides are not rescanned."""
    if not bindings:
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Sum):
        return add(*[substitute(t, bindings) for t in e.terms])
    if isinstance(e, Product):
        return mul(*[substitute(f, bindings) for f in e.factors])
    if isinstance(e, Power):
        return Power(substitute(e.base, bindings), substitute(e.exponent, bindings))
    if isinstance(e, Quotient):
        return div(substitute(e.numerator, bindings), substitute(e.denominator, bindings))
    if isinstance(e, Func):
        return Func(e.name, substitute(e.arg, bindings))
    raise TypeError(type(e))


# --------------------------------------------------------------------------
# evaluation: every float value comes from code compiled here
# --------------------------------------------------------------------------

def _guard_pow(a: float, b: float) -> float:
    """`a ** b` where it is real; a power beyond the float range raises the
    OverflowError of `**`.  `not a > 0.0` holds for nan too."""
    if not a > 0.0:
        if a == 0.0:
            if not b >= 0.0:
                raise EvalDomainError("zero raised to a negative power")
        elif not math.isfinite(b):      # int(b) would raise ValueError or OverflowError
            raise EvalDomainError("negative base with non-finite exponent")
        elif b != int(b):
            raise EvalDomainError("negative base with fractional exponent")
    return a ** b


def _c_log(a):
    if a <= 0.0:
        raise EvalDomainError("log of non-positive argument")
    return math.log(a)


def _c_sqrt(a):
    if a < 0.0:
        raise EvalDomainError("sqrt of negative argument")
    return math.sqrt(a)


def _domain_error(err: ArithmeticError | ValueError) -> EvalDomainError:
    """The domain error for the ZeroDivisionError of a float division by zero
    or the ValueError of sin or cos of an infinite argument in generated code."""
    return EvalDomainError("division by zero" if type(err) is ZeroDivisionError
                           else "sin or cos of an infinite argument")


_COMPILE_ENV = {
    "__builtins__": {}, "ZeroDivisionError": ZeroDivisionError, "ValueError": ValueError,
    "OverflowError": OverflowError, "abs": abs, "range": range, "_inf": math.inf,
    "_exp": math.exp, "_log": _c_log, "_sin": math.sin, "_cos": math.cos,
    "_sqrt": _c_sqrt, "_pow": _guard_pow, "_domain_error": _domain_error,
}


def _define(lines: list, name: str, **env) -> Callable:
    """The function `name` that the source lines define, run in
    `_COMPILE_ENV` with the names in env: the one place source becomes code."""
    env = {**_COMPILE_ENV, **env}
    exec("\n".join(lines) + "\n", env)
    return env.pop(name)    # left in env, its own globals, it would be a cycle


def _small_power(x) -> Optional[int]:
    """k when a power whose exponent operand is x compiles to `(base)**k`:
    x is a float literal, from a `Const` or a folded constant subtree, that
    is a whole number k in 0..16, where `(base)**k` is `_guard_pow(base, x)`
    and cannot raise a domain error; else None."""
    return int(x) if type(x) is float and x.is_integer() and 0.0 <= x <= 16.0 else None


def _raises_nothing(k, nodes: list) -> bool:
    """Whether evaluating operand k cannot raise: it is a variable, a float
    literal, or a sum or product of such operands (a float `+` or `*` gives
    inf or nan where a power, quotient or function raises)."""
    if type(k) is not int:
        return True
    e, kids = nodes[k]
    return (type(e) is Sum or type(e) is Product) and all(
        _raises_nothing(c, nodes) for c in kids)


def _fold(e: Expr, kids: tuple, nodes: list):
    """`e`'s value when its operands are all float literals, computed by the
    generated code's float operations in its order, unless that raises or is
    not finite.  Else its operands: a leading run of literal terms or factors
    made one, without the IEEE identities x*1.0, x + -0.0, x**1.0, and
    x + 0.0 after a +0.0 term (a sum is -0.0 only when both operands are);
    1.0 for a power that folds to 0.0 of a base that cannot raise
    (`_raises_nothing` over the numbered nodes), which is 1.0 for every
    float, nan and inf included; the lone operand left of a sum or product
    or the base of a power to 1.0."""
    if float not in map(type, kids):
        return kids
    t, n = type(e), len(kids)
    lead = next((i for i, k in enumerate(kids) if type(k) is not float), n)
    if lead == n or (lead > 1 and (t is Sum or t is Product)):
        try:
            if t is Sum or t is Product:
                v = kids[0]
                for k in kids[1:lead]:
                    v = v + k if t is Sum else v * k
            elif t is Power:
                v = _guard_pow(*kids)
            else:
                v = kids[0] / kids[1] if t is Quotient else _COMPILE_ENV["_" + e.name](*kids)
        except (ArithmeticError, ValueError):
            v = math.inf
        if math.isfinite(v):
            if lead == n:
                return v
            kids = (v,) + kids[lead:]
    if t is Power:
        # b**1.0 is b; a base that may raise keeps (b)**0 for its errors
        # until it is bound to a local (`_Fuser._source`)
        x = kids[1]
        if type(x) is float and x == 1.0:
            return kids[0]
        return 1.0 if type(x) is float and x == 0.0 and _raises_nothing(kids[0], nodes) else kids
    if t is Product:
        kids = tuple(k for k in kids if type(k) is not float or k != 1.0)
    elif t is Sum:
        zeros = [i for i, k in enumerate(kids) if type(k) is float and k == 0.0]
        keep = [i for i in zeros if math.copysign(1.0, kids[i]) > 0.0][:1]
        kids = tuple(k for i, k in enumerate(kids) if i not in zeros or i in keep)
    else:
        return kids
    return kids[0] if len(kids) == 1 else kids


class _Fuser:
    """Python source for several expressions evaluated in one scope.

    Every distinct computation gets one number: nodes are numbered by their
    type, their function name and their operands' source text (a float
    literal by its repr, as 0.0 == -0.0), so two distinct nodes whose
    operands fold to the same source share one.  A number referenced more
    than once is bound to a local (`_tN`) the first time it is needed and
    read back afterwards (common-subexpression elimination).  Binding keeps
    the evaluation order of the trees: when an operand binds locals, the
    operands to its left are bound before them, so the first error raised
    is the one that evaluating each tree in turn would raise.  Leaves and constant-only parts (`_fold`) are not numbered:
    an operand is a variable's source text, a float literal or a node number.
    `emit` gives the roots' source, all at once or a slice at a time.

    The source runs no float operation its bits do not need, by IEEE
    identities: a product with -1.0 factors is the negation of the product
    of the others, (-x*y) for (-1.0*x*y) or (x*-1.0*y); an unbound one after
    a sum's first term is subtracted, (a-(b)) for (a+(-1.0*b)); and the 1.0
    of `(b)**0` on a bound base is left out of its product.  Only a nan's
    sign bit differs: a unary minus flips it, -1.0*nan keeps it.
    """

    def __init__(self, exprs: Sequence[Expr], names: Sequence[str]):
        self.sym = sym = {n: f"_v{i}" for i, n in enumerate(names)}    # in argument order
        self.nodes: list = []       # node number -> (expr, operands)
        self.code: list = []        # node number -> bound local, or None
        self.refs: list = []        # node number -> references from distinct parents
        self.lines: list = []
        nodes, code, refs = self.nodes, self.code, self.refs
        seen: dict = {}             # id(node) -> operand
        numbered: dict = {}         # (type, name, operands' source) -> node number

        def operand(e: Expr):
            r = seen.get(id(e))
            if r is not None:
                return r
            t = type(e)
            if t is Var:
                try:
                    r = sym[e.name]
                except KeyError:
                    raise ValueError(f"unbound variable {e.name!r}") from None
            elif t is Const:
                try:
                    r = float(e.value)
                except OverflowError:
                    # its digits, counted without str: those of 2^(bits-1), or one more
                    k = abs(int(e.value))
                    d = int((k.bit_length() - 1) * math.log10(2)) + 1
                    raise ValueError(f"constant of {d + (k >= 10 ** d)} digits "
                                     "is beyond the float range") from None
            else:
                r = _fold(e, tuple([operand(k) for k in _KIDS[t](e)]), nodes)
                if type(r) is tuple:
                    kids = r
                    key = (t, e.name if t is Func else None,
                           tuple([repr(k) if type(k) is float else k for k in kids]))
                    r = numbered.get(key)
                    if r is None:
                        r = numbered[key] = len(nodes)
                        nodes.append((e, kids))
                        code.append(None)
                        refs.append(0)
                        for k in kids:
                            if type(k) is int:
                                refs[k] += 1
            seen[id(e)] = r
            return r

        self.roots = roots = [operand(e) for e in exprs]   # str, float or node number
        for r in roots:
            if type(r) is int:
                refs[r] += 1
        del operand     # it holds itself through its cell: a cycle that keeps `nodes`

    def emit(self, kids) -> list:
        """The source of the operands kids, in order; the lines they need are
        appended to `lines`, and a subtree an earlier call bound is read back."""
        parts = []
        for c in kids:
            t = type(c)
            done = c if t is str else repr(c) if t is float else self.code[c]
            if done is not None:
                parts.append(done)
                continue
            mark = len(self.lines)
            part = self._source(c)
            if len(self.lines) > mark:
                early = []
                for j, k in enumerate(kids[:len(parts)]):
                    if type(k) is int and self.code[k] is None:
                        early.append(f"_t{k}={parts[j]}")
                        parts[j] = self.code[k] = f"_t{k}"
                self.lines[mark:mark] = early
            parts.append(part)
        return parts

    def _negated(self, k: int) -> bool:
        """Whether node k is a product that `_source` spells as a negation:
        one with an odd number of -1.0 factors."""
        e, kids = self.nodes[k]
        return type(e) is Product and kids.count(-1.0) % 2 == 1

    def _source(self, i: int) -> str:
        e, kids = self.nodes[i]
        t = type(e)
        if t is Sum:
            # an unbound negated product after the first term, (-x*y), is
            # subtracted, a + (-b) being a - b; a bound one is added as _tN
            parts = self.emit(kids)
            src = "(" + parts[0] + "".join([
                "-(" + p[2:] if p[:2] == "(-" and self._negated(k) else "+" + p
                for k, p in zip(kids[1:], parts[1:])]) + ")"
        elif t is Product:
            # -1.0 factors negate the product of the others, (-1.0*x)*y being
            # -(x*y); the 1.0 of a bound base to the power 0 is left out
            parts = [p for p in self.emit(kids) if p != "1.0" and p != "-1.0"] or ["1.0"]
            src = ("(-" if self._negated(i) else "(") + "*".join(parts) + ")"
        elif t is Power:
            k = _small_power(kids[1])
            if k is None:
                src = "_pow({},{})".format(*self.emit(kids))
            else:
                base = self.emit(kids[:1])[0]
                if k == 0 and type(kids[0]) is int and self.code[kids[0]] is not None:
                    # the base's own line raises its errors, and b**0 is 1.0
                    # for every float b
                    self.code[i] = "1.0"
                    return "1.0"
                src = f"({base})**{k}"
        elif t is Quotient:
            src = "({}/{})".format(*self.emit(kids))
        else:
            src = f"_{e.name}({self.emit(kids)[0]})"
        if self.refs[i] > 1:
            name = self.code[i] = f"_t{i}"
            self.lines.append(f"{name}={src}")
            return name
        return src

    def assign(self, targets: list, roots: list) -> list:
        """Lines that assign the roots' source to targets, in one try block."""
        mark = len(self.lines)
        src = self.emit(roots)
        return _guarded(self.lines[mark:] + [f"{v} = {r}" for v, r in zip(targets, src)])

    def define(self, result: str) -> Callable:
        body = self.lines + [f"return {result}"]
        if self.lines or any(op in result for op in ("/", "_sin(", "_cos(")):
            body = _guarded(body)
        return _define([f"def _f({','.join(self.sym.values())}):"]
                       + [f" {line}" for line in body], "_f")


def _guarded(lines: list) -> list:
    """lines in a try block whose handler raises a float division by zero or
    sin or cos of an infinite argument as `_domain_error` gives it."""
    return (["try:"] + [f" {line}" for line in lines]
            + ["except (ZeroDivisionError, ValueError) as err:",
               " raise _domain_error(err) from None"])


def compile_exprs(exprs: Sequence[Expr], names: Sequence[str]) -> Callable[..., tuple]:
    """Compile to one positional-argument function over `names` returning
    the tuple of the expressions' float values; every subtree that occurs
    more than once, in one expression or across several, is evaluated once.

    A constant beyond the float range raises ValueError."""
    fuser = _Fuser(exprs, names)
    return fuser.define("(" + "".join(f"{r}," for r in fuser.emit(fuser.roots)) + ")")


def compile_expr(e: Expr, names: Sequence[str]) -> Callable[..., float]:
    """Compile to a positional-argument float function over `names`; the
    single-expression case of `compile_exprs`, `generated` once per tree
    and names."""
    names = tuple(names)
    return generated(e, ("expr", names), _compile_one, e, names)


def _compile_one(e: Expr, names: tuple) -> Callable[..., float]:
    fuser = _Fuser((e,), names)
    return fuser.define(fuser.emit(fuser.roots)[0])


# --------------------------------------------------------------------------
# zero testing
# --------------------------------------------------------------------------

DEFAULT_INTERVAL = (0.2, 1.2)


class DomainBox(Record):
    """Closed intervals per variable; unlisted variables get the default
    interval, which keeps log/sqrt/division safe for all bundled problems."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Optional[dict] = None):
        Record.__init__(self, {} if intervals is None else intervals)
        for name, (lo, hi) in self.intervals.items():
            if not lo < hi:
                raise ValueError(f"empty interval for {name!r}: [{lo}, {hi}]")

    def interval(self, name: str) -> tuple:
        return self.intervals.get(name, DEFAULT_INTERVAL)

    def points(self, names: Sequence[str], seed: int, count: int):
        """`count` seeded points over `names`, one tuple per point: each
        coordinate is `random.Random(seed).uniform(lo, hi)` over its
        variable's interval, drawn in `names` order."""
        draw = random.Random(seed).random
        spans = [(lo, hi - lo) for lo, hi in map(self.interval, names)]
        for _ in range(count):
            yield tuple([lo + width * draw() for lo, width in spans])


class ZeroTestConfig(Record):
    """Settings of the sampling tier: 1 to MAX_SAMPLES sample points, and a
    finite, non-negative tolerance on the scaled residual."""

    __slots__ = ("samples", "seed", "abs_tol")

    def __init__(self, *, samples: int = 100, seed: int = 0, abs_tol: float = 1e-9):
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
        if not (math.isfinite(abs_tol) and abs_tol >= 0):
            raise ValueError(f"tolerance must be finite and non-negative, got {abs_tol}")
        Record.__init__(self, samples, seed, abs_tol)


class ZeroVerdict(Record):
    """Outcome of a zero test.

    ProvenZero: the normal form is the literal zero constant.
    NumericallyZero: every sampled scaled residual was at most abs_tol, or
    a trajectory residual was within its tolerance (`within`).
    NonZero: carries a reproducible witness point and its scaled residual;
    a trajectory residual has no witness, a verdict on no residual neither.
    `samples` counts the points evaluated, `rejected` those lost to domain
    errors, overflow or a non-finite residual.
    """

    __slots__ = ("tag", "samples", "rejected", "max_residual", "witness")

    def __init__(self, tag: str, samples: int = 0, rejected: int = 0, max_residual: float = 0.0,
                 witness: Optional[dict] = None):
        Record.__init__(self, tag, samples, rejected, max_residual, witness)

    @classmethod
    def within(cls, residual: float, tol: float, samples: int) -> "ZeroVerdict":
        """The verdict on a residual over `samples` grid points, decided by
        the tolerance `tol`."""
        return cls("NumericallyZero" if residual <= tol else "NonZero", samples=samples,
                   max_residual=residual)

    @property
    def ok(self) -> bool:
        return self.tag in ("ProvenZero", "NumericallyZero")

    def __str__(self):
        if self.tag == "ProvenZero":
            return "ProvenZero"
        if self.tag == "NumericallyZero":
            return f"NumericallyZero(max={self.max_residual:.3e}, n={self.samples})"
        if self.max_residual is None:
            return "NonZero"
        at = "" if self.witness is None else f" at {self.witness}"
        return f"NonZero(residual={self.max_residual:.3e}{at})"


PROVEN_ZERO = ZeroVerdict("ProvenZero")

# the one verdict of a check that tests no residual yet holds: mon with
# nothing to monitor, lala with a non-constant lambda or no extension
UNTESTED = (("no residual tested", ZeroVerdict("NumericallyZero")),)


class Verdicts(Record):
    """The zero verdicts of one check, as (label, ZeroVerdict) pairs in the
    order tested; the check holds when every verdict is ok.  Reports that
    carry more than verdicts subclass it, `checks` first."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple):
        Record.__init__(self, checks)

    @property
    def holds(self) -> bool:
        return all(v.ok for _, v in self.checks)


def _blame(e: Expr, names: Sequence[str], point: Sequence[float]) -> Expr:
    """The innermost subterm of `e` whose evaluation fails at `point`: each
    step compiles the operands in evaluation order and enters the first
    that fails."""
    while type(e) in _KIDS:
        for k in _KIDS[type(e)](e):
            try:
                compile_expr(k, names)(*point)
            except ArithmeticError:
                e = k
                break
        else:
            break
    return e


def is_identically_zero(e: Expr, box: Optional[DomainBox] = None,
                        cfg: Optional[ZeroTestConfig] = None) -> ZeroVerdict:
    """Two-tier zero test: symbolic normalization, then seeded sampling.

    Residuals are scaled by (1 + max |additive subterm|) at each point so
    that cancellations between large terms are judged relatively.

    Inside a `simplify_memo()` scope a sampled verdict is remembered per
    normal form, `cfg` and the box bounds of its free variables; the same
    residual sampled again in the scope gets that verdict object back, and
    the tests of one scope over the same variables, intervals, seed and
    sample count share one point set.  A SamplingError is raised afresh
    every time.
    """
    box = box or DomainBox()
    cfg = cfg or ZeroTestConfig()
    z = simplify(e)
    if z == ZERO:
        return PROVEN_ZERO

    names = sorted(free_vars(z))
    return remembered((ZeroVerdict, z, cfg, tuple(map(box.interval, names))),
                      _sampled_verdict, z, names, box, cfg)


def _sampled_verdict(z: Expr, names: list, box: DomainBox,
                     cfg: ZeroTestConfig) -> ZeroVerdict:
    terms = list(z.terms) if isinstance(z, Sum) else [z]
    fn = generated(z, ("terms", tuple(names)), compile_exprs, terms, names)
    # one point set per variables, intervals, seed and count in the scope
    points = remembered((DomainBox.points, tuple(names), tuple(map(box.interval, names)),
                         cfg.seed, cfg.samples),
                        lambda: tuple(box.points(names, cfg.seed, cfg.samples)))

    worst = -1.0
    worst_point = None
    evaluated = 0
    domain = overflow = nonfinite = 0   # rejected samples, by cause
    domain_at = None
    for point in points:
        try:
            vals = fn(*point)
            resid = abs(math.fsum(vals)) / (1.0 + max(map(abs, vals)))
        except OverflowError:       # a power, exp, or fsum's intermediate sum
            overflow += 1
            continue
        except EvalDomainError:
            domain += 1
            if domain_at is None:
                domain_at = point
            continue
        except (ArithmeticError, ValueError):   # fsum's inf - inf
            resid = math.nan
        if not math.isfinite(resid):    # an inf or nan term is no evidence either way
            nonfinite += 1
            continue
        evaluated += 1
        if resid > worst:
            worst = resid
            worst_point = point

    failures = domain + overflow + nonfinite
    if failures > 0.9 * cfg.samples:
        blame = None
        causes = []
        if domain:
            blame = _blame(z, names, domain_at)
            causes.append(f"{domain} hit domain errors in {format_expr(blame)}")
        if overflow:
            causes.append(f"{overflow} overflowed")
        if nonfinite:
            causes.append(f"{nonfinite} gave a non-finite residual")
        raise SamplingError(f"{failures}/{cfg.samples} sample points rejected: "
                            + ", ".join(causes), blame)
    witness = None if worst <= cfg.abs_tol else dict(zip(names, worst_point))
    return ZeroVerdict("NumericallyZero" if witness is None else "NonZero", samples=evaluated,
                       rejected=failures, max_residual=worst, witness=witness)
