"""Seeded random expression generators and the reference tree walk
shared by the test modules."""

from fractions import Fraction
import math
import random

from lamsym.expr import (
    Const, Func, Power, Quotient, Var, add, free_vars, mul, neg,
    EvalDomainError, Expr, Product, Sum,
)


def in_order(e, point):
    """Tree walk doing the compiled evaluator's float operations in its
    order: operands left to right, sums and products folded left to right,
    a power as `a ** b` where it is real, and the same domain errors; a
    power or exp beyond the float range raises its OverflowError."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        return point[e.name]
    if isinstance(e, (Sum, Product)):
        vals = [in_order(k, point) for k in (e.terms if isinstance(e, Sum) else e.factors)]
        out = vals[0]
        for v in vals[1:]:
            out = out + v if isinstance(e, Sum) else out * v
        return out
    if isinstance(e, Quotient):
        a, b = in_order(e.numerator, point), in_order(e.denominator, point)
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    if isinstance(e, Power):
        a, b = in_order(e.base, point), in_order(e.exponent, point)
        if a == 0.0 and not b >= 0.0:
            raise EvalDomainError("zero raised to a negative power")
        if not a >= 0.0 and not abs(b) < math.inf:
            raise EvalDomainError("negative base with non-finite exponent")
        if not a >= 0.0 and b % 1.0 != 0.0:
            raise EvalDomainError("negative base with fractional exponent")
        return a ** b
    a = in_order(e.arg, point)
    if e.name == "exp":
        return math.exp(a)
    if e.name == "log":
        if a <= 0.0:
            raise EvalDomainError("log of non-positive argument")
        return math.log(a)
    if e.name == "sqrt":
        if a < 0.0:
            raise EvalDomainError("sqrt of negative argument")
        return math.sqrt(a)
    if math.isinf(a):
        raise EvalDomainError("sin or cos of an infinite argument")
    return getattr(math, e.name)(a)


# Each coordinate of an exact sample point, and each atom's value, is one
# of GRID rationals: the |S| of the Schwartz-Zippel bound.
GRID = 10 ** 6


def _integer_power(e) -> bool:
    return isinstance(e, Power) and isinstance(e.exponent, Const) and type(e.exponent.value) is int


def exact(e: Expr, point: dict, atoms: dict, rng: random.Random) -> Fraction:
    """Normal form e at a point of rationals, in Fraction arithmetic.
    Integer powers are exact; each Func and each power whose exponent is
    not an integer is an atom, an independent random rational per distinct
    subterm, kept in atoms.  A quotient by zero raises ZeroDivisionError."""
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Var):
        return point[e.name]
    if isinstance(e, Sum):
        return sum((exact(k, point, atoms, rng) for k in e.terms), Fraction(0))
    if isinstance(e, Product):
        return math.prod((exact(k, point, atoms, rng) for k in e.factors), start=Fraction(1))
    if isinstance(e, Quotient):
        return exact(e.numerator, point, atoms, rng) / exact(e.denominator, point, atoms, rng)
    if _integer_power(e):
        return exact(e.base, point, atoms, rng) ** e.exponent.value
    if e not in atoms:
        atoms[e] = Fraction(rng.randint(1, GRID), GRID)
    return atoms[e]


def exact_samples(e: Expr, box, k: int, seed: int) -> list:
    """The exact values of e at k seeded rational points of box where it is
    defined, each coordinate lo + (hi - lo) * j / GRID with j in 1..GRID,
    and fresh atoms at each point; a point where e is undefined is drawn
    again, at most 10 * k draws in all."""
    rng = random.Random(seed)
    names = sorted(free_vars(e))
    values = []
    for _ in range(10 * k):
        point = {}
        for name in names:
            lo, hi = map(Fraction, box.interval(name))
            point[name] = lo + (hi - lo) * Fraction(rng.randint(1, GRID), GRID)
        try:
            values.append(exact(e, point, {}, rng))
        except ZeroDivisionError:
            continue
        if len(values) == k:
            break
    return values


def degree(e: Expr) -> tuple:
    """Bounds on the total degrees of the numerator and the denominator of e
    as a rational function of its variables and atoms (see `exact`)."""
    if isinstance(e, Const):
        return 0, 0
    if isinstance(e, (Sum, Product)):
        parts = [degree(k) for k in (e.terms if isinstance(e, Sum) else e.factors)]
        den = sum(d for _, d in parts)
        if isinstance(e, Product):
            return sum(n for n, _ in parts), den
        return max(n + den - d for n, d in parts), den
    if isinstance(e, Quotient):
        (a, b), (c, d) = degree(e.numerator), degree(e.denominator)
        return a + d, b + c
    if _integer_power(e):
        (n, d), k = degree(e.base), e.exponent.value
        return (k * n, k * d) if k >= 0 else (-k * d, -k * n)
    return 1, 0     # a variable or an atom


def well_conditioned(e: Expr, point: dict, cap: float = 1e6) -> bool:
    """True when no subexpression value exceeds `cap` in magnitude; large
    intermediates make float comparisons meaningless (e.g. sin of 1e9)."""
    ok = True

    def walk(x):
        nonlocal ok
        v = in_order(x, point)
        if abs(v) > cap:
            ok = False
        for attr in ("terms", "factors"):
            for k in getattr(x, attr, ()):
                walk(k)
        if isinstance(x, Power):
            walk(x.base), walk(x.exponent)
        elif isinstance(x, Quotient):
            walk(x.numerator), walk(x.denominator)
        elif isinstance(x, Func):
            walk(x.arg)
        return v

    try:
        walk(e)
    except (EvalDomainError, OverflowError):
        return False
    return ok


def random_const(rng: random.Random) -> Const:
    return Const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def random_tree(rng: random.Random, depth: int, names, funcs: bool = True):
    """A random raw expression tree over the given variable names."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return random_const(rng)
        return Var(rng.choice(names))
    kind = rng.randrange(6 if funcs else 5)
    if kind == 0:
        return add(*[random_tree(rng, depth - 1, names, funcs)
                     for _ in range(rng.randint(2, 3))])
    if kind == 1:
        return mul(*[random_tree(rng, depth - 1, names, funcs)
                     for _ in range(rng.randint(2, 3))])
    if kind == 2:
        exponent = Const(Fraction(rng.choice([0, 1, 2, 3, 2, -1])))
        return Power(random_tree(rng, depth - 1, names, funcs), exponent)
    if kind == 3:
        return Quotient(random_tree(rng, depth - 1, names, funcs),
                        random_tree(rng, depth - 1, names, funcs))
    if kind == 4:
        return neg(random_tree(rng, depth - 1, names, funcs))
    return Func(rng.choice(("exp", "log", "sin", "cos", "sqrt")),
                random_tree(rng, depth - 1, names, funcs))


def random_polynomial(rng: random.Random, names, n_terms: int = 3):
    """A small random polynomial: sums of constant * monomial."""
    terms = []
    for _ in range(n_terms):
        factors = [random_const(rng)]
        for _ in range(rng.randint(1, 2)):
            factors.append(Power(Var(rng.choice(names)),
                                 Const(Fraction(rng.randint(1, 3)))))
        terms.append(mul(*factors))
    return add(*terms)
