"""Seeded random expression generators shared by the test modules."""

from fractions import Fraction
import random

from lamsym.expr import (
    Const, Func, Power, Quotient, Var, add, evaluate, mul, neg,
    EvalDomainError, Expr, Product, Sum,
)


def well_conditioned(e: Expr, point: dict, cap: float = 1e6) -> bool:
    """True when no subexpression value exceeds `cap` in magnitude; large
    intermediates make float comparisons meaningless (e.g. sin of 1e9)."""
    ok = True

    def walk(x):
        nonlocal ok
        v = evaluate(x, point)
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
    except EvalDomainError:
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
