import copy
import gc
import hashlib
import inspect
import math
import os
import pickle
import random
import re
import subprocess
import sys
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import make_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lamsym.expr import (
    Const,
    DomainBox,
    EvalDomainError,
    Expr,
    Func,
    MAX_NESTING,
    MINUS_ONE,
    ParseError,
    Power,
    Product,
    Quotient,
    Record,
    SamplingError,
    Sum,
    Var,
    Verdicts,
    ZERO,
    ZeroTestConfig,
    ZeroVerdict,
    _negate,
    compile_expr,
    compile_exprs,
    differentiate,
    format_expr,
    free_vars,
    is_identically_zero,
    neg,
    parse,
    simplify,
    simplify_memo,
    substitute,
)
from lamsym import expr as expr_mod
from lamsym import lagrangian, lambda_symmetry, mechanics, numeric, runner, symmetry
from lamsym.problem import load_problem
from fractions import Fraction

from gen import in_order, random_tree, well_conditioned


def F(n, d=1):
    return Fraction(n, d)


# ---------------------------------------------------------------- parsing

def test_parse_coefficient_quotient_folds_to_rational():
    e = parse("q1^2*p1/2")
    assert isinstance(e, Product)
    assert Const(F(1, 2)) in e.factors
    assert Power(Var("q1"), Const(F(2))) in e.factors
    assert Var("p1") in e.factors


def test_parse_negated_sum_is_a_minus_one_coefficient():
    e = parse("-(q1*p2+q2*p1)")
    assert isinstance(e, Product) and len(e.factors) == 2
    assert e.factors[0] == MINUS_ONE
    assert isinstance(e.factors[1], Sum)
    assert Product((Var("q1"), Var("p2"))) in e.factors[1].terms


def test_parse_function_requires_parentheses():
    with pytest.raises(ParseError) as err:
        parse("log q1")
    assert err.value.offset == 4


def test_parse_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse("foo(q1)")


def test_parse_reports_offset_of_bad_token():
    with pytest.raises(ParseError) as err:
        parse("q1 + + p1")
    assert err.value.offset == 5


def test_parse_numbers_are_exact_rationals():
    assert parse("0.1") == Const(F(1, 10))
    assert parse("1.5e-3") == Const(F(3, 2000))
    assert parse("2e2") == Const(F(200))


def _timed_parse(text: str):
    """parse(text), or the ParseError it raises, and the seconds it took."""
    start = time.perf_counter()
    try:
        out = parse(text)
    except ParseError as err:
        out = err
    return out, time.perf_counter() - start


@pytest.mark.parametrize("text, offset, message", [
    ("1e999999999", 0, "number with an exponent beyond +-8515"),      # 10^k is never built
    ("x + 1e-8516", 4, "number with an exponent beyond +-8515"),
    ("2*" + "7" * 5000, 2, "number with a part of more than 4300 digits"),
    ("1." + "5" * 4301, 0, "number with a part of more than 4300 digits"),
    ("1e8515", 0, "constant beyond the limit of 14000 bits"),
])
def test_a_literal_beyond_the_constant_limit_is_a_parse_error_at_once(text, offset, message):
    err, seconds = _timed_parse(text)
    assert isinstance(err, ParseError) and str(err) == f"{message} (offset {offset})"
    assert err.offset == offset and seconds < 0.1


@pytest.mark.parametrize("text", ["0e3000000", "0.000e-99999999", "0" * 5000])
def test_a_zero_mantissa_is_zero_whatever_its_exponent(text):
    e, seconds = _timed_parse(text)
    assert e is ZERO and seconds < 0.1


@pytest.mark.parametrize("text", [
    "1e4000", "5e-4214", "2.5e+0", "0.000123e-7", "007.50E2",
    "0" * 4000 + "." + "0" * 400 + "1",     # each part within the limit: 10^-401
    "1" + "0" * 2199 + "." + "0" * 2200,    # 4,400 digits in all: 10^2199
])
def test_a_literal_within_the_limits_keeps_its_value(text):
    assert parse(text) == Const(Fraction(text))


def _canonical(v) -> bool:
    # the one form of a rational value: an int when integral, else a Fraction
    return type(v) is int or type(v) is Fraction and v.denominator > 1


def test_a_constant_holds_its_value_in_canonical_form():
    assert Const(F(6, 3)) is Const(2) and type(Const(F(6, 3)).value) is int
    assert Const(True) is Const(1) and type(Const(True).value) is int
    assert Const(0.5).value == F(1, 2) and type(Const(0.5).value) is Fraction
    assert type(parse("6/3").value) is int and parse("6/3") == Const(2)
    assert type(parse("1/3").value) is Fraction and parse("1/3") == Const(F(1, 3))


@pytest.mark.parametrize("text, printed", [
    ("q/2*2", "q"),                      # a constant divisor
    ("q/(1/2)", "2*q"),
    ("(6*q)/(3*p)", "2*q/p"),            # a quotient's coefficients
    ("(1/2+q)^(-1)/q", "2/(q+2*q^2)"),   # a monic denominator
    ("(q+3)^(-1)/q", "1/3/(q+1/3*q^2)"),
    ("2^-3", "1/8"),                     # a constant to a negative power
    ("(-2)^-3", "-1/8"),
    ("3^-2", "1/9"),
    ("(1/2)^-2", "4"),
    ("4^(1/2)", "2"),                    # an exact root
    ("(4/9)^(1/2)", "2/3"),
])
def test_exact_division_and_powers_keep_canonical_rationals(text, printed):
    e = simplify(parse(text))
    assert format_expr(e) == printed
    assert all(_canonical(x.value) for x in _subtrees(e) if isinstance(x, Const))


def test_a_split_and_a_constant_denominator_divide_exactly():
    c, rest = expr_mod._split_coeff(simplify(parse("2*p+6*q")))
    assert type(c) is int and c == 2 and format_expr(rest) == "p+3*q"
    r = simplify(Quotient(Var("q"), Const(F(1, 2))))
    assert r == Product((Const(2), Var("q"))) and type(r.factors[0].value) is int


def test_parse_power_right_associative():
    e = parse("q^p^2")
    assert e == Power(Var("q"), Power(Var("p"), Const(F(2))))


def test_parse_mixed_precedence():
    assert parse("a+b*c") == Sum((Var("a"), Product((Var("b"), Var("c")))))
    assert parse("-q^2") == Product((MINUS_ONE, Power(Var("q"), Const(F(2)))))


# ---------------------------------------------------------------- simplify

def test_simplify_constant_folding():
    assert simplify(parse("1+1")) == Const(F(2))


def test_simplify_divergence_of_scaling_field():
    phi, psi = parse("q"), parse("p")
    s = differentiate(phi, "q") + differentiate(psi, "p")
    assert simplify(s) == Const(F(2))


def test_simplify_collects_like_terms():
    assert simplify(parse("3*q^2+p^2+q^2+3*p^2")) == simplify(parse("4*q^2+4*p^2"))
    assert simplify(parse("3*q^2+p^2+q^2+3*p^2 - 8*(p^2+q^2)/2")) == Const(F(0))


def test_simplify_cancels_identical_quotient_factors():
    assert simplify(parse("q*p/(p*q)")) == Const(F(1))
    assert simplify(parse("exp(q)*w/exp(q)")) == Var("w")


def _exact_value(e, point):
    """`e` at a rational point in exact arithmetic; ZeroDivisionError where
    it is undefined.  Trees without functions keep integer exponents."""
    t = type(e)
    if t is Const:
        assert _canonical(e.value), e.value
        return e.value
    if t is Var:
        return point[e.name]
    if t is Sum:
        return sum(_exact_value(u, point) for u in e.terms)
    if t is Product:
        return math.prod(_exact_value(f, point) for f in e.factors)
    if t is Quotient:
        return Fraction(_exact_value(e.numerator, point), _exact_value(e.denominator, point))
    x = _exact_value(e.exponent, point)
    assert type(x) is int, x
    return Fraction(_exact_value(e.base, point)) ** x


def test_simplify_keeps_exact_values_at_rational_points():
    # a float that entered a constant through a true division would show
    # here as a binary fraction unequal to the exact value
    rng = random.Random(18)
    compared = 0
    for _ in range(500):
        e = random_tree(rng, 4, ("q", "p"), funcs=False)
        s = simplify(e)
        for _ in range(3):
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in ("q", "p")}
            try:
                want = _exact_value(e, point)
                got = _exact_value(s, point)
            except ZeroDivisionError:
                continue
            assert got == want, (e, s, point)
            compared += 1
    assert compared >= 1000


def _to_sympy(e, sp):
    """The rational tree e (no functions) as a sympy expression."""
    t = type(e)
    if t is Const:
        return sp.Rational(e.value.numerator, e.value.denominator)
    if t is Var:
        return sp.Symbol(e.name)
    if t is Sum:
        return sp.Add(*(_to_sympy(u, sp) for u in e.terms))
    if t is Product:
        return sp.Mul(*(_to_sympy(f, sp) for f in e.factors))
    if t is Quotient:
        return _to_sympy(e.numerator, sp) / _to_sympy(e.denominator, sp)
    return _to_sympy(e.base, sp) ** _to_sympy(e.exponent, sp)


def test_differentiate_agrees_with_sympy_on_rational_trees():
    # an independent oracle: sympy's diff of the same tree, compared by
    # cancel(together(a - b)); a derivative sympy finds undefined is skipped.
    # The normal form must equal its tree wherever sympy defines both, so a
    # tree simplify proves 0 is 0 (plain cancel: sympy 1.14's
    # cancel(together(...)) leaves one such difference as -125/27 + 125/27)
    sp = pytest.importorskip("sympy")
    rng = random.Random(2024)
    undefined = 0
    for _ in range(300):
        e = random_tree(rng, 4, ("q", "p"), funcs=False)
        v = rng.choice(("q", "p"))
        normal, tree = _to_sympy(simplify(e), sp), _to_sympy(e, sp)
        if not any(x.has(sp.zoo, sp.nan, sp.oo) for x in (normal, tree)):
            assert sp.cancel(normal - tree) == 0, e
        got = _to_sympy(differentiate(e, v), sp)
        want = sp.diff(_to_sympy(e, sp), sp.Symbol(v))
        if any(x.has(sp.zoo, sp.nan, sp.oo) for x in (got, want)):
            undefined += 1
            continue
        assert sp.cancel(sp.together(got - want)) == 0, (e, v)
    assert undefined <= 30


def test_simplify_idempotent_on_random_trees():
    rng = random.Random(42)
    for _ in range(300):
        e = random_tree(rng, 4, ("q", "p", "w"))
        s = simplify(e)
        assert simplify(s) == s


def test_simplify_preserves_value():
    rng = random.Random(7)
    box = DomainBox()
    for _ in range(200):
        e = random_tree(rng, 4, ("q", "p"))
        s = simplify(e)
        point = {v: rng.uniform(0.2, 1.2) for v in free_vars(e)}
        if not well_conditioned(e, point):
            continue
        a = in_order(e, point)
        try:
            b = in_order(s, point)
        except EvalDomainError:
            continue
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


# ---------------------------------------------------------------- negation

def _tree(seed: int):
    return random_tree(random.Random(seed), 4, ("q", "p"))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_double_negation_normalizes_to_the_tree(seed):
    t = _tree(seed)
    assert simplify(neg(neg(t))) == simplify(t)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(1065)  # normalizing -1*t as a product reaches another normal form
def test_negation_normalizes_to_the_negated_normal_form(seed):
    t = _tree(seed)
    assert simplify(neg(t)) == _negate(simplify(t))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_compiled_negation_is_minus_the_compiled_tree(seed):
    t = _tree(seed)
    names = ("p", "q")
    plain, negated = compile_expr(t, names), compile_expr(neg(t), names)
    rng = random.Random(seed)
    for _ in range(4):
        args = [rng.uniform(-2.0, 2.0) for _ in names]
        # a zero coefficient folds to +0 under negation, so adding +0.0
        # leaves the sign of a zero result out of the comparison
        want = _outcome(lambda: (-plain(*args) + 0.0).hex())
        assert _outcome(lambda: (negated(*args) + 0.0).hex()) == want


def test_a_negation_sorts_between_powers_and_quotients():
    e = parse("sin(q^2)*sin(y/x)*sin(-q)*sin(p*q)")
    assert format_expr(e) == "sin(q^2)*sin(-q)*sin(y/x)*sin(p*q)"


# ---------------------------------------------------------------- derivative

def test_derivative_of_absent_variable_is_zero():
    assert differentiate(parse("p2"), "q1") == Const(F(0))


def test_derivative_harmonic_hamiltonian():
    h = parse("(p^2+q^2)/2")
    assert simplify(differentiate(h, "p")) == Var("p")


def test_derivative_product_log_example():
    e = parse("q^2*p*log(q)")
    d = simplify(differentiate(e, "q"))
    assert d == simplify(parse("2*q*p*log(q)+q*p"))


def test_derivative_against_finite_differences():
    e = parse("q^2*p*log(q)")
    d = differentiate(e, "q")
    rng = random.Random(3)
    for _ in range(10):
        point = {"q": rng.uniform(0.3, 1.1), "p": rng.uniform(0.3, 1.1)}
        h = 1e-6
        up = in_order(e, {**point, "q": point["q"] + h})
        dn = in_order(e, {**point, "q": point["q"] - h})
        fd = (up - dn) / (2 * h)
        exact = in_order(d, point)
        assert abs(fd - exact) <= 1e-6 * (1 + abs(exact))


# ---------------------------------------------------------------- substitute

def test_substitute_identity():
    e = parse("q1+q2*p1")
    assert substitute(e, {}) == e


def test_substitute_is_simultaneous():
    e = parse("q1+q2")
    out = substitute(e, {"q1": parse("q2"), "q2": parse("q1")})
    assert simplify(out) == simplify(parse("q1+q2"))


def test_substitute_chart_inverse():
    e = parse("q1+q2")
    out = substitute(e, {"q1": parse("w+z"), "q2": parse("w-z")})
    assert simplify(out) == simplify(parse("2*w"))
    rng = random.Random(11)
    for _ in range(5):
        point = {"w": rng.uniform(0.2, 1.2), "z": rng.uniform(0.2, 1.2)}
        assert abs(in_order(out, point) - 2 * point["w"]) < 1e-12


def test_substitute_on_shell_velocity():
    rhs = parse("q1^2*p1*exp(2*q1) - q1")
    out = substitute(parse("dq1"), {"dq1": rhs})
    assert out == rhs


# ---------------------------------------------------------------- evaluate

def test_evaluate_basic():
    assert compile_expr(parse("q*p"), ("q", "p"))(2.0, 3.0) == 6


def test_evaluate_domain_errors():
    with pytest.raises(EvalDomainError):
        compile_expr(parse("log(q1)"), ("q1",))(-1.0)
    with pytest.raises(EvalDomainError):
        compile_expr(parse("sqrt(q)"), ("q",))(-4.0)
    with pytest.raises(EvalDomainError):
        compile_expr(parse("1/q"), ("q",))(0.0)
    with pytest.raises(ValueError, match="unbound"):
        compile_expr(parse("q+p"), ("q",))


def test_evaluate_negative_base_fractional_power_is_domain_error():
    with pytest.raises(EvalDomainError):
        compile_expr(parse("q^(1/2)"), ("q",))(-2.0)


@pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
def test_a_negative_base_to_a_non_finite_power_is_a_domain_error(b):
    # int(b) raises OverflowError for +-inf and ValueError for nan
    with pytest.raises(EvalDomainError, match="^negative base with non-finite exponent$"):
        expr_mod._guard_pow(-2.0, b)
    with pytest.raises(EvalDomainError, match="^negative base with non-finite exponent$"):
        compile_expr(parse("(q-2)^(p*10^300*r)"), ("q", "p", "r"))(1.0, 1e10, b)


def test_a_power_overflows_alike_however_its_exponent_is_spelled():
    # x^3 compiles to (x)**3, x^(4+-1) folds its exponent to 3.0 and x^y
    # calls _pow: each is `**`, which raises the same OverflowError
    outcomes = set()
    for text, args in (("x^3", (1e200,)), ("x^(4+-1)", (1e200,)), ("x^y", (1e200, 3.0))):
        fn = compile_expr(parse(text), ("x", "y")[:len(args)])
        with pytest.raises(OverflowError) as err:
            fn(*args)
        outcomes.add((type(err.value), str(err.value)))
    with pytest.raises(OverflowError) as err:
        1e200 ** 3
    assert outcomes == {(OverflowError, str(err.value))}


def test_a_power_keeps_the_sign_of_a_zero_base_as_float_power_does():
    # (-0.0)**3.0 and (-0.0)**1.0 are -0.0; an exponent that folds to 1
    # leaves the base itself
    assert expr_mod._guard_pow(-0.0, 3.0).hex() == (-0.0).hex()
    for text in ("x^y", "x^3", "x^(4+-1)", "x^(2+-1)", "x^1"):
        fn = compile_expr(parse(text), ("x", "y"))
        assert fn(-0.0, 3.0 if "y" in text else 0.0).hex() == (-0.0).hex(), text
    fuser = expr_mod._Fuser((parse("x^(2+-1)*y"),), ("x", "y"))
    assert fuser.emit(fuser.roots) == ["(_v0*_v1)"]


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_sin_or_cos_of_an_infinite_argument_is_a_domain_error(name):
    fn = compile_expr(parse(f"{name}(q*10^300)"), ("q",))
    assert fn(0.5) == getattr(math, name)(0.5e300)
    for q in (1e10, -1e10):
        with pytest.raises(EvalDomainError, match="^sin or cos of an infinite argument$"):
            fn(q)


def test_generated_code_divides_inline_without_a_helper():
    # a quotient is the float division itself; the one handler of each
    # generated function turns its ZeroDivisionError into a domain error
    assert not any("div" in name for name in expr_mod._COMPILE_ENV)
    fuser = expr_mod._Fuser([parse("x/y + 1/(x-y)"), parse("(x/y)/(x/y + 2)")], ("x", "y"))
    results = fuser.emit(fuser.roots)
    source = "\n".join(fuser.lines + results)
    assert source.count("/") == 3 and "div" not in source     # x/y is bound once
    fn = compile_exprs([parse("x/y + 1/(x-y)"), parse("(x/y)/(x/y + 2)")], ("x", "y"))
    assert set(fn.__code__.co_names) == {"ZeroDivisionError", "ValueError", "_domain_error"}
    assert fn(1.0, 2.0) == (0.5 + 1 / (1.0 - 2.0), 0.5 / 2.5)
    for point in [(1.0, 0.0), (1.0, 1.0), (0.0, -0.0)]:
        with pytest.raises(EvalDomainError, match="^division by zero$"):
            fn(*point)


# ---------------------------------------------------------------- zero test

def test_a_quotient_over_zero_is_never_proven_zero():
    # undefined everywhere, however it is spelled
    for text in ("0*(1/(x-x))", "(x-x)/(x-x)"):
        assert simplify(parse(text)) == Quotient(Const(F(0)), Const(F(0)))
    for text in ("0*(1/(x-x))", "(x-x)/(x-x)", "1/(x-x) - 1/(x-x)", "(x-x)/(x-x) + y - y",
                 "0*(x-x)^(-1)", "0*log(x-x)", "0*log(0)", "0*sqrt(0-1)",
                 "log(x-x)-log(x-x)", "(x-x)^(-1)-(x-x)^(-1)"):
        with pytest.raises(SamplingError):
            is_identically_zero(parse(text))
    assert is_identically_zero(parse("0*(1/x)")).tag == "ProvenZero"


@pytest.mark.parametrize("text", ["log(x-x)", "0^(-1)", "sqrt(0-1)", "(0-8)^(1/3)",
                                  "exp(1/(x-x))", "0*(log(0)+y)", "x^(1/(x-x))"])
def test_an_expression_undefined_everywhere_has_one_normal_form(text):
    # it absorbs every sum, product, power and function it enters
    assert simplify(parse(text)) == Quotient(Const(F(0)), Const(F(0)))


def test_a_verdict_counts_the_samples_it_rejected():
    cfg = ZeroTestConfig(samples=60, seed=3)
    for text, tag in (("(sin(x)^2+cos(x)^2-1)*sqrt(x-7/10)", "NumericallyZero"),
                      ("sqrt(x-7/10)", "NonZero")):
        v = is_identically_zero(parse(text), cfg=cfg)
        assert v.tag == tag
        assert v.samples > 0 and v.rejected > 0
        assert v.samples + v.rejected == cfg.samples
        if tag == "NumericallyZero":
            # the printed verdict does not show the count
            assert str(v) == f"NumericallyZero(max={v.max_residual:.3e}, n={v.samples})"


def test_a_residual_within_its_tolerance_is_numerically_zero():
    tol = 1e-5
    at = ZeroVerdict.within(tol, tol, 999)
    assert (at.tag, at.max_residual, at.samples, at.witness) == ("NumericallyZero", tol, 999, None)
    for residual in (math.nextafter(tol, math.inf), math.inf):
        beyond = ZeroVerdict.within(residual, tol, 999)
        assert (beyond.tag, beyond.max_residual, beyond.samples,
                beyond.witness) == ("NonZero", residual, 999, None)
    # a verdict prints whatever it lacks: no witness, or no residual at all
    assert str(ZeroVerdict.within(0.5, tol, 999)) == "NonZero(residual=5.000e-01)"
    assert str(ZeroVerdict("NonZero", max_residual=None)) == "NonZero"
    assert str(ZeroVerdict("NonZero", 3, 0, 0.25, {"q1": 0.5})) == (
        "NonZero(residual=2.500e-01 at {'q1': 0.5})")


@pytest.mark.parametrize("text, lo, hi", [
    ("x*y", 1e200, 2e200),                 # the product is inf, the residual nan
    ("x*y - 2*x*y", 1e300, 1.5e300),
    ("(x+1)^16 - x", 1e30, 1e31),          # `**` raises a plain OverflowError
    ("x*y - z*w", 1e200, 2e200),           # fsum raises ValueError on inf - inf
    ("x + y", 1.6e308, 1.7e308),           # fsum raises OverflowError
])
def test_a_sample_that_overflows_is_rejected_not_evidence(text, lo, hi):
    e = parse(text)
    box = DomainBox({v: (lo, hi) for v in free_vars(e)})
    with pytest.raises(SamplingError, match="100/100"):
        is_identically_zero(e, box)


@pytest.mark.parametrize("text, lo, hi, cause", [
    ("x*y", 1e200, 2e200, "100 gave a non-finite residual"),
    ("(x+1)^16 - x", 1e30, 1e31, "100 overflowed"),
    ("(x+1)^17 - x", 1e30, 1e31, "100 overflowed"),
])
def test_a_sampling_error_names_the_cause_of_its_rejections(text, lo, hi, cause):
    e = parse(text)
    box = DomainBox({v: (lo, hi) for v in free_vars(e)})
    with pytest.raises(SamplingError) as info:
        is_identically_zero(e, box)
    assert str(info.value) == f"100/100 sample points rejected: {cause}"
    assert info.value.subexpr is None


def test_a_sampling_error_counts_domain_errors_apart_from_overflow():
    # log(x) fails below 0, 10^x overflows above about 308
    e = parse("log(x) + 10^x")
    box = DomainBox({"x": (-3000.0, 3000.0)})
    with pytest.raises(SamplingError) as info:
        is_identically_zero(e, box)
    found = re.fullmatch(r"(\d+)/100 sample points rejected: "
                         r"(\d+) hit domain errors in log\(x\), (\d+) overflowed",
                         str(info.value))
    assert found, str(info.value)
    rejected, domain, overflowed = map(int, found.groups())
    assert domain > 0 and overflowed > 0 and domain + overflowed == rejected
    assert info.value.subexpr == parse("log(x)")


def test_only_the_finite_samples_of_a_partly_overflowing_box_count():
    # x*y overflows on about a tenth of this box
    v = is_identically_zero(parse("x*y - 2*x*y"),
                            DomainBox({"x": (1e307, 1.7e308), "y": (0.5, 1.5)}))
    assert v.tag == "NonZero" and v.rejected > 0
    assert v.samples + v.rejected == 100
    assert math.isfinite(v.max_residual)
    x, y = v.witness["x"], v.witness["y"]
    assert math.isfinite(x * y)


def test_zero_literal_is_proven():
    assert is_identically_zero(parse("0")).tag == "ProvenZero"
    assert is_identically_zero(parse("q-q")).tag == "ProvenZero"


def test_zero_constant_offset_is_nonzero_with_witness():
    v = is_identically_zero(parse("2*q*p - 2*q*p - 1/1000"))
    assert v.tag == "NonZero"
    assert v.witness is not None
    # the witness reproduces its residual
    again = is_identically_zero(parse("2*q*p - 2*q*p - 1/1000"))
    assert again.max_residual == v.max_residual


def test_zero_numeric_tier():
    # identity that the normalizer does not prove: log(q*p) = log q + log p
    e = parse("log(q*p) - log(q) - log(p)")
    v = is_identically_zero(e)
    assert v.tag == "NumericallyZero"
    assert v.samples == 100


def test_zero_deterministic_for_fixed_seed():
    e = parse("sin(q)^2 + cos(q)^2 - 1 + 1/100000")
    a = is_identically_zero(e, cfg=ZeroTestConfig(seed=5))
    b = is_identically_zero(e, cfg=ZeroTestConfig(seed=5))
    assert a == b
    assert a.tag == "NonZero"


def test_zero_respects_box():
    e = parse("q - 5")
    box = DomainBox({"q": (4.9999999999, 5.0000000001)})
    assert is_identically_zero(e, box).ok


def test_sampling_exhaustion_names_subexpression():
    from lamsym.expr import SamplingError
    e = parse("log(-1-q^2) + p")
    with pytest.raises(SamplingError, match="log"):
        is_identically_zero(e)


def test_a_huge_constant_power_stays_unfolded():
    e = simplify(parse("(3/7)^(10^6)"))
    assert isinstance(e, Power)
    assert e.base == Const(F(3, 7)) and e.exponent == Const(F(10**6))
    assert simplify(e) is e
    assert simplify(parse("(3/7)^(10^6)*(3/7)^(-10^6)")) == Const(F(1))
    assert simplify(parse("(-2)^11")) == Const(F(-2048))
    # a root of a constant beyond the float range stays a power too
    assert isinstance(simplify(parse("(10^400)^(1/2)")), Power)
    assert simplify(parse("(8/27)^(2/3)")) == Const(F(4, 9))


def test_a_power_folds_only_within_the_constant_limit():
    # |k| * bits(a) <= MAX_CONST_BITS folds a^k, so no folded constant trips the limit
    assert simplify(parse("2^7000")) == Const(F(2) ** 7000)
    assert isinstance(simplify(parse("2^7001")), Power)
    # 2^65536 has 19,729 digits, past Python's limit on int to text
    assert format_expr(simplify(parse("2^2^2^2^2^2*t"))) == "t*2^2^65536"
    with pytest.raises(ValueError, match="^constant beyond the limit of 14000 bits$"):
        simplify(parse("2^7000*3^4000*5^3000"))


# ---------------------------------------------------------------- format

def test_format_zero_and_power():
    assert format_expr(parse("0")) == "0"
    assert format_expr(Power(Var("q1"), Const(F(2)))) == "q1^2"


def test_format_round_trip_on_random_trees():
    rng = random.Random(123)
    for _ in range(400):
        e = random_tree(rng, 4, ("q", "p", "w1"))
        n = simplify(e)
        assert parse(format_expr(e)) == n


@pytest.mark.parametrize("text", ["q^p^2", "q^(-p)", "q^(1/2)", "(q^p)^2"])
def test_format_power_parentheses(text):
    assert format_expr(parse(text)) == text
    assert parse(text) == simplify(parse(text))


def test_format_round_trips_the_deepest_power_tower():
    e = parse("^".join(["x"] * (MAX_NESTING - 1)))
    assert parse(format_expr(e)) == simplify(e)


def test_format_nested_quotient_parentheses():
    e = Quotient(parse("q+p"), parse("w*v"))
    s = format_expr(e)
    assert parse(s) == simplify(e)


def test_nonzero_witness_reproduces_its_residual():
    from lamsym.expr import Sum, compile_expr
    e = parse("q*p - q*p/2 - 1/100")
    v = is_identically_zero(e)
    assert v.tag == "NonZero"
    z = simplify(e)
    terms = list(z.terms) if isinstance(z, Sum) else [z]
    names = sorted(free_vars(z))
    args = [v.witness[n] for n in names]
    vals = [compile_expr(t, names)(*args) for t in terms]
    scale = 1.0 + max(abs(x) for x in vals)
    resid = abs(math.fsum(vals)) / scale
    assert resid == v.max_residual


# ---------------------------------------------------------------- compiling

def _outcome(fn):
    try:
        return "value", fn()
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)


def test_fused_outputs_match_an_in_order_tree_walk():
    # outputs share the subtrees a and b, so common-subexpression elimination
    # binds them to locals; values must agree bitwise and the first error
    # raised must be the one the outputs raise when evaluated one by one
    rng = random.Random(11)
    names = ("x", "y")
    for _ in range(300):
        a = random_tree(rng, 3, list(names))
        b = random_tree(rng, 3, list(names))
        outputs = [Sum((a, b)), Product((b, a, b)), neg(Func("exp", a)), Quotient(b, a),
                   Power(Sum((a, Const(F(1)))), Const(F(3)))]
        fused = compile_exprs(outputs, names)
        for _ in range(4):
            point = {n: rng.uniform(-2.0, 2.0) for n in names}
            args = [point[n] for n in names]
            want = _outcome(lambda: [in_order(o, point).hex() for o in outputs])
            assert _outcome(lambda: [v.hex() for v in fused(*args)]) == want
            assert _outcome(lambda: compile_expr(outputs[3], names)(*args).hex()) == \
                _outcome(lambda: in_order(outputs[3], point).hex())


def test_a_guarded_power_matches_an_in_order_tree_walk_at_edge_values():
    # random trees reach _pow with negative whole exponents only; x^y calls
    # it on signed zeros, infinities, nan and fractional exponents too
    power = parse("x^y")
    fn = compile_expr(power, ("x", "y"))
    for x in (0.0, -0.0, 2.0, -2.0, 0.5, 1e200, math.inf, -math.inf, math.nan):
        for y in (0.0, 1.0, 3.0, -1.0, 0.5, -2.5, 400.0, math.inf, -math.inf, math.nan):
            want = _outcome(lambda: in_order(power, {"x": x, "y": y}).hex())
            assert _outcome(lambda: fn(x, y).hex()) == want, (x, y)


# runs of constant-only terms: the first five raise, or give a value beyond
# the float range, when evaluated, so compiling leaves them to do so at run
# time; the others fold to 0.1 + 0.2 + 0.3 = 0.6000000000000001 and to -0.0
_NEG_ZERO = Product((MINUS_ONE, Const(F(0))))
_CONSTANT_RUNS = [(Quotient(Const(F(1)), Const(F(0))),), (Func("log", Const(F(-1))),),
                  (Power(Power(Const(F(10)), Const(F(200))), Const(F(2))),),
                  (Func("exp", Const(F(1000))),),
                  (Product((Const(F(10) ** 200), Const(F(10) ** 200))),),
                  (Const(F(1, 10)), Const(F(2, 10)), Const(F(3, 10))), (_NEG_ZERO, _NEG_ZERO)]
_EDGES = (0.0, -0.0, 1.0, -1.0, 2.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324)


def test_folded_constants_match_an_in_order_tree_walk():
    # unsimplified derivatives carry constant-only subtrees (exponents k + -1,
    # factors 1, terms 0 and -1*0) that are evaluated when compiling; values
    # must keep their bits at signed zeros and near the end of the float
    # range, and a constant that raises must raise when evaluated
    rng = random.Random(12)
    names = ("x", "y")
    for i in range(300):
        a = random_tree(rng, 3, list(names))
        da = differentiate(a, "x")
        derivatives = [da, differentiate(da, "y"), differentiate(a, "y")]
        run = Sum(_CONSTANT_RUNS[i % len(_CONSTANT_RUNS)] + (Product((da, Var("y"))),))
        compiled = [(outputs, compile_exprs(outputs, names))
                    for outputs in (derivatives, derivatives + [run])]
        for j in range(6):
            pick = (lambda: rng.choice(_EDGES)) if j % 2 else (lambda: rng.uniform(-2.0, 2.0))
            point = {n: pick() for n in names}
            args = [point[n] for n in names]
            for outputs, fused in compiled:
                want = _outcome(lambda: [in_order(o, point).hex() for o in outputs])
                assert _outcome(lambda: [v.hex() for v in fused(*args)]) == want


def test_a_variable_to_a_power_that_folds_to_zero_is_left_out():
    # v**0 is 1.0 for every float v, nan and inf included, and a variable
    # cannot raise, so x^(1+-1)*y compiles to y; a base that may raise keeps
    # its (b)**0, and an exponent that is node number 0 is not the float 0.0
    names = ("x", "y")
    fuser = expr_mod._Fuser((parse("x^(1+-1)*y"),), names)
    results = fuser.emit(fuser.roots)
    assert "**" not in "".join(fuser.lines + results)
    fn = compile_expr(parse("x^(1+-1)*y"), names)
    for x in (math.nan, math.inf, -math.inf, -0.0):
        for y in (-0.0, 2.5, math.nan, -math.inf):
            assert fn(x, y).hex() == y.hex()
    guarded = parse("log(x)^(1+-1)*y")
    fuser = expr_mod._Fuser((guarded,), names)
    assert "**0" in "".join(fuser.emit(fuser.roots))
    with pytest.raises(EvalDomainError, match="log"):
        compile_expr(guarded, names)(-1.0, 2.0)
    assert compile_expr(parse("x^(y+1)"), names)(2.0, 2.0) == 8.0
    # a base of +, * and variables cannot raise either, and its parents fold
    # over the 1.0; a base with a power in it may overflow and keeps (b)**0
    fuser = expr_mod._Fuser((parse("((x+y)*x)^(1+-1)*2+3"),), names)
    assert fuser.emit(fuser.roots) == ["5.0"] and not fuser.lines
    overflowing = parse("(x^2+y)^(1+-1)*y")
    fuser = expr_mod._Fuser((overflowing,), names)
    assert "**0" in "".join(fuser.emit(fuser.roots))
    with pytest.raises(OverflowError):
        compile_expr(overflowing, names)(1e200, 2.0)


def test_fused_evaluator_binds_a_shared_subtree_once():
    fn = compile_exprs([parse("exp(x*y)+1"), parse("2*exp(x*y)")], ("x", "y"))
    assert fn(0.5, 2.0) == (math.exp(1.0) + 1, 2 * math.exp(1.0))
    assert sum(v.startswith("_t") for v in fn.__code__.co_varnames) == 1


def test_compiling_leaves_no_reference_cycle():
    # neither the fuser's recursive operand walk nor the function it defines
    # is left in a cycle that only the collector could free
    shared = parse("exp(x*y)")
    trees = [shared * parse("x+y") + 1 / shared, parse("(x+y)^2") * shared]
    gc.collect()
    gc.disable()
    try:
        compile_exprs(trees, ("x", "y"))(0.5, 2.0)
        compile_expr(trees[0], ("x", "y"))(0.5, 2.0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fused_evaluator_raises_the_first_error_in_tree_order():
    # sqrt(y) is shared and bound to a local, but log(x) comes first
    fn = compile_expr(parse("log(x) + sqrt(y)*sqrt(y)"), ("x", "y"))
    with pytest.raises(EvalDomainError, match="log"):
        fn(-1.0, -1.0)


def test_constant_beyond_float_range_is_a_value_error():
    message = "^constant of 401 digits is beyond the float range$"
    with pytest.raises(ValueError, match=message):
        compile_expr(simplify(parse("10^400*x")), ("x",))
    with pytest.raises(ValueError, match=message):
        compile_exprs([parse("x"), Const(F(10) ** 400)], ("x",))
    with pytest.raises(ValueError, match=message):
        compile_exprs([parse("x"), Const(F(10 ** 401, 3))], ("x",))
    # the digits are counted without str, whatever Python's limit on int to text
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match="^constant of 4001 digits is beyond the float range$"):
            compile_exprs([parse("x"), Const(F(10) ** 4000)], ("x",))
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- memo, hashes

def _family(seed: int) -> list:
    """Random trees that share subtrees, so that a memo has hits."""
    rng = random.Random(seed)
    a = random_tree(rng, 3, ("q", "p"))
    b = random_tree(rng, 3, ("q", "p"))
    return [a, b, a + b, (a * b) - b, Quotient(a, b + 1), simplify(a) * b,
            random_tree(random.Random(seed), 3, ("q", "p"))]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_memoized_simplify_equals_unmemoized(seed):
    trees = _family(seed)
    plain = [simplify(e) for e in trees]
    with simplify_memo():
        memoized = [simplify(e) for e in trees]
        again = [simplify(e) for e in trees]
        renormalized = [simplify(n) for n in memoized]
    assert memoized == plain
    assert again == plain
    assert renormalized == plain


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_simplify_idempotent_inside_and_outside_the_memo(seed):
    for e in _family(seed):
        n = simplify(e)
        assert simplify(n) == n
        with simplify_memo():
            assert simplify(simplify(e)) == simplify(e) == n


def test_equal_trees_have_equal_cached_hashes():
    # interned: two separately built equal trees are one node, and pickle,
    # copy and deepcopy hand that node back
    rng = random.Random(5)
    for _ in range(200):
        seed = rng.random()
        a = random_tree(random.Random(seed), 4, ("q", "p"))
        b = random_tree(random.Random(seed), 4, ("q", "p"))
        assert a is b
        assert Expr.__hash__ is object.__hash__ and Expr.__eq__ is object.__eq__
        assert pickle.loads(pickle.dumps(a)) is a
        assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert parse("q*p+sin(q)") is parse("q*p+sin(q)")
    assert hash(Power(Var("q"), Var("p"))) != hash(Quotient(Var("q"), Var("p")))
    with pytest.raises(AttributeError, match="immutable"):
        Var("q").name = "p"


def test_the_intern_table_releases_unreferenced_nodes():
    before = len(expr_mod._TABLE)
    e = parse("sin(release_probe^3 + 7/11)*release_probe")
    alive = weakref.ref(e)
    assert (Var, "release_probe") in expr_mod._TABLE
    assert len(expr_mod._TABLE) > before
    del e
    gc.collect()
    assert alive() is None
    assert (Var, "release_probe") not in expr_mod._TABLE
    assert len(expr_mod._TABLE) <= before


def test_dropped_trees_leave_the_intern_table_as_it_was():
    # an entry holds its node's children, not the node, and goes when the
    # node dies; so dropping a scope's trees, their normal forms and their
    # derivatives drops every entry they made, and no entry outlives its node.
    # Generated code holds no node, so the code kept for the trees that hold
    # table_probe, which no other test builds, goes too
    gc.collect()
    before, generated = len(expr_mod._TABLE), len(expr_mod._GENERATED)
    names = ("q", "p", "table_probe")
    rng = random.Random(26)
    with simplify_memo():
        kept = []
        for _ in range(1000):
            e = random_tree(rng, 4, names)
            kept += [e, simplify(e), differentiate(e, "q")]
            if "table_probe" in free_vars(kept[-2]):
                compile_expr(kept[-2], names)
        assert len(expr_mod._TABLE) > before
        assert len(expr_mod._GENERATED) > generated
    del kept, e
    gc.collect()
    assert len(expr_mod._TABLE) == before
    assert len(expr_mod._GENERATED) == generated
    assert all(ref() is not None for ref in list(expr_mod._TABLE.values()))


def test_threads_building_the_same_trees_get_identical_nodes():
    def build(probe):
        rng = random.Random(99)
        return [random_tree(rng, 5, ("q", "p", probe)) for _ in range(300)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that builds race
    try:
        with ThreadPoolExecutor(4) as pool:
            for probe in ("thread_probe1", "thread_probe2", "thread_probe3"):
                built = list(pool.map(build, [probe] * 4))
                for other in built[1:]:
                    assert all(a is b for a, b in zip(built[0], other))
    finally:
        sys.setswitchinterval(interval)


def test_free_vars_is_cached_per_node():
    e = parse("q1*p1 + sin(q2)/p2")
    assert free_vars(e) == {"q1", "p1", "q2", "p2"}
    assert free_vars(e) is free_vars(e)


def _sin_nest(depth: int):
    e = Var("x")
    for _ in range(depth):
        e = Func("sin", e)
    return e


def test_deep_equal_trees_compare_without_recursion():
    assert _sin_nest(800) == _sin_nest(800)
    with simplify_memo():
        e = simplify(_sin_nest(800))
        assert simplify(_sin_nest(800)) is e


def test_deep_sin_nest_simplifies_inside_and_outside_the_memo():
    # already normal, so simplify hands back the input itself
    e = _sin_nest(800)
    assert simplify(e) is e
    with simplify_memo():
        e = _sin_nest(800)
        assert simplify(e) is e
        assert simplify(simplify(e)) is e


def test_run_checks_drops_the_memo_on_return_and_on_raise(monkeypatch):
    problem = load_problem(str(Path(runner.__file__).parent / "problems" / "example1.json"))
    seen = []
    check = runner.CHECKS["cs"]
    original = check.fn

    def spy(*args):
        seen.append(expr_mod._MEMO.get())
        return original(*args)

    monkeypatch.setitem(runner.CHECKS, "cs", runner.Check(check.tag, spy, check.needs))
    assert runner.run_checks(problem, ("cs",)).status == "pass"
    assert isinstance(seen[0], dict) and seen[0]
    assert expr_mod._MEMO.get() is None

    def boom(*args):
        simplify(parse("q1*p1+q1*p1"))
        raise KeyError("boom")

    monkeypatch.setitem(runner.CHECKS, "cs", runner.Check(check.tag, boom, check.needs))
    with pytest.raises(KeyError):
        runner.run_checks(problem, ("cs",))
    assert expr_mod._MEMO.get() is None


def _reference_sort_key(e):
    # the sort key computed afresh on every call: the reference for the cached one
    if isinstance(e, Const):
        return (0, str(e.value))
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Func):
        return (2, e.name, _reference_sort_key(e.arg))
    if isinstance(e, Power):
        return (3, _reference_sort_key(e.base), _reference_sort_key(e.exponent))
    if isinstance(e, Quotient):
        return (5, _reference_sort_key(e.numerator), _reference_sort_key(e.denominator))
    if isinstance(e, Product):
        f = e.factors
        if isinstance(f[0], Const) and f[0].value == -1:
            return (4, _reference_sort_key(f[1] if len(f) == 2 else Product(f[1:])))
        return (6, len(f)) + tuple(_reference_sort_key(x) for x in f)
    return (7, len(e.terms)) + tuple(_reference_sort_key(t) for t in e.terms)


def _subtrees(e):
    todo, seen = [e], []
    while todo:
        x = todo.pop()
        seen.append(x)
        todo.extend(expr_mod._KIDS.get(type(x), lambda _: ())(x))
    return seen


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cached_sort_key_equals_the_uncached_key(seed):
    rng = random.Random(seed)
    for _ in range(4):
        e = random_tree(rng, 4, ("q", "p", "w"))
        for x in _subtrees(e) + _subtrees(simplify(e)):
            assert expr_mod._sort_key(x) == _reference_sort_key(x)
            assert expr_mod._sort_key(x) is x._sk


def _continued_fraction(levels: int) -> str:
    text = "x"
    for _ in range(levels):
        text = f"1/(1+{text})"
    return text


def test_nested_quotient_takes_linearly_many_quotient_steps(monkeypatch):
    # each level used to double the _norm_quotient calls: 2^(k+2) - 1 at k
    # levels, about 4 * 10^9 at 30
    e = parse(_continued_fraction(30))
    calls = []
    step = expr_mod._norm_quotient

    def counted(num, den):
        calls.append(1)
        assert len(calls) <= 4 * 30  # 59 calls; fails fast rather than hang
        return step(num, den)

    monkeypatch.setattr(expr_mod, "_norm_quotient", counted)
    outside = simplify(e)
    assert calls
    calls.clear()
    text = format_expr(e)
    assert calls
    with simplify_memo():
        calls.clear()
        assert simplify(e) is outside
        assert calls
        assert format_expr(e) == text
    assert parse(text) is outside


def test_zero_test_verdicts_are_remembered_per_residual_box_and_config():
    r = parse("x/1000000")
    box = DomainBox({"x": (0.2, 1.2)})
    cfg = ZeroTestConfig(samples=20, seed=1, abs_tol=1e-9)
    variants = [
        (DomainBox({"x": (2.0, 3.0)}), cfg),
        (box, ZeroTestConfig(samples=20, seed=2, abs_tol=1e-9)),
        (box, ZeroTestConfig(samples=21, seed=1, abs_tol=1e-9)),
        (box, ZeroTestConfig(samples=20, seed=1, abs_tol=1e-3)),
    ]
    fresh = [is_identically_zero(r, b, c) for b, c in variants]
    with simplify_memo():
        base = is_identically_zero(r, box, cfg)
        assert base.tag == "NonZero"
        # a variable the residual does not contain leaves the key unchanged
        assert is_identically_zero(r, DomainBox({"x": (0.2, 1.2), "y": (5.0, 6.0)}), cfg) is base
        for (b, c), want in zip(variants, fresh):
            assert want != base
            assert is_identically_zero(r, b, c) == want
        assert is_identically_zero(r, box, cfg) is base
        # an equal config is the same key
        assert is_identically_zero(r, box, ZeroTestConfig(samples=20, seed=1)) is base
    with simplify_memo():
        # a sampling error is raised again, not remembered
        for _ in range(2):
            with pytest.raises(SamplingError):
                is_identically_zero(parse("log(x)"), DomainBox({"x": (-2.0, -1.0)}))


def _verdict_or_error(e, box, cfg):
    try:
        return is_identically_zero(e, box, cfg)
    except SamplingError as err:
        return str(err)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_verdict_taken_twice_in_a_scope_equals_a_fresh_scope(seed):
    rng = random.Random(seed)
    residuals = [random_tree(rng, 3, ("q", "p")) for _ in range(4)]
    box = DomainBox({"q": (0.5, 1.5)})
    cfg = ZeroTestConfig(samples=30, seed=seed % 7)
    fresh = []
    for e in residuals:
        with simplify_memo():
            fresh.append(_verdict_or_error(e, box, cfg))
    with simplify_memo():
        for _ in range(2):
            assert [_verdict_or_error(e, box, cfg) for e in residuals] == fresh


def test_box_points_are_the_uniform_draws_of_a_seeded_generator():
    box = DomainBox({"a": (-3, 2), "b": (0.5, 0.75), "c": (-1e6, 1e-3)})
    names = ["b", "a", "c", "d"]
    rng = random.Random(11)
    want = [[rng.uniform(*box.interval(n)) for n in names] for _ in range(50)]
    got = list(box.points(names, 11, 50))
    assert [[x.hex() for x in p] for p in got] == [[x.hex() for x in p] for p in want]


class _CountingMemo(dict):
    # a scope memo that counts, per normalizer step, the lookups that missed
    # and the results stored
    def __init__(self):
        super().__init__()
        self.misses, self.stores = Counter(), Counter()

    def get(self, key, default=None):
        r = super().get(key, default)
        if r is None and type(key) is tuple:
            self.misses[getattr(key[0], "__name__", None)] += 1
        return r

    def __setitem__(self, key, value):
        if type(key) is tuple:
            self.stores[getattr(key[0], "__name__", None)] += 1
        super().__setitem__(key, value)


def test_example6_full_order_normalizer_and_sampling_work_is_bounded(monkeypatch):
    # step computations (memo misses) and sampled verdicts of one run; without
    # the step memo the run takes 2,075 steps, without the verdict memo it
    # samples 37 times
    problem = load_problem(str(Path(runner.__file__).parent / "problems" / "example6.json"))
    sampled = []
    sample = expr_mod._sampled_verdict
    monkeypatch.setattr(expr_mod, "_sampled_verdict", lambda *a: sampled.append(a) or sample(*a))
    memo = _CountingMemo()
    token = expr_mod._MEMO.set(memo)  # run_checks shares this scope
    try:
        report = runner.run_checks(problem)
    finally:
        expr_mod._MEMO.reset(token)
    assert report.status == "pass"
    names = ("_norm_sum", "_norm_product", "_norm_quotient", "_norm_power", "_norm_func")
    steps = {name: memo.stores[name] for name in names}
    # each step looks itself up before it computes and stores once after: a
    # lost lookup stores on every call, a lost store misses on every call
    for name in names + ("_split_coeff",):
        assert memo.misses[name] == memo.stores[name] > 0, name
    sampled_count = len(sampled)
    assert sum(steps.values()) <= 1000   # 915 with the step memo
    assert steps["_norm_power"] <= 40     # 29; 367 without it
    assert sampled_count <= 20            # 17


@pytest.mark.parametrize("number", range(1, 8))
def test_a_full_order_run_draws_each_point_set_once_and_samples_as_outside_a_scope(
        number, monkeypatch):
    # the zero tests of one run read their points from the scope: one draw per
    # variables, intervals, seed and count, and every sampled verdict (or
    # sampling error) is the one the same residual gets outside any scope
    problem = load_problem(str(Path(runner.__file__).parent / "problems" / f"example{number}.json"))
    draws, sampled = [], []
    points, sample = DomainBox.points, expr_mod._sampled_verdict

    def drawn(box, names, seed, count):
        draws.append((tuple(names), tuple(map(box.interval, names)), seed, count))
        return points(box, names, seed, count)

    def verdict_or_error(*args):
        try:
            return sample(*args)
        except SamplingError as err:
            return str(err)

    def recorded(*args):
        try:
            verdict = sample(*args)
        except SamplingError as err:
            sampled.append((args, str(err)))
            raise
        sampled.append((args, verdict))
        return verdict

    monkeypatch.setattr(DomainBox, "points", drawn)
    monkeypatch.setattr(expr_mod, "_sampled_verdict", recorded)
    runner.run_checks(problem)
    monkeypatch.undo()
    assert draws and len(draws) == len(set(draws))
    assert sampled and expr_mod._MEMO.get() is None
    for args, outcome in sampled:
        assert verdict_or_error(*args) == outcome


# sha256 of the printed normal forms that `simplify` produced in full-order
# runs of the seven bundled examples, one scope per example: 858 forms, the
# same at every zero-test seed, since sampling builds no tree
_EXAMPLE_NORMAL_FORMS_SHA256 = "9dd89d4107ac04b3584a444071c163bc9d894d78f0f81d0f72ef80ee94b988e5"


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_bundled_examples_keep_their_recorded_normal_forms(seed):
    problems = Path(runner.__file__).parent / "problems"
    forms = []
    for number in range(1, 8):
        problem = load_problem(str(problems / f"example{number}.json"))
        with simplify_memo():
            memo = expr_mod._MEMO.get()
            runner.run_checks(problem, cfg=ZeroTestConfig(seed=seed))
            # a node key maps a tree or a normal form to its normal form
            normal = {v for k, v in list(memo.items()) if isinstance(k, Expr)}
        forms += map(format_expr, normal)
    assert len(forms) == 858
    digest = hashlib.sha256("".join(f"{f}\n" for f in sorted(forms)).encode())
    assert digest.hexdigest() == _EXAMPLE_NORMAL_FORMS_SHA256


def _reference_split(n):
    # the split computed afresh on every call: the reference for the remembered one
    if isinstance(n, Const):
        return n.value, expr_mod.ONE
    if isinstance(n, Product) and isinstance(n.factors[0], Const):
        rest = n.factors[1:]
        return n.factors[0].value, rest[0] if len(rest) == 1 else Product(rest)
    if isinstance(n, Quotient) and n.denominator != expr_mod.ZERO:
        c, r = _reference_split(n.numerator)
        return c, Quotient(r, n.denominator)
    if isinstance(n, Sum):
        c0, _ = _reference_split(n.terms[0])
        if c0 == 1:
            return 1, n
        parts = []
        for t in n.terms:
            tc, tr = _reference_split(t)
            parts.append(expr_mod._join_coeff(Fraction(tc, c0), tr))
        return c0, Sum(tuple(parts))
    return 1, n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_remembered_split_equals_the_uncached_split(seed):
    rng = random.Random(seed)
    for _ in range(4):
        n = simplify(random_tree(rng, 4, ("q", "p", "w")))
        want = [_reference_split(x) for x in _subtrees(n)]
        with simplify_memo():
            for _ in range(2):  # computed, then remembered
                got = [expr_mod._split_coeff(x) for x in _subtrees(n)]
                assert got == want
                assert all(_canonical(c) for c, _ in got)
        assert all(_canonical(x.value) for x in _subtrees(n) if isinstance(x, Const))


def _holds_a_node(value) -> bool:
    if isinstance(value, Expr):
        return True
    return isinstance(value, (tuple, frozenset)) and any(map(_holds_a_node, value))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_only_structural_fields_hold_nodes(seed):
    # a node's own class declares its structural fields; a cache slot that
    # held a node (say a split whose rest is the node itself) would send a
    # walker over every slot, such as perfbench's node counter, round a loop
    rng = random.Random(seed)
    with simplify_memo():
        for _ in range(4):
            e = random_tree(rng, 4, ("q", "p", "w"))
            n = simplify(e)
            d = simplify(differentiate(e, "q"))
            for x in _subtrees(e) + _subtrees(n) + _subtrees(d):
                expr_mod._sort_key(x)
                free_vars(x)
                for cls in type(x).__mro__[1:]:
                    for slot in getattr(cls, "__slots__", ()):
                        value = getattr(x, slot, None)
                        assert not _holds_a_node(value), slot
                        # nor may a slot hold another type of the kernel,
                        # which that counter would take for a node
                        assert type(value).__module__ != expr_mod.__name__, slot


# sha256 of the printed normal forms of 1,000 seeded random trees and of their
# q-derivatives, recorded before the kernel dropped its structural hashes and
# moved by trees 278, 830 and 847 when the derivative of B^0 became 0*B^0
_NORMAL_FORMS_SHA256 = "097c4969dbffd5bf26aabf29555d1402d0b2e19f959638514e2e78076de96b59"


def test_random_trees_keep_their_recorded_normal_forms():
    rng = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(1000):
        e = random_tree(rng, 4, ("q", "p"))
        n, dn = simplify(e), simplify(differentiate(e, "q"))
        digest.update(f"{format_expr(n)}\n{format_expr(dn)}\n".encode())
    assert digest.hexdigest() == _NORMAL_FORMS_SHA256


def test_the_derivative_of_a_zeroth_power_is_zero_where_the_power_is_one():
    # simplify(B^0) is 1 wherever B is defined, so its derivative is 0 there
    # rather than the power rule's 0*B^-1*B', which is 0/0 when B is 0; a B
    # undefined everywhere keeps 0/0 both ways
    q = Var("q")
    assert simplify(differentiate(Power(neg(q) + q, Const(0)), "q")) == Const(0)
    assert format_expr(simplify(differentiate(Power(Func("log", q - q), Const(0)), "q"))) \
        == "0/0"
    rng = random.Random(15)
    trees = [random_tree(rng, 4, ("q", "p")) for _ in range(1000)]
    for i in (278, 830, 847):
        d = simplify(differentiate(trees[i], "q"))
        assert d is simplify(differentiate(simplify(trees[i]), "q"))
        assert format_expr(d) != "0/0"


def test_a_700_level_exponential_nest_simplifies():
    # the exponential merge of e*2+1 takes one _norm_product step per level;
    # each step looks itself up in its own frame, so a level costs one frame
    e = Var("x")
    for _ in range(700):
        e = Func("exp", e)
    assert simplify(e * 2 + 1) is Sum((expr_mod.ONE, Product((Const(2), e))))


def test_a_987_level_exponential_nest_prints():
    # the deepest nest simplify handles in a script; the printer takes one
    # frame per level, so it prints it too (it reached 494 levels at two).
    # The limit leaves a margin over the ~993 frames the print needs, and
    # stays well under the ~1980 that two frames per level would need.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys\nsys.setrecursionlimit(1100)\n"
            "from lamsym.expr import Func, Var, format_expr\n"
            "e = Var('x')\n"
            "for _ in range(987):\n"
            "    e = Func('exp', e)\n"
            "print(format_expr(e * 2 + 1))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == "1+2*" + "exp(" * 987 + "x" + ")" * 987 + "\n"


# ---------------------------------------------------------------- nesting guard

_NESTINGS = {
    "parentheses": lambda k: "(" * k + "x" + ")" * k,
    "functions": lambda k: "sin(" * k + "x" + ")" * k,
    "power tower": lambda k: "^".join(["x"] * (k + 1)),
    "division chain": lambda k: "/".join(["x", "y"] * k),
    "sums in products": lambda k: "x*(1+" * k + "y" + ")" * k,
    "negated sums": lambda k: "-(x+" * k + "y" + ")" * k,
    "unary minus": lambda k: "-" * k + "x",
}


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_every_tree_the_parser_accepts_is_handled(shape):
    make = _NESTINGS[shape]
    k = 1
    while True:
        try:
            parse(make(k + 1))
        except ParseError:
            break
        k += 1
        assert k <= 2 * MAX_NESTING
    e = parse(make(k))
    n = simplify(e)
    differentiate(e, "x")
    compile_exprs([e, n], ("x", "y"))
    format_expr(e)


def test_parse_rejects_deep_nesting_with_a_parse_error():
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" * 3000 + "x" + ")" * 3000)
    with pytest.raises(ParseError, match="nested deeper"):
        parse("/".join(["x", "y"] * 3000))


# ---------------------------------------------------------------- records

def _records() -> list:
    """One record of each class, through its constructor."""
    x, y = Var("q1"), Var("p1")
    checks = (("a", ZeroVerdict("ProvenZero")), ("b", ZeroVerdict("NumericallyZero", 20)))
    lam = lambda_symmetry.LambdaMatrix.diagonal([0, Var("dq1")])
    record = runner.CheckRecord("cs", "CS", "NonZero", 0.5, {"q1": 0.25}, "why", 1.5)
    return [
        DomainBox({"q1": (0.1, 1.0)}),
        ZeroTestConfig(samples=20, seed=3),
        ZeroVerdict("NonZero", 5, 1, 0.5, {"q1": 0.3}),
        Verdicts(checks),
        mechanics.PhaseVectorField((x,), (y,), 2),
        symmetry.GeneratingFunctionReport(checks, True, False, x * y, checks),
        symmetry.CaseClassification(symmetry.CASE_CONSTANT_S, x, None, ZeroVerdict("ProvenZero")),
        lam,
        lambda_symmetry.ReductionChart((x,), y, {"q1": Var("w1"), "p1": Var("z")}),
        # two classes with equal fields
        lambda_symmetry.LambdaConstantGReport(checks, x, y, ZERO),
        lambda_symmetry.LambdaConstantSReport(checks, x, y, ZERO),
        lambda_symmetry.ReducedSystem(checks, (x,), y, (ZERO, x), (True, False)),
        lambda_symmetry.SeparatedGReport(checks, None),
        lagrangian.ConfigVectorField((x, 1)),
        lagrangian.LegendreReport(checks, 1.0),
        lagrangian.LambdaExtensionReport(checks, lam, True),
        lagrangian.ScalarConditionReport((), None, False, "no scalar reduction"),
        numeric.Trajectory(("q1", "p1"), 0.0, 0.1, np.arange(6.0).reshape(3, 2)),
        numeric.MonitorSeries("E", 0.0, 0.1, np.ones(3), "stopped"),
        load_problem(str(Path(runner.__file__).parent / "problems" / "example2.json")),
        record,
        runner.Report("p", 3, [record]),
        runner.CHECKS["cs"],
    ]


_RECORDS = _records()


def _assert_same_fields(a, b):
    assert type(a) is type(b)
    for name in a._fields:
        u, v = getattr(a, name), getattr(b, name)
        assert np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v, name


def _all_record_classes(cls=Record) -> set:
    return {c for sub in cls.__subclasses__() for c in {sub} | _all_record_classes(sub)}


def test_every_record_class_has_a_sample():
    assert {type(r) for r in _RECORDS} == _all_record_classes()
    assert len(_all_record_classes()) == 23


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in record._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
def test_records_compare_and_hash_by_field_as_the_dataclasses_did(record):
    cls, values = type(record), record._values()
    twin = pickle.loads(pickle.dumps(record))
    # the dataclass the record replaces: its repr, and its equality only
    # between instances of one class
    reference = make_dataclass(cls.__name__, record._fields, frozen=True)(*values)
    assert repr(record) == repr(reference)
    assert record != reference and record != values
    assert all(record != other for other in _RECORDS if type(other) is not cls)
    if any(isinstance(v, np.ndarray) for v in values):
        with pytest.raises(ValueError):
            record == twin
    else:
        assert record == twin
    try:
        hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
def test_records_copy_pickle_and_rebuild_with_the_same_fields(record):
    _assert_same_fields(record, copy.copy(record))
    _assert_same_fields(record, copy.deepcopy(record))
    _assert_same_fields(record, pickle.loads(pickle.dumps(record)))
    # the constructor takes the fields by name, in field order; a derived
    # field is no parameter
    params = list(inspect.signature(type(record)).parameters)
    assert params == [f for f in record._fields if f != "velocity_dependent"]
    _assert_same_fields(record, type(record)(**{f: getattr(record, f) for f in params}))


def test_reports_keep_their_verdicts_first():
    reports = {c for c in _all_record_classes() if issubclass(c, Verdicts)}
    assert len(reports) == 9
    for cls in reports:
        assert cls._fields[0] == "checks"
        assert next(iter(inspect.signature(cls).parameters)) == "checks"
