import copy
import gc
import math
import pickle
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lamsym.expr import (
    Const,
    DomainBox,
    EvalDomainError,
    Func,
    MAX_NESTING,
    MINUS_ONE,
    ParseError,
    Power,
    Product,
    Quotient,
    SamplingError,
    Sum,
    Var,
    ZeroTestConfig,
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
from lamsym import runner
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


def test_only_the_finite_samples_of_a_partly_overflowing_box_count():
    # x*y overflows on about a tenth of this box
    v = is_identically_zero(parse("x*y - 2*x*y"),
                            DomainBox({"x": (1e307, 1.7e308), "y": (0.5, 1.5)}))
    assert v.tag == "NonZero" and v.rejected > 0
    assert v.samples + v.rejected == 100
    assert math.isfinite(v.witness_residual)
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
    assert again.witness_residual == v.witness_residual


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
    assert resid == v.witness_residual


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


def test_fused_evaluator_binds_a_shared_subtree_once():
    fn = compile_exprs([parse("exp(x*y)+1"), parse("2*exp(x*y)")], ("x", "y"))
    assert fn(0.5, 2.0) == (math.exp(1.0) + 1, 2 * math.exp(1.0))
    assert sum(v.startswith("_t") for v in fn.__code__.co_varnames) == 1


def test_fused_evaluator_raises_the_first_error_in_tree_order():
    # sqrt(y) is shared and bound to a local, but log(x) comes first
    fn = compile_expr(parse("log(x) + sqrt(y)*sqrt(y)"), ("x", "y"))
    with pytest.raises(EvalDomainError, match="log"):
        fn(-1.0, -1.0)


def test_constant_beyond_float_range_is_a_value_error():
    with pytest.raises(ValueError, match="float range"):
        compile_expr(simplify(parse("10^400*x")), ("x",))
    with pytest.raises(ValueError, match="float range"):
        compile_exprs([parse("x"), Const(F(10) ** 400)], ("x",))


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
        assert a._hash == hash(a)
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

    monkeypatch.setitem(runner.CHECKS, "cs", replace(check, fn=spy))
    assert runner.run_checks(problem, ("cs",)).status == "pass"
    assert isinstance(seen[0], dict) and seen[0]
    assert expr_mod._MEMO.get() is None

    def boom(*args):
        simplify(parse("q1*p1+q1*p1"))
        raise KeyError("boom")

    monkeypatch.setitem(runner.CHECKS, "cs", replace(check, fn=boom))
    with pytest.raises(KeyError):
        runner.run_checks(problem, ("cs",))
    assert expr_mod._MEMO.get() is None


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
