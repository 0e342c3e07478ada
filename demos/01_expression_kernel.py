## The expression kernel: parse, differentiate, substitute, simplify,
## and decide whether an expression vanishes identically on a box.

from lamsym import (
    DomainBox,
    ZeroTestConfig,
    compile_expr,
    differentiate,
    format_expr,
    is_identically_zero,
    parse,
    simplify,
    substitute,
)

## Constants are exact rationals all the way through; floating point only
## enters when a tree is compiled to a function of its variables.
e = parse("q^2*p/2 + 0.1*q")
print("parsed:     ", format_expr(e))
print("d/dq:       ", format_expr(simplify(differentiate(e, "q"))))
print("at q=2,p=3: ", compile_expr(e, ("q", "p"))(2.0, 3.0))

## Like terms collect across different syntactic shapes.
print("collected:  ", format_expr(parse("3*q^2+p^2+q^2+3*p^2")))

## Substitution is simultaneous and the right-hand sides are not rescanned.
swap = substitute(parse("q1 - q2"), {"q1": parse("q2"), "q2": parse("q1")})
print("swapped:    ", format_expr(swap))

## Zero testing is two-tier.  A polynomial identity normalizes to the
## literal zero and is proven; a transcendental identity is accepted
## numerically on 100 seeded sample points.
proven = is_identically_zero(parse("(q+p)^2 - q^2 - 2*q*p - p^2"))
print("polynomial identity:     ", proven)

numeric = is_identically_zero(parse("log(q*p) - log(q) - log(p)"))
print("logarithmic identity:    ", numeric)

## A failed identity returns a reproducible witness point.
broken = is_identically_zero(parse("sin(q)^2 + cos(q)^2 - 1 - 1/1000"))
print("broken identity:         ", broken)

## Boxes override the default interval [0.2, 1.2] per variable, and the
## sampling is deterministic for a fixed seed.
box = DomainBox({"q": (5.0, 6.0)})
cfg = ZeroTestConfig(samples=200, seed=42)
print("on a shifted box:        ", is_identically_zero(parse("log(q) - 2"), box, cfg))
