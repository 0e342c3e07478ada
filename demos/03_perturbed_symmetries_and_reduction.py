## Perturbed (lambda) symmetries: a field that is not an exact symmetry
## can satisfy the matrix-modified condition, its generating function
## then obeys a controlled deviation law, and invariant coordinates
## reduce the equations with certified z-dependence.

from lamsym import (
    LambdaMatrix,
    PhaseSystem,
    PhaseVectorField,
    ReductionChart,
    check_first_integral,
    check_lambda_constant_G,
    check_lambda_symmetry,
    check_point_symmetry,
    check_separated_G,
    format_expr,
    parse,
    reduced_system,
    scalar_lambda_reduction,
    verify_chart,
)

## Two crossed degrees of freedom; the momentum shift d/dp1 + d/dp2 is
## not a symmetry, but it is a lambda-symmetry with diag(0,0,1,1).
sys = PhaseSystem(2, parse("-(q1*p2+q2*p1) + (p1-p2)^2/2"))
x = PhaseVectorField((parse("0"), parse("0")), (parse("1"), parse("1")))
lam = LambdaMatrix.diagonal([0, 0, 1, 1])

print("exact symmetry:    ", check_point_symmetry(sys, x).holds)
print("perturbed symmetry:", check_lambda_symmetry(sys, x, lam).holds)

## Lambda Phi is a scalar multiple of Phi here, so the conserved-quantity
## deviation collapses to a single scalar factor.
scalar = scalar_lambda_reduction(sys, x, lam)
print("scalar factor:     ", format_expr(scalar))

rep = check_lambda_constant_G(sys, x, lam, parse("q1+q2"))
print("deviation law:     ", rep.holds, " dG/dt =", format_expr(rep.rate))

## Invariant coordinates w with X w = 0 and a coordinate z with X z = 1.
chart = ReductionChart(
    w=(parse("q1-q2"), parse("p1-p2"), parse("q1+q2")),
    z=parse("(p1+p2)/2"),
    inverse={"q1": parse("(w1+w3)/2"), "q2": parse("(w3-w1)/2"),
             "p1": parse("z+w2/2"), "p2": parse("z-w2/2")})
print("\nchart verifies:    ", verify_chart(sys, x, chart).holds)

rs = reduced_system(sys, x, lam, chart)
for name, rhs in zip(("w1", "w2", "w3"), rs.w_rhs):
    print(f"d{name}/dt =", format_expr(rhs))
print("dz/dt =", format_expr(rs.z_rhs))
print("z-free flags:", rs.z_free)

## The equation for G = w3 involves only (t, G): it separates, and
## inverting its solution produces an explicitly time-dependent integral.
sep = check_separated_G(sys, x, lam, chart, g_index=2)
print("\nseparated equation: dG/dt =", format_expr(sep.gamma))
print("(q1+q2)*exp(t) conserved:",
      check_first_integral(sys, parse("(q1+q2)*exp(t)")).ok)
