## From an invariant Lagrangian to a perturbed-symmetric Hamiltonian
## system: invariance of L, extension of the field and of the matrix to
## phase space, Legendre verification, the on-shell conservation rate,
## and the partial reduction through differential invariants.

from lamsym import (
    ConfigVectorField,
    LagrangianSystem,
    LambdaMatrix,
    PhaseSystem,
    check_lagrangian_lambda_invariance,
    check_scalar_condition,
    check_lambda_constant_G,
    check_lambda_symmetry,
    check_noether_lambda,
    extend_lambda,
    extend_vector_field,
    format_expr,
    parse,
    partial_reduction_check,
    verify_legendre,
)
from lamsym.lambda_symmetry import LAGRANGIAN_SIDE

## A pair with logarithmic coupling, invariant under q1 d/dq1 - q2 d/dq2
## with the identity matrix as perturbation.
lag = LagrangianSystem(2, parse("(dq1/q1 - log(q1))^2/2 + (dq1/q1 + dq2/q2)^2/2"))
xl = ConfigVectorField((parse("q1"), parse("-q2")))
laml = LambdaMatrix.diagonal([1, 1], LAGRANGIAN_SIDE)

print("perturbed invariance:", check_lagrangian_lambda_invariance(lag, xl, laml).ok)

## The configuration matrix scales the field by the constant 1, so the
## extended matrix scales the extended field as well.
lala = check_scalar_condition(xl, laml)
print("scalar factor:", format_expr(lala.scalar), "- extension scales:", lala.holds)

## Extend to phase space; G = phi . p generates the extension.
x, g = extend_vector_field(xl)
print("extended psi:", [format_expr(c) for c in x.psi], " G =", format_expr(g))
ext = extend_lambda(xl, laml)
print("extended matrix is the identity:",
      all(format_expr(e) == ("1" if i == j else "0")
          for i, row in enumerate(ext.matrix.entries) for j, e in enumerate(row)))

## Legendre data is verified, never derived: supply dq(t,q,p) and H.
h = parse("q1^2*p1^2/2 + q2^2*p2^2 + (q1*p1-q2*p2)*log(q1) - q1*q2*p1*p2")
vmap = [parse("q1*(q1*p1 - q2*p2 + log(q1))"), parse("q2*(2*q2*p2 - q1*p1 - log(q1))")]
print("legendre verified:", verify_legendre(lag, vmap, h).holds)

## The canonical equations are perturbed-symmetric and G obeys dG/dt = -G.
sys = PhaseSystem(2, h)
print("perturbed symmetry:", check_lambda_symmetry(sys, x, ext.matrix).holds)
rep = check_lambda_constant_G(sys, x, ext.matrix, g)
print("dG/dt =", format_expr(rep.rate))

## Along integrated variational trajectories the rate law holds on-shell.
noe = check_noether_lambda(lag, xl, laml,
                           initial_conditions=[(1.1, 0.8, 0.2, 0.1)])
print("trajectory rate residual:", f"{dict(noe.checks)['trajectory 1'].max_residual:.2e}")

## Partial reduction: L rewrites in the invariants (eta, deta, theta) and
## the first-order condition theta = 0 produces a particular solution.
lz = partial_reduction_check(
    lag, xl, laml,
    eta=[parse("q1*q2")],
    theta=parse("dq1/q1 - log(q1)"),
    reduced_l=parse("theta^2/2 + deta1^2/(2*eta1^2)"),
    particular=[parse("q1*log(q1)"), parse("q2*(1/2 - log(q1))")])
print("partial reduction accepted:", lz.holds,
      f"(constraint-flow residual {dict(lz.checks)['constraint flow'].max_residual:.2e})")
