## Deterministic fixed-step integration, expression monitoring along
## trajectories, and comparison of a monitored quantity against a scalar
## decay law.

import io
import math

import numpy as np

from lamsym import (
    LagrangianSystem,
    PhaseSystem,
    compare_with_scalar_ode,
    integrate_euler_lagrange,
    integrate_hamiltonian,
    monitor,
    parse,
    trajectory_to_csv,
)

## One full period of the oscillator; the grid is exactly t0 + k*h and two
## runs produce bit-identical states.
osc = PhaseSystem(1, parse("(p1^2+q1^2)/2"))
traj = integrate_hamiltonian(osc, [1.0, 0.0], 0.0, 2 * math.pi, 1e-3)
t_end = traj.times[-1]
print("position error after one period:", abs(traj.states[-1][0] - math.cos(t_end)))

energy = monitor(traj, [parse("(p1^2+q1^2)/2")], labels=["H"])[0]
print("energy drift:", float(np.max(np.abs(energy.values - 0.5))))

## A quantity that is *not* conserved: along the crossed system the sum
## q1+q2 decays like exp(-t); the scalar law dG/dt = -G reproduces it.
crossed = PhaseSystem(2, parse("-(q1*p2+q2*p1) + (p1-p2)^2/2"))
traj = integrate_hamiltonian(crossed, [0.4, 0.3, 0.2, 0.1], 0.0, 1.0, 1e-3)
series = monitor(traj, [parse("q1+q2")], labels=["G"])[0]
dev = compare_with_scalar_ode(series, parse("-G"), float(series.values[0]))
print("deviation from dG/dt = -G: ", dev)

## The wrong law is detected: -G^2/2 disagrees off the diagonal w1 = w2.
log_sys = PhaseSystem(2, parse(
    "q1^2*p1^2*log(q1)/2 + q2^2*p2^2*log(q2)/2 + log(q1/q2)*(q1*p1+q2*p2)"))
traj = integrate_hamiltonian(log_sys, [0.9, 0.6, 0.9, 0.3], 0.0, 1.0, 1e-3)
series = monitor(traj, [parse("q1*p1+q2*p2")], labels=["G"])[0]
dev = compare_with_scalar_ode(series, parse("-G^2/2"), float(series.values[0]))
print("deviation from the wrong law:", dev)

## Variational trajectories come from the velocity Hessian solved
## numerically at every stage; the momenta land on the Hamiltonian flow.
lag = LagrangianSystem(1, parse("(dq1/q1 + 1)^2*exp(-2*q1)/2"))
el = integrate_euler_lagrange(lag, [0.5], [0.1], 0.0, 1.0, 1e-3)
print("variational trajectory points:", len(el.states))

## CSV export carries the full double precision of every grid point.
buf = io.StringIO()
trajectory_to_csv(el, buf)
print("csv header:", buf.getvalue().split("\n")[0])
print("csv row 1: ", buf.getvalue().split("\n")[1])
