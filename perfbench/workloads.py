"""The benchmark's workloads: fixed CLI configurations and their set-up.

Each workload is one ``divspline`` command, given with the same flags a user
would pass on the command line.  ``setup`` repeats, outside the solver, the
iterate-independent work the command does before its first Newton step:
building the pair(s) and the first cache-filling call of each public
assembly function the command uses.  It runs in a fresh process, so it
measures cold caches.
"""
from __future__ import annotations

import math

# The benchmark's workloads, in the order of BENCHMARK.json.
WORKLOADS = {
    "cavity-k1-n16": [
        "--command", "cavity", "--kprime", "1", "--mesh", "16", "--re", "7500",
    ],
    "taylor-green-k1-n24": [
        "--command", "taylor-green-2d", "--kprime", "1", "--mesh", "24",
        "--re", "100", "--dt", "1e-2", "--tend", "0.1",
    ],
}
# Run by hand only: a sample takes 10-14 s, of which the sympy forcing
# derivation is about 5 s, too long for enough samples in one run.
EXTRA_WORKLOADS = {
    "convergence-k3": [
        "--command", "convergence", "--kprime", "3", "--mesh", "4,8,16,32",
        "--re", "10",
    ],
}


def flag_overrides(flags: list[str], out: str) -> dict:
    """Map CLI flags to the override dict ``divspline.cli.main`` builds."""
    from divspline.cli import build_arg_parser

    args = build_arg_parser().parse_args([*flags, "--out", out])
    return {
        "command": args.command,
        "kPrime": args.kprime,
        "mesh": args.mesh,
        "re": args.re,
        "dt": args.dt,
        "tEnd": args.tend,
        "out": args.out,
    }


def taylor_green_velocity(x, y):
    """Initial field of ``taylor-green-2d``; ``divspline.cases`` does not export it."""
    import numpy as np

    return np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)


def setup(config) -> None:
    """Build the pairs and fill every iterate-independent assembly cache."""
    import numpy as np

    from divspline import forms
    from divspline.cases import (
        CavityCase,
        ManufacturedCase,
        taylor_green_pair,
        unit_square_pair,
    )

    k = config.k_prime
    for n in config.mesh:
        re = config.re[0]
        params = forms.StabParams.create(
            k, nu=1.0 / re, gamma=config.gamma, c_nit=config.c_nit
        )
        if config.command == "taylor-green-2d":
            pair = taylor_green_pair(n, k)
            forms.assemble_viscous_nitsche(pair, params, nitsche=False)
            forms.assemble_load(pair, params, f=taylor_green_velocity, nitsche=False)
            forms.assemble_velocity_mass(pair)
        else:
            pair = unit_square_pair(n, k)
            forms.assemble_viscous_nitsche(pair, params)
            if config.command == "cavity":
                forms.assemble_load(pair, params, u_d=CavityCase.lid_velocity)
            else:
                forms.assemble_load(pair, params, f=ManufacturedCase(re=re).forcing)
        forms.assemble_divergence(pair)
        zero = np.zeros(pair.n_u)
        forms.assemble_convection(pair, zero)
        forms.assemble_skeleton(pair, zero, params)


def exact_taylor_green(x, y, t: float, re: float):
    """The free-slip decaying vortex, an exact Navier-Stokes solution."""
    decay = math.exp(-2.0 * t / re)
    u1, u2 = taylor_green_velocity(x, y)
    return u1 * decay, u2 * decay
