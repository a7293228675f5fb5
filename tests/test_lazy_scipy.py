"""scipy stays off the import path until a quadrature runs.

Only ``hcla_measure`` and ``blp_measure`` integrate numerically, and they
import scipy on first use. A fresh interpreter that imports the package and
runs every other quantity and preset must end with no scipy module loaded;
a ``blp`` sweep then loads it.

The quadrature values are checked bit for bit against two-piece (BLP) or
one-piece (HCLA) ``scipy.integrate.quad`` calls written out here with their
options, so the deferred import changes no output bit. ``volume_measure`` is
its closed form ``3 alpha/4``; the two-piece quadrature of its integrand
stays here as its oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import integrate

from depolmark.kernel import bloch_contraction_derivative, crossover_point, decay_rate_normalized, survival, volume_measure
from depolmark.measures import (
    blp_measure,
    hcla_measure,
    plus_minus_distance_derivative,
)

SRC = Path(__file__).resolve().parents[1] / "src"

QUAD_OPTS = dict(epsabs=1e-9, epsrel=1e-11, limit=200)

ALPHAS = (0.05, 0.3, 0.5, 0.7, 0.9, 1.0)

CHILD = """
import os, sys
import depolmark, depolmark.cli
from depolmark.cli import FIGURES, QUANTITIES, main

out = sys.argv[1]
runs = [[fig, "--out", out] for fig in FIGURES if fig not in ("fig4", "fig10")]
runs += [
    [quantity, "--steps", "3", "--out", os.path.join(out, quantity + ".csv")]
    + (["--levels", "3"] if quantity == "f-norm" else [])
    for quantity in QUANTITIES
    if quantity not in ("hcla", "blp")
]
for argv in runs:
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
assert main(["blp", "--steps", "3", "--out", os.path.join(out, "blp.csv")]) == 0
print("scipy" in sys.modules)
"""


def test_scipy_loads_only_when_a_quadrature_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # fig1, choi-norm, memory-x and g-function are among the runs.
    assert {"fig1.csv", "choi-norm.csv", "memory-x.csv", "g-function.csv"} <= set(os.listdir(tmp_path))
    assert proc.stdout.splitlines()[-2:] == ["[]", "True"]


def two_piece(integrand, split: float) -> float:
    head, _ = integrate.quad(integrand, 0.0, split, **QUAD_OPTS)
    tail, _ = integrate.quad(integrand, split, 1.0, **QUAD_OPTS)
    return float(head + tail)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_volume_measure_matches_two_piece_quad(alpha):
    def integrand(p):
        lam = survival(alpha, p)
        if lam == 0.0:
            return 0.0
        return max(0.0, 3.0 * (1.0 if lam > 0 else -1.0) * bloch_contraction_derivative(alpha, p))

    want = two_piece(integrand, crossover_point(alpha, 2))
    assert volume_measure(alpha) == pytest.approx(want, rel=1e-12, abs=0)


# At 1.0637648543163141e-16 the crossover point rounds to just above 1: the
# revival window is empty, and integrated backwards it would give -0.0.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("alpha", ALPHAS + (1.0637648543163141e-16,))
def test_blp_measure_matches_two_piece_quad_bit_for_bit(alpha):
    want = two_piece(lambda p: max(0.0, plus_minus_distance_derivative(alpha, p)), crossover_point(alpha, 2))
    assert blp_measure(alpha).hex() == want.hex()


@pytest.mark.parametrize("levels", (2, 3))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_hcla_measure_matches_quad_bit_for_bit(alpha, levels):
    integrand = lambda p: decay_rate_normalized(alpha, p, levels)
    want, _ = integrate.quad(integrand, crossover_point(alpha, levels), 1.0, **QUAD_OPTS)
    assert hcla_measure(alpha, levels).hex() == float(want).hex()
