import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxmix
from proxmix import oracles

# the ground truth the solver modules used to define, with its home before
MOVED = {
    "moreau": ["grid_points", "_call", "grid_conjugate", "grid_envelope", "grid_prox", "grid_min"],
    "compositions": ["refined_grid_min", "pushforward_infimum", "_large_gamma_target"],
    "mixtures": ["_mixture_direct", "_comixture_direct"],
    "linalg": ["PseudoInverse", "pseudo_inverse_small"],
}
SRC = Path(__file__).resolve().parents[1] / "src"


def test_oracles_live_outside_the_solver_modules():
    for old_home, names in MOVED.items():
        for name in names:
            oracle = getattr(oracles, name)
            assert oracle.__module__ == "proxmix.oracles", name
            # a solver module may import an oracle, but defines none
            assert getattr(getattr(proxmix, old_home), name, oracle) is oracle, name
            if not name.startswith("_"):
                assert getattr(proxmix, name) is oracle, name


@pytest.mark.parametrize("module", ["moreau", "compositions", "mixtures", "verify", "cli"])
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # an import cycle can show only when one module is the first imported
    subprocess.run(
        [sys.executable, "-c", f"import proxmix.{module}"],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
