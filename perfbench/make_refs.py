"""Write the reference outputs that the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run from the repository root.  The seed-free tables of the diagnostics
commands are the CLI's own outputs at the commit that added the benchmark;
their SHA-256 also defines the "bytes changed" flag of later runs.  The
Gaussian reference variances C_t^2 come from the closed form evaluated in
mpmath at 30 digits, independent of ``tfmotion.specfun``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

import tfmotion.cli
from checks import flags
from workloads import DIAGNOSTICS, WORKLOADS

REF = Path(__file__).resolve().parent / "ref"


def c2_mpmath(H: float, lam: float, t: float) -> float:
    if t == 0.0:
        return 0.0
    H, lam, t = mp.mpf(H), mp.mpf(lam), mp.mpf(t)
    z = (lam * t) ** 2 / 4
    a = -2 * mp.gamma(H) * lam ** (-2 * H) / (mp.sqrt(mp.pi) * mp.gamma(H - 0.5))
    b = mp.gamma(1 - H) / (mp.sqrt(mp.pi) * H * 2 ** (2 * H) * mp.gamma(H + 0.5))
    f1 = mp.hyper([1, -0.5], [1 - H, 0.5, 1], z)
    f2 = mp.hyper([1, H - 0.5], [1, H + 1, H + 0.5], z)
    return float(a * (1 - f1) + b * t ** (2 * H) * f2)


def main() -> int:
    REF.mkdir(exist_ok=True)
    for inv in DIAGNOSTICS:
        out = REF / f"{inv.name}.csv"
        rc = tfmotion.cli.main(inv.full_argv(0, str(out)))
        if rc != 0:
            print(f"{inv.name}: exit code {rc}", file=sys.stderr)
            return 1
    (inv,) = WORKLOADS["gauss_exact"]
    f = flags(inv.argv)
    H, lam, t_max, n = float(f["H"]), float(f["lambda"]), float(f["t-max"]), int(f["n"])
    mp.mp.dps = 30
    c2 = [c2_mpmath(H, lam, t_max * j / (n - 1)) for j in range(n)]
    with open(REF / "gauss_var.json", "w") as fh:
        json.dump({"H": H, "lambda": lam, "t-max": t_max, "n": n, "c2": c2},
                  fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
