"""The benchmark's workloads: the tfmotion CLI invocations of one pass.

A pass runs every invocation of its workload once, each in a fresh
interpreter, one after the other (a closed loop with one client).  The
workload seed feeds every ``--seed`` flag; the commands whose output does not
depend on the seed still receive it, so that every invocation is driven by
the same argument.
"""

from __future__ import annotations

from dataclasses import dataclass

# README stable example, scaled to 200 paths
STABLE = ("--H", "0.8", "--alpha", "1.5", "--lambda", "0.3", "--t-max", "1",
          "--n", "65", "--plan-dy", "0.02", "--n-paths", "200")
DECAY = ("--H", "0.8", "--alpha", "1.5", "--lambda", "0.3",
         "--t-min", "2", "--t-max", "60", "--t-step", "1")


@dataclass(frozen=True)
class Invocation:
    """One CLI command of a pass.

    ``name`` tags the output file and, for seed-free outputs, names the
    reference table in ``ref/``; ``check`` selects the output check.
    """

    name: str
    argv: tuple[str, ...]
    check: str  # "stable" | "gauss" | "table"

    def full_argv(self, seed: int, out: str) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", out]


STABLE_MC = (
    Invocation("stable_I", ("simulate", "--kind", "I", *STABLE), "stable"),
    Invocation("stable_II", ("simulate", "--kind", "II", *STABLE), "stable"),
)
DIAGNOSTICS = (
    Invocation("spectrum", ("spectrum", "--H", "0.7", "--lambda", "0.15",
                            "--omega-grid=-3.14159:3.14159:201"), "table"),
    Invocation("covariance", ("covariance", "--H", "0.75", "--lambda", "0.5",
                              "--t-max", "2", "--n", "9"), "table"),
    Invocation("limits", ("limits", "--H", "0.7", "--alpha", "2",
                          "--lambda", "0.15"), "table"),
    Invocation("decay_II", ("decay", "--kind", "II", *DECAY), "table"),
    Invocation("decay_I", ("decay", "--kind", "I", *DECAY), "table"),
)

# The stable Monte Carlo and diagnostics commands share one workload: run
# alone, the five short diagnostics processes spread too much from run to run
# on a shared two-core machine, and a third workload would leave too little
# time per run.
WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "stable_diag": STABLE_MC + DIAGNOSTICS,
    "gauss_exact": (
        Invocation("gauss", ("simulate", "--alpha", "2", "--H", "0.7",
                             "--lambda", "0.15", "--t-max", "1", "--n", "2049",
                             "--n-paths", "1000"), "gauss"),
    ),
}

WHY = {
    "stable_diag": "stable Monte Carlo (scalar kernel table) and five "
                   "diagnostics commands (import cost, dependence quadrature "
                   "calling kernels pointwise)",
    "gauss_exact": "exact Gaussian paths at n = 2049: covariance build, "
                   "Cholesky, sampling and 2M-row CSV output; no kernel code",
}
