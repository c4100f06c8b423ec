"""Seeded op inputs for the three benchmark workloads.

An op is one pass over a list of `upcube` argv lists.  Every input an op
needs (rationals, search seeds, `.upset` generator files) is derived from
the run's `--seed`, the workload name and the op index, so the parent
process (which checks results) and the worker (which runs them) build
identical ops independently.  Paths are relative to the run directory,
which is the worker's working directory, so reports are byte-identical
across checkouts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify", "artifacts", "search")

# The warm-up op (and the output digest) always uses this seed, so set-up
# cost and the digest do not depend on `--seed`.
WARMUP_SEED = 0

# Dimensions of the seeded generator files in `artifacts`: 16 keeps the
# 2^n-bit vectors cache resident, 24 (N_MAX) puts the mask tables beyond L3.
GEN_DIMS = (16, 24)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures, SMOKE the smallest."""

    hk_trials: int  # `hk-random --trials` in verify
    search_iters: int  # `search --iters` in search
    generators: tuple[int, int]  # generator lines per file at n = 16, 24
    pool: int  # distinct generator-file pairs per artifacts run
    setups: int  # fresh workers per trace-0 run, each timing its set-up


FULL = Sizes(hk_trials=40, search_iters=2000, generators=(1000, 200), pool=4, setups=5)
SMOKE = Sizes(hk_trials=2, search_iters=50, generators=(20, 5), pool=1, setups=1)


@dataclass(frozen=True)
class Op:
    passes: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]  # .upset files the passes write, hashed per op
    params: dict  # the seeded values, for the checks


def _rat(rng: random.Random) -> Fraction:
    b = rng.randint(3, 64)
    return Fraction(rng.randint(1, b - 1), b)


class Workload:
    """Op factory for one workload at one seed.

    `warmup=True` gives the fixed-seed op used for set-up and the digest;
    its files carry their own names so they never collide with measured ops.
    """

    def __init__(self, name: str, seed: int, sizes: Sizes, warmup: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = WARMUP_SEED if warmup else seed
        self.sizes = sizes
        self.warmup = warmup

    def _file_tag(self, i: int) -> str:
        return "warm" if self.warmup else str(i % self.sizes.pool)

    def generator_file(self, n: int, tag: str) -> str:
        return f"inputs/gen{n}_{tag}.upset"

    def write_inputs(self, run_dir: Path) -> None:
        """Write the seeded generator files an artifacts run reads."""
        if self.name != "artifacts":
            return
        (run_dir / "inputs").mkdir(parents=True, exist_ok=True)
        tags = ["warm"] if self.warmup else [str(k) for k in range(self.sizes.pool)]
        for tag in tags:
            for n, count in zip(GEN_DIMS, self.sizes.generators):
                rng = random.Random(f"{self.seed}:gen{n}:{tag}")
                lines = [f"n={n}"]
                for _ in range(count):
                    size = rng.randint(n // 2 - 2, n // 2 + 2)
                    lines.append(",".join(map(str, sorted(rng.sample(range(1, n + 1), size)))))
                (run_dir / self.generator_file(n, tag)).write_text("\n".join(lines) + "\n")

    def op(self, i: int) -> Op:
        rng = random.Random(f"{self.seed}:{self.name}:{i}")
        return getattr(self, f"_{self.name}")(i, rng)

    def _verify(self, i: int, rng: random.Random) -> Op:
        r = _rat(rng)
        tol = Fraction(1, 10 ** rng.randint(6, 9))
        hk_seed = rng.randrange(10**6)
        passes = (
            ("verify", "q5"),
            ("verify", "kahn", "--n", "7", "--l", "3", "--p", str(r)),
            ("lp", "--rho", str(r)),
            ("bound", "--rho", str(r), "--maximize-tol", str(tol)),
            ("poset", "--diamond", "--p", str(r)),
            ("hk-random", "--n", "10", "--trials", str(self.sizes.hk_trials),
             "--p", str(r), "--seed", str(hk_seed)),
            ("verify", "q21"),
        )
        return Op(passes, (), {"r": r, "tol": tol, "trials": self.sizes.hk_trials})

    def _artifacts(self, i: int, rng: random.Random) -> Op:
        # Each op writes into a directory of its own: overwriting a file can
        # cost tens of ms on some file systems (block discard on truncate),
        # which would measure the disk rather than upcube.
        r = _rat(rng)
        tag = self._file_tag(i)
        out = "warm" if self.warmup else f"ops/{i}"
        passes = [("build", "q21", "--out", out)]
        passes += [("measure", "--family", f"{out}/q21_{f}.upset", "--p", str(r)) for f in "xyz"]
        outputs = [f"{out}/q21_{f}.upset" for f in "xyz"]
        for n in GEN_DIMS:
            src, dst = self.generator_file(n, tag), f"{out}/closed{n}.upset"
            passes += [("closure", src, "--out", dst), ("measure", "--family", dst, "--p", str(r))]
            outputs.append(dst)
        return Op(tuple(passes), tuple(outputs), {"r": r})

    def _search(self, i: int, rng: random.Random) -> Op:
        k = str(self.sizes.search_iters)
        s5, s9 = rng.randrange(10**6), rng.randrange(10**6)
        passes = (
            ("search", "--n", "5", "--rho", "1/2", "--restarts", "8", "--stop-at", "13/32",
             "--iters", k, "--seed", str(s5)),
            ("search", "--n", "9", "--rho", "1/2", "--iters", k, "--seed", str(s9)),
        )
        return Op(passes, (), {"seeds": (s5, s9), "iters": self.sizes.search_iters})

    def input_sizes(self) -> dict:
        """The stated input sizes printed beside the metrics."""
        if self.name == "verify":
            return {"n": [5, 7, 10, 21], "hk_trials": self.sizes.hk_trials}
        if self.name == "artifacts":
            return {
                "n": [21, *GEN_DIMS],
                "generators": dict(zip(map(str, GEN_DIMS), self.sizes.generators)),
                "generator_files": self.sizes.pool,
            }
        return {"n": [5, 9], "iters": self.sizes.search_iters, "restarts": 8}
