"""The exit-code contract of the CLI as a seeded property test.

The contract (cli's module docstring): exit 0 ok, 2 numerical failure, 3
invalid input, 4 I/O; a failure prints one stderr line and never a
traceback.  A seeded generator draws argv for every subcommand from edge
sets (NaN, +-inf, -0.0, subnormals, 1e308, text that is no number) and small
valid values, together with good and broken input files, and runs
cli.main in process with every warning recorded (Claessen & Hughes,
QuickCheck, ICFP 2000).

Every grid a case can build is tiny by construction: a finite small h comes
only with extents <= 4 and radii <= 4, so no node count lies between the
small grids and the ones whose allocation fails at once; --jobs forks at
most as many workers as the <= 3 radii.  eplate's --n is small, or 10**16:
its arrays cannot be allocated, and the MemoryError is a numerical failure,
exit 2 with one line, as the contract documents for memory exhaustion.
eplate's --L is also drawn log-uniform from the declared domain LENGTH_1D,
at each of its ends and one ulp outside each end.
"""

import contextlib
import io
import math
import random
import warnings

import pytest

from vdwplate.cli import main
from vdwplate.model import LENGTH_1D

EDGE_FLOATS = ["nan", "inf", "-inf", "-0.0", "0", "-1", "1e-310", "1e-320", "5e-324",
               "1e308", "1.8e308", "", "abc", "0x10"]
EDGE_INTS = ["0", "-1", "", "abc", "1e3", "0x10", "1.5"]
# the ends of LENGTH_1D and the floats one ulp outside them
LENGTH_ENDS = [repr(x) for end, outward in zip(LENGTH_1D, (0.0, math.inf))
               for x in (end, math.nextafter(end, outward))]


class Case:
    """Draws the argv of one CLI call from a seeded random.Random."""

    def __init__(self, rng: random.Random, files: dict):
        self.rng, self.files = rng, files

    def pick(self, valid, edge=EDGE_FLOATS, p_edge=0.3):
        return self.rng.choice(edge if self.rng.random() < p_edge else valid)

    def maybe(self, flag, value, p=0.7):
        return [flag, value] if self.rng.random() < p else []

    def output(self):
        return self.maybe("--output", self.rng.choice(
            [self.files["out"], self.files["out"], self.files["dir"], self.files["missing_dir"]]),
            p=0.3)

    def grid_flags(self):
        flags = []
        flags += self.maybe("--m", self.pick(["0", "0.5", "1", "-0.0"], EDGE_FLOATS + ["1.5"]))
        flags += self.maybe("--h", self.pick(["0.25", "0.5"]))
        flags += self.maybe("--l-xi", self.pick(["2", "4"]))
        flags += self.maybe("--l-rho", self.pick(["2", "4"]))
        if self.rng.random() < 0.2:
            flags += ["--config", self.rng.choice(
                [self.files[k] for k in ("config", "config_nan", "config_r", "config_bad",
                                         "binary", "empty", "dir", "missing")])]
        # without a small h from the flags the defaults (h 0.1, extents 28)
        # would build a production grid: pin a coarse one
        if "--h" not in flags or flags[flags.index("--h") + 1] not in ("0.25", "0.5"):
            flags += ["--h", "0.5"]
        for name in ("--l-xi", "--l-rho"):
            if name not in flags or flags[flags.index(name) + 1] not in ("2", "4"):
                flags += [name, "2"]
        return flags

    def eplate(self):
        n = self.pick(["32", "33", "48", "64", "16", "31"], EDGE_INTS + [str(10 ** 16)])
        draw = self.rng.random()
        if draw < 0.35:
            lo, hi = LENGTH_1D
            length = repr(min(max(10.0 ** self.rng.uniform(math.log10(lo), math.log10(hi)), lo),
                              hi))
        elif draw < 0.5:
            length = self.rng.choice(LENGTH_ENDS)
        elif draw < 0.7:
            length = self.rng.choice(["1", "10", "40", "400"])
        else:
            length = self.rng.choice(EDGE_FLOATS)
        return ["eplate", *self.maybe("--n", n), *self.maybe("--L", length, 0.95), *self.output()]

    def hydrogen(self):
        r = self.pick(["0.5", "1", "2", "4"], EDGE_FLOATS + ["0.1", "1e20"])
        return ["hydrogen", *self.maybe("--r", r, 0.9), *self.grid_flags(), *self.output()]

    def sweep(self):
        radii = self.rng.sample(["0.5", "1", "2", "3", "4", "nan", "inf", "-1", "0", "abc", ""],
                                self.rng.randint(1, 3))
        argv = ["sweep", *self.maybe("--r-values", ",".join(radii), 0.9), *self.grid_flags()]
        argv += self.maybe("--jobs", self.rng.choice(["1", "1", "1", "2", "0", "-1", "abc"]))
        argv += self.maybe("--format", self.rng.choice(["csv", "json", "xml"]), 0.3)
        return argv + self.output()

    def fit(self):
        source = self.rng.choice([k for k in self.files if k.startswith("csv")]
                                 + ["empty", "binary", "dir", "missing"])
        argv = ["fit", *self.maybe("--input", self.files[source], 0.95)]
        argv += self.maybe("--exponents", self.rng.choice(["3,5", "3", "3,5,7", "3.5", "abc", ""]))
        argv += self.maybe("--format", self.rng.choice(["csv", "json", "xml"]), 0.3)
        return argv + self.output()

    def cv(self):
        v = self.rng.choice(["1,0,0", "0,0,1", "0.3,0.4,0.5", "0,0,0", "nan,0,0", "inf,0,0",
                             "1e308,1e308,0", "1e-320,0,0", "5e-324,0,5e-324", "1,2", "abc", ""])
        molecule = self.rng.choice(["hydrogen", "helium", "lithium"])
        return ["cv", *self.maybe("--molecule", molecule), *self.maybe("--v", v), *self.output()]

    def helium(self):
        return ["helium", *self.output()]

    def feshbach_demo(self):
        return ["feshbach-demo", *self.maybe("--n", self.pick(["2", "3", "5"], EDGE_INTS)),
                *self.maybe("--trials", self.pick(["1", "2"], EDGE_INTS)),
                *self.maybe("--seed", self.pick(["0", "7"], EDGE_INTS)), *self.output()]

    def junk(self):
        return self.rng.choice([[], ["plate"], ["eplate", "--bogus", "1"], ["cv", "extra"],
                                ["sweep"], ["fit"], ["--n", "5"]])

    def draw(self) -> list:
        kind = self.rng.choices(
            [self.eplate, self.hydrogen, self.sweep, self.fit, self.cv, self.helium,
             self.feshbach_demo, self.junk], weights=[6, 3, 2, 3, 3, 1, 2, 1])[0]
        return kind()


def run(argv) -> tuple:
    """(exit code, stderr, RuntimeWarnings, escaped exception or None) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:      # argparse's usage errors, exit 3
                code = exc.code
            except BaseException as exc:   # noqa: BLE001 - the contract forbids any
                code, escaped = None, exc
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err.getvalue(), runtime, escaped


def violations(argv, code, stderr, runtime, escaped) -> list:
    found = []
    if escaped is not None:
        found.append(f"escaped {type(escaped).__name__}: {escaped}")
    elif code not in (0, 2, 3, 4):
        found.append(f"exit code {code!r}")
    if runtime:
        found.append(f"RuntimeWarning {runtime[0]!r}")
    lines = stderr.splitlines()
    if code in (2, 3, 4):
        errors = [line for line in lines if not line.startswith(("usage:", " "))]
        if len(errors) != 1:
            found.append(f"{len(errors)} stderr lines at exit {code}")
    elif code == 0:
        notes = [line for line in lines if not line.startswith("# empirical_D3 = ")]
        if notes or (lines and argv[0] != "fit"):
            found.append(f"stderr at exit 0: {lines[:2]}")
    return found


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {"out": root / "out.txt", "dir": root, "missing": root / "missing.csv",
             "missing_dir": root / "no" / "such" / "out.txt"}
    configs = {"config": "m = 1\nh = 0.5\nL_xi = 2\nL_rho = 2\n",
               "config_nan": "m = nan\nh = 0.5\n", "config_r": "r = 2\nh = 0.5\n",
               "config_bad": "colour = blue\n", "empty": ""}
    for name, text in configs.items():
        paths[name] = root / f"{name}.txt"
        paths[name].write_text(text)
    paths["binary"] = root / "binary.bin"
    paths["binary"].write_bytes(bytes(range(256)))
    good = root / "csv_good.csv"
    assert main(["sweep", "--r-values", "1,2,3", "--h", "0.5", "--l-xi", "2", "--l-rho", "2",
                 "--output", str(good)]) == 0
    text = good.read_text()
    header = "".join(line + "\n" for line in text.splitlines() if line.startswith("#"))
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    variants = {"csv_good": text,
                "csv_nan": text.replace(rows[1], rows[1].replace(rows[1].split(",")[5], "nan")),
                "csv_header_only": header + rows[0] + "\n",
                "csv_columns": header + "r,W\n1,-0.1\n2,-0.01\n",
                "csv_m_nan": text.replace("# m = 1", "# m = nan")}
    for name, body in variants.items():
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(body)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("seed", [11, 12])
def test_exit_code_contract(files, seed):
    rng = random.Random(seed)
    case = Case(rng, files)
    failures, codes = [], {}
    for _ in range(300):
        argv = case.draw()
        code, stderr, runtime, escaped = run(argv)
        codes[code] = codes.get(code, 0) + 1
        found = violations(argv, code, stderr, runtime, escaped)
        if found:
            failures.append((argv, found))
    # every exit code of the contract is reached, so the draw is not vacuous
    assert {0, 2, 3, 4} <= set(codes), codes
    assert not failures, "\n".join(f"{argv}: {found}" for argv, found in failures[:20])
