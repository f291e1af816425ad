"""The four benchmark workloads: seeded inputs, one unit of work, its checks.

A workload is a sequence of units.  A unit is one call into a public
z2zu entry point and completes one or more operations:

  search_random      one ``search_with_pruning`` batch of BATCH_DRAWS
                     random draws; an operation is one draw
  survey_exhaustive  one ``verify_fsd_classification`` call; an
                     operation is one code examined
  analyze_scan       one in-process ``z2zu analyze FILE --json``; an
  analyze_large      operation is one code

Units repeat in passes (a pass is one round over the workload's input
pool), and the timed loop only stops at a pass boundary, so every run
measures the same mix of inputs whatever its length.

Every unit's output is checked.  For any seed, identities are checked
on the outputs (a search hit's Lee weights are recomputed here from its
codewords); for DEFAULT_SEED the outputs must also equal the values
stored in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from collections import Counter
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# search_random: a seeded one_weight search over alpha 2..6, beta 1..4
# with three generator rows, cut into batches of this many draws.
SEARCH_ALPHA = (2, 6)
SEARCH_BETA = (1, 4)
SEARCH_ROWS = 3
BATCH_DRAWS = 10000

# survey_exhaustive: (max_alpha, max_beta, max_rows) of every call.  The
# survey is exhaustive, so its input is the same for every seed.  One
# range keeps the calls alike, so their median is steady; ranges with
# more codes make calls too long to time on a noisy host.
SURVEY_RANGE = (4, 2, 3)

# analyze_*: (alpha, beta, binary-only rows, full rows, u-only rows).
# Each row is drawn until it adds exactly its share to the rank of
# {g, u*g}: one, two and one respectively.  The shape, row count and
# |C| = 2^(bin + 2*full + u) are therefore the same for every seed, and
# only the entries change.
SCAN_SPECS = (
    (8, 8, 4, 3, 2),     # N = 24, |C| = 2^12
    (10, 7, 3, 4, 3),    # N = 24, |C| = 2^14
    (9, 8, 3, 4, 3),     # N = 25, |C| = 2^14
    (12, 7, 5, 4, 3),    # N = 26, |C| = 2^16
    (6, 10, 2, 5, 4),    # N = 26, |C| = 2^16
)
LARGE_SPECS = (
    (16, 12, 4, 4, 4),   # N = 40, |C| = 2^16
    (20, 12, 3, 4, 6),   # N = 44, |C| = 2^17
    (18, 14, 3, 5, 4),   # N = 46, |C| = 2^17
    (16, 16, 3, 5, 4),   # N = 48, |C| = 2^17
    (16, 16, 3, 6, 3),   # N = 48, |C| = 2^18
)  # three of five at 2^17: the median analyze time is always a 2^17 one
WARM_SPEC = (4, 3, 1, 1, 1)  # N = 10, |C| = 2^4

_LEE = (0, 1, 2, 1)  # Lee weights of the ring digits 0, 1, u, v
_SYMBOL = "01uv"


class CheckFailed(Exception):
    """An output disagrees with an identity or with the stored reference."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ inputs


def random_matrix(rng: random.Random, spec: tuple[int, ...]) -> str:
    """Generator matrix text for one (alpha, beta, bin, full, u) spec.

    Words are packed as binary bits above two bits per ring digit, the
    digit of a + b*u being a + 2b; u*(a + b*u) = a*u, so u*w keeps the
    unit bits of the ring part, moved up one place.
    """
    alpha, beta, n_bin, n_full, n_u = spec
    unit_bits = int("01" * beta, 2) if beta else 0
    kinds = ["bin"] * n_bin + ["full"] * n_full + ["u"] * n_u
    rng.shuffle(kinds)
    basis: dict[int, int] = {}  # leading bit -> basis vector (GF(2))

    def reduce(x: int, vectors: dict[int, int]) -> int:
        while x and (x.bit_length() - 1) in vectors:
            x ^= vectors[x.bit_length() - 1]
        return x

    rows = []
    for kind in kinds:
        while True:
            b = rng.getrandbits(alpha) if kind != "u" else 0
            if kind == "full":
                r = rng.getrandbits(2 * beta)
            elif kind == "u":
                r = (rng.getrandbits(2 * beta) & unit_bits) << 1
            else:
                r = 0
            w = (b << (2 * beta)) | r
            trial = dict(basis)
            gained = 0
            for x in (w, (r & unit_bits) << 1):
                x = reduce(x, trial)
                if x:
                    trial[x.bit_length() - 1] = x
                    gained += 1
            if gained == (2 if kind == "full" else 1):
                basis = trial
                rows.append((b, r))
                break
    lines = []
    for b, r in rows:
        bits = " ".join(str((b >> (alpha - 1 - i)) & 1) for i in range(alpha))
        digits = " ".join(
            _SYMBOL[(r >> (2 * (beta - 1 - j))) & 3] for j in range(beta)
        )
        lines.append(f"{bits} | {digits}")
    return "\n".join(lines) + "\n"


def _lee_weight(beta: int, bin_part: int, ring_part: int) -> int:
    return bin(bin_part).count("1") + sum(
        _LEE[(ring_part >> (2 * j)) & 3] for j in range(beta)
    )


# --------------------------------------------------------------- workloads


class Workload:
    """Inputs and units of one workload for one seed.

    ``run_unit(k)`` performs unit k and returns (operations, seconds,
    failed operations); only the call into z2zu is timed.  A check that
    fails or an exception from z2zu fails every operation of the unit.
    """

    name = ""
    units_per_pass = 1
    trace_units = 1  # units in the fixed-size traced pass

    def __init__(self, z2zu, seed: int, workdir: Path):
        self.z2zu = z2zu
        self.seed = seed
        self.workdir = workdir
        self.reference = None
        self.errors: list[str] = []
        self.tally: Counter[str] = Counter()  # hits, codes examined

    def setup(self) -> None:
        """Generate and write the inputs."""

    def warm_up(self) -> None:
        """One small call that touches every code path of a unit."""

    def load_reference(self) -> None:
        if self.seed == DEFAULT_SEED:
            self.reference = load_reference()[self.name]

    def unit_ops(self, k: int) -> int:
        raise NotImplementedError

    def _call(self, k: int):
        """Perform unit k; return (seconds, raw output)."""
        raise NotImplementedError

    def _check(self, k: int, output) -> None:
        raise NotImplementedError

    def run_unit(self, k: int) -> tuple[int, float, int]:
        ops = self.unit_ops(k)
        try:
            seconds, output = self._call(k)
            self._check(k, output)
        except Exception as exc:  # a failed unit is counted, not fatal
            if not self.errors:
                traceback.print_exc()
            self.errors.append(f"{self.name} unit {k}: {type(exc).__name__}: {exc}")
            return ops, 0.0, ops
        return ops, seconds, 0


class SearchRandom(Workload):
    name = "search_random"
    trace_units = 6

    def _space(self, k: int, budget: int = BATCH_DRAWS):
        return self.z2zu.SearchSpace(
            alpha=SEARCH_ALPHA, beta=SEARCH_BETA, max_rows=SEARCH_ROWS,
            mode="random", budget=budget, seed=self.seed * 1_000_000 + k,
            target="one_weight",
        )

    def warm_up(self) -> None:
        self.z2zu.search_with_pruning(self._space(-1, budget=200))

    def unit_ops(self, k: int) -> int:
        return BATCH_DRAWS

    def _call(self, k: int):
        space = self._space(k)
        t0 = time.perf_counter()
        hits = self.z2zu.search_with_pruning(space)
        seconds = time.perf_counter() - t0
        self.tally["hits"] += len(hits)
        return seconds, hits

    @staticmethod
    def hit_key(hit) -> list:
        code = hit.code
        words = sorted([v.bin, v.ring] for v in code)
        return [code.shape.alpha, code.shape.beta, words]

    def _check(self, k: int, hits) -> None:
        for hit in hits:
            alpha, beta, words = self.hit_key(hit)
            n = alpha + 2 * beta
            size = len(words)
            weights = {_lee_weight(beta, b, r) for b, r in words} - {0}
            _require(len(weights) == 1, f"hit has Lee weights {sorted(weights)}")
            (m,) = weights
            _require(
                list(hit.report.nonzero_weights) == [m],
                "reported weights differ from the codewords'",
            )
            # the one-weight relations: lambda = 2m/|C| and N = lambda(|C|-1)
            _require(
                2 * m % size == 0 and n == (2 * m // size) * (size - 1),
                "hit has no lambda",
            )
            # a dual word of Lee weight 1 exists exactly when a column is zero
            or_bin = or_ring = 0
            for b, r in words:
                or_bin |= b
                or_ring |= r
            nonzero_cols = bin(or_bin).count("1") + sum(
                1 for j in range(beta) if (or_ring >> (2 * j)) & 3
            )
            _require(nonzero_cols == alpha + beta, "hit has a zero column")
            dmin = hit.report.dual_min_lee_weight
            _require(dmin is None or dmin >= 2, "dual has a word of Lee weight 1")
        if self.reference is not None and k < self.reference["batches"]:
            expected = self.reference["hits"].get(str(k), [])
            _require(
                [self.hit_key(h) for h in hits] == expected,
                f"batch {k} hits differ from the reference",
            )


class SurveyExhaustive(Workload):
    name = "survey_exhaustive"
    trace_units = 3

    def warm_up(self) -> None:
        self.z2zu.verify_fsd_classification(2, 1, 2)

    def load_reference(self) -> None:
        # the survey is exhaustive: its count holds for every seed
        self.reference = load_reference()[self.name]

    def unit_ops(self, k: int) -> int:
        return self.reference["codes_examined"]

    def _call(self, k: int):
        t0 = time.perf_counter()
        report = self.z2zu.verify_fsd_classification(*SURVEY_RANGE)
        seconds = time.perf_counter() - t0
        self.tally["codes_examined"] += report.codes_examined
        return seconds, report

    def _check(self, k: int, report) -> None:
        # verify_fsd_classification raises ClassificationViolation itself
        # when the survivors are not the expected four codes
        _require(report.matches, "survivors differ from the expected codes")
        _require(
            report.codes_examined == self.unit_ops(k),
            f"examined {report.codes_examined} codes, "
            f"expected {self.unit_ops(k)}",
        )


class Analyze(Workload):
    specs: tuple = ()

    def __init__(self, z2zu, seed: int, workdir: Path):
        super().__init__(z2zu, seed, workdir)
        self.units_per_pass = self.trace_units = len(self.specs)
        self.first_output: dict[int, str] = {}

    def _write(self, tag: str, rng: random.Random, spec) -> Path:
        path = self.workdir / f"{self.name}-{self.seed}-{tag}.txt"
        path.write_text(random_matrix(rng, spec), encoding="utf-8")
        return path

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}:{self.seed}")
        self.paths = [self._write(str(i), rng, s) for i, s in enumerate(self.specs)]
        self.warm_path = self._write("warm", rng, WARM_SPEC)

    def _analyze(self, path: Path) -> tuple[float, tuple[int, str]]:
        out = io.StringIO()
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.z2zu.cli.main(["analyze", str(path), "--json"])
        return time.perf_counter() - t0, (rc, out.getvalue())

    def warm_up(self) -> None:
        self._analyze(self.warm_path)

    def unit_ops(self, k: int) -> int:
        return 1

    def _call(self, k: int):
        return self._analyze(self.paths[k % len(self.paths)])

    @staticmethod
    def compared_fields(obj: dict) -> dict:
        """The --json fields checked against the reference: all but the
        route that produced the dual, which a faster route may change."""
        obj = json.loads(json.dumps(obj))
        del obj["dual"]["source"]
        del obj["classification"]["dual_source"]
        return obj

    def _check(self, k: int, output) -> None:
        rc, text = output
        _require(rc == 0, f"analyze exited with {rc}")
        i = k % len(self.paths)
        # the same input must give byte-identical output every time
        first = self.first_output.setdefault(i, text)
        _require(text == first, "output differs from the first analyze of this input")
        obj = json.loads(text)
        alpha, beta, n_bin, n_full, n_u = self.specs[i]
        n = alpha + 2 * beta
        size = obj["cardinality"]
        _require(
            obj["shape"] == {"alpha": alpha, "beta": beta, "n": n},
            "shape differs from the input's",
        )
        _require(size == 1 << (n_bin + 2 * n_full + n_u),
                 "|C| differs from the rank of the input rows")
        _require(size * obj["dual"]["cardinality"] == 1 << n, "|C|*|C_dual| != 2^N")
        k0, k1, k2 = map(int, obj["type"].split(";")[1].rstrip(")").split(","))
        _require(1 << (k0 + 2 * k1 + k2) == size, "2^(k0+2k1+k2) != |C|")
        _require(sum(c for _, c in obj["lee"]["counts"]) == size,
                 "Lee enumerator does not sum to |C|")
        _require(sum(c for _, c in obj["dual"]["counts"]) == obj["dual"]["cardinality"],
                 "dual enumerator does not sum to |C_dual|")
        if self.reference is not None:
            _require(self.compared_fields(obj) == self.reference[i],
                     f"input {i} output differs from the reference")


class AnalyzeScan(Analyze):
    name = "analyze_scan"
    specs = SCAN_SPECS


class AnalyzeLarge(Analyze):
    name = "analyze_large"
    specs = LARGE_SPECS


WORKLOADS = {w.name: w for w in (SearchRandom, SurveyExhaustive, AnalyzeScan, AnalyzeLarge)}
