"""The three benchmark workloads, their seeded inputs and their checks.

Each workload is built from the benchmark seed alone and then runs the
same pass over and over.  A pass returns one record per operation (its
label, latency and output); the checks read those records after the
timed region has ended, so checking never costs measured time and never
shows up in a traced span.

nlie is imported when a workload is constructed, not when this module
is: the set-up time of a workload is the import of the package plus the
construction of its inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())


class MissingSource(RuntimeError):
    """The checkout has no nlie sources next to the benchmark."""


def import_nlie():
    """Import nlie from this checkout's src/, never from anywhere else."""
    if not (SRC_DIR / "nlie" / "__init__.py").is_file():
        raise MissingSource(f"no nlie package under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import nlie
    import nlie.cli  # noqa: F401  (the CLI is part of what users import)
    if Path(nlie.__file__).resolve().parent != SRC_DIR / "nlie":
        raise MissingSource(f"nlie resolved to {nlie.__file__}, not {SRC_DIR}")
    return nlie


@dataclass
class Op:
    label: str
    seconds: float
    output: Any = None
    error: Optional[str] = None  # an exception raised by the operation


@dataclass
class Pass:
    wall_s: float
    ops: List[Op]
    extra: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    inputs: int = 0  # passes with equal `inputs` ran on the same inputs

    def digest(self) -> str:
        """Digest of every output of the pass, in operation order."""
        if "digest" in self.extra:
            return self.extra["digest"]
        h = hashlib.sha256()
        for op in self.ops:
            h.update(op.label.encode())
            h.update(b"\0")
            h.update(_canonical(op.output).encode())
            h.update(b"\0")
        return h.hexdigest()


def _canonical(value) -> str:
    """A text form of an output that only depends on its mathematics."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical(v) for v in value) + "]"
    return str(value)


def _run_ops(thunks: List[Tuple[str, Callable[[], Any]]]) -> Pass:
    clock = time.perf_counter
    ops: List[Op] = []
    start = clock()
    for label, thunk in thunks:
        t0 = clock()
        try:
            out = thunk()
            err = None
        except Exception as exc:  # a crashed operation is a failed operation
            out, err = None, f"{type(exc).__name__}: {exc}"
        ops.append(Op(label, clock() - t0, out, err))
    return Pass(clock() - start, ops)


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([c for c in range(lo, hi + 1) if c])


class Workload:
    """A seeded workload: `run_pass` is timed, the `check_*` methods are not.

    Each check returns None or a message.  `check_op` covers one
    operation of a pass on the given inputs, `check_pass` one pass and
    `check_run` all passes.
    """

    name = ""

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def check_op(self, op: Op, inputs: int) -> Optional[str]:
        return None

    def check_pass(self, p: Pass) -> Optional[str]:
        return None

    def check_run(self, passes: List[Pass]) -> Optional[str]:
        return None


# -- paper-suite --------------------------------------------------------------

def report_digest(doc: dict) -> str:
    """sha256 of a CLI JSON report with every `seconds` field removed."""
    data = dict(doc["data"])
    data["items"] = [{k: v for k, v in item.items() if k != "seconds"}
                     for item in data["items"]]
    text = json.dumps(dict(doc, data=data), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class PaperSuite(Workload):
    """`nlie paper-suite --seed S --json`, in process, stdout captured.

    One operation is one suite item, timed at SuiteItem.execute.  Pass i
    of benchmark seed b runs suite seed S = 1000 * b + i: which items sit
    near the median latency depends on the suite seed, so a run pools
    several suite seeds instead of repeating one.  Benchmark seed 0
    starts with the default suite seed 0.
    """

    name = "paper-suite"
    SEEDS_PER_BENCHMARK_SEED = 1000

    def __init__(self, seed: int):
        self.seed = seed
        self.nlie = import_nlie()

    def suite_seed(self, index: int) -> int:
        return self.SEEDS_PER_BENCHMARK_SEED * self.seed + index

    def run_pass(self, index: int) -> Pass:
        argv = ["paper-suite", "--seed", str(self.suite_seed(index)), "--json"]
        suite, cli = self.nlie.suite, self.nlie.cli
        latencies: List[Tuple[str, float]] = []
        inner = suite.SuiteItem.execute
        clock = time.perf_counter

        def timed_execute(item):
            t0 = clock()
            try:
                return inner(item)
            finally:
                latencies.append((item.item_id, clock() - t0))

        buf = io.StringIO()
        suite.SuiteItem.execute = timed_execute
        try:
            start = clock()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            wall = clock() - start
        finally:
            suite.SuiteItem.execute = inner
        try:
            doc = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            doc = None  # check_pass reports it
        items = {}
        for item in doc["data"]["items"] if doc else ():
            items[item["id"]] = {k: v for k, v in item.items() if k != "seconds"}
        ops = [Op(label, secs, items.get(label)) for label, secs in latencies]
        digest = report_digest(doc) if doc else ""
        return Pass(wall, ops, extra={"exit_code": code, "doc": doc, "digest": digest},
                    inputs=index)

    def check_op(self, op: Op, inputs: int) -> Optional[str]:
        if op.output is None:
            return "item missing from the JSON report"
        if not op.output["pass"]:
            return f"item failed: {op.output['details']}"
        return None

    def check_pass(self, p: Pass) -> Optional[str]:
        if p.extra["exit_code"] != 0:
            return f"exit code {p.extra['exit_code']}"
        if p.extra["doc"] is None:
            return "stdout is not a JSON report"
        data = p.extra["doc"]["data"]
        if data["total"] != len(p.ops) or data["failed"] != 0:
            return f"report says {data['failed']} of {data['total']} failed"
        return None

    def check_run(self, passes: List[Pass]) -> Optional[str]:
        import jsonschema
        schema = json.loads(
            (SRC_DIR / "nlie" / "schemas" / "report.schema.json").read_text())
        for p in passes:
            if p.extra["doc"] is None:
                continue
            try:
                jsonschema.validate(p.extra["doc"], schema)
            except jsonschema.ValidationError as exc:
                return f"report violates the schema: {exc.message}"
        for p in passes:
            want = EXPECTED["paper-suite"].get(str(self.suite_seed(p.inputs)))
            if want is not None and p.digest() != want:
                return f"report digest {p.digest()} != recorded {want}"
        return None


# -- groebner-bases -----------------------------------------------------------

def _cyclic(nlie, n: int):
    ctx = nlie.VarContext(tuple(f"x{i}" for i in range(n)))
    xs = ctx.gens()
    polys = []
    for k in range(1, n):
        acc = ctx.zero()
        for i in range(n):
            term = ctx.one()
            for j in range(k):
                term = term * xs[(i + j) % n]
            acc = acc + term
        polys.append(acc)
    prod = ctx.one()
    for x in xs:
        prod = prod * x
    polys.append(prod - 1)
    return ctx, polys


def _katsura(nlie, n: int):
    ctx = nlie.VarContext(tuple(f"u{i}" for i in range(n + 1)))
    us = ctx.gens()

    def u(l):
        return us[abs(l)] if abs(l) <= n else ctx.zero()

    linear = us[0]
    for l in range(1, n + 1):
        linear = linear + 2 * us[l]
    polys = [linear - 1]
    for m in range(n):
        acc = ctx.zero()
        for l in range(-n, n + 1):
            acc = acc + u(l) * u(m - l)
        polys.append(acc - u(m))
    return ctx, polys


def _permute_rescale(nlie, ctx, polys, rng: random.Random):
    """Substitute x_i -> s_i * x_perm(i): a seeded relabelling and scaling.

    The rescaling keeps every step of the computation and changes the
    coefficients; the relabelling changes which variable the order
    ranks first, so the pair combinatorics move a little.
    """
    n = ctx.nvars
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [Fraction(_nonzero(rng, -3, 3), rng.randint(1, 3)) for _ in range(n)]
    out = []
    for p in polys:
        terms = {}
        for mono, c in p.terms.items():
            new = tuple(mono[perm[i]] for i in range(n))
            for i, e in enumerate(new):
                c *= scale[i] ** e
            terms[new] = c
        out.append(nlie.Polynomial(ctx, terms))
    return out


def _dense_quadrics(nlie, rng: random.Random, nvars: int = 4):
    ctx = nlie.VarContext(tuple(f"y{i}" for i in range(nvars)))
    monos = [m for m in itertools.product(range(3), repeat=nvars) if sum(m) <= 2]
    return [nlie.Polynomial(ctx, {m: _nonzero(rng, -9, 9) for m in monos})
            for _ in range(nvars)]


class GroebnerBases(Workload):
    """Reduced grevlex bases: dense quadrics, cyclic-5 and katsura-5.

    One operation is one basis.  Every pass computes the same ten bases:
    six quadric systems, whose step count never depends on the seed,
    hold the median latency; the two katsura-5 bases, the top fifth,
    hold the tail percentile.  Two relabellings of each structured ideal
    average out how much a single permutation moves the step count.
    """

    name = "groebner-bases"
    QUADRIC_SYSTEMS = 6
    VARIANTS = 2  # seeded relabellings of cyclic-5 and of katsura-5 each

    def __init__(self, seed: int):
        self.seed = seed
        self.nlie = import_nlie()
        rng = random.Random(seed)
        self.systems: List[Tuple[str, list]] = []
        for i in range(self.QUADRIC_SYSTEMS):
            self.systems.append((f"quadrics4.{i}", _dense_quadrics(self.nlie, rng)))
        for family, build in (("cyclic5", lambda: _cyclic(self.nlie, 5)),
                              ("katsura5", lambda: _katsura(self.nlie, 5))):
            for i in range(self.VARIANTS):
                ctx, polys = build()
                self.systems.append(
                    (f"{family}.{i}", _permute_rescale(self.nlie, ctx, polys, rng)))

    def run_pass(self, index: int) -> Pass:
        groebner = self.nlie.groebner
        thunks = []
        for label, polys in self.systems:
            def basis(polys=polys):
                budget = groebner.StepBudget(groebner.DEFAULT_BUDGET)
                gb = groebner.buchberger(polys, groebner.GREVLEX, budget)
                return gb.generators
            thunks.append((label, basis))
        return _run_ops(thunks)

    def check_run(self, passes: List[Pass]) -> Optional[str]:
        """Each reduced basis equals sympy's (sympy is a test-only oracle)."""
        import sympy
        for (label, polys), op in zip(self.systems, passes[0].ops):
            if op.output is None:
                continue
            names = polys[0].ctx.names
            gens = sympy.symbols(names)
            sp = [sympy.Poly.from_dict(
                {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
                *gens, domain="QQ") for p in polys]
            theirs = sympy.groebner(sp, *gens, order="grevlex", domain="QQ")
            want = sorted(tuple(sorted((m, Fraction(int(c.p), int(c.q)))
                                       for m, c in g.terms()))
                          for g in theirs.polys)
            got = sorted(tuple(sorted(g.terms.items())) for g in op.output)
            if got != want:
                return f"{label}: basis differs from sympy's"
        return None


# -- probes -------------------------------------------------------------------

# (variables, root degree, k): the planted power has C(nv+deg*k-1, nv-1)
# terms, up to 455.
ROOT_SHAPES = ((4, 4, 3), (4, 6, 2), (4, 3, 4), (3, 6, 2), (3, 4, 3), (4, 2, 3))

AMBIENT_CENTERS = (("sl2", 3), ("quadric2", 2), ("elliptic", 3),
                   ("malcev-splittable", 2), ("malcev-canonical", 3))
QUOTIENT_CENTERS = (("sl2", 3), ("quadric2", 3), ("elliptic", 3),
                    ("quadric3", 3), ("malcev-canonical", 2))
SATURATED = ("sl2", "quadric2", "elliptic", "quadric3")
LAMBDAS = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2)]


@dataclass
class ProbeInputs:
    """One seeded set of probe inputs over the built-in algebras."""

    lam: Dict[str, Fraction]
    roots: List[Tuple[str, Any, int, int]]  # label, alpha * c^k, k, wrong k
    saturation_seeds: List[Tuple[str, Any]]
    hyperplane: Any
    mu: Fraction
    linear: Dict[str, Any]


def _probe_inputs(nlie, specs, rng: random.Random) -> ProbeInputs:
    lam = {name: rng.choice(LAMBDAS) for name in specs}
    roots = []
    for nv, deg, k in ROOT_SHAPES:
        ctx = nlie.VarContext(tuple(f"x{i}" for i in range(nv)))
        monos = [m for m in itertools.product(range(deg + 1), repeat=nv)
                 if sum(m) == deg]
        c = nlie.Polynomial(ctx, {m: _nonzero(rng, -5, 5) for m in monos})
        alpha = Fraction(_nonzero(rng, -9, 9), rng.randint(1, 4))
        wrong = next(j for j in range(2, deg * k + 1)
                     if (deg * k) % j == 0 and k % j and j % k)
        roots.append((f"{nv}v{deg}d^{k}", alpha * c ** k, k, wrong))
    saturation_seeds = []
    for name in SATURATED:
        ctx = specs[name].ctx
        extra = nlie.random_polynomial(rng, ctx, max_degree=2, coeff_bound=5)
        saturation_seeds.append((name, ctx.variable(rng.randrange(ctx.nvars))))
        saturation_seeds.append((name, extra))
    ctx = nlie.VarContext(("x", "y", "z"))
    hyperplane = sum((_nonzero(rng, -4, 4) * v for v in ctx.gens()), ctx.zero())
    mu = Fraction(_nonzero(rng, -3, 3))
    linear = {name: sum((_nonzero(rng, -4, 4) * v for v in spec.ctx.gens()),
                        spec.ctx.zero())
              for name, spec in specs.items()}
    return ProbeInputs(lam, roots, saturation_seeds, hyperplane, mu, linear)


class Probes(Workload):
    """The analysis layer on seeded inputs; one operation is one probe call.

    Which calls sit near the median latency, and how long the root and
    saturation calls take, depends on the drawn inputs, so a run cycles
    through INPUT_SETS sets of inputs (pass i uses set i mod INPUT_SETS,
    drawn from seed 1000 * b + set for benchmark seed b).

    Known answers: the ambient centers up to the probe degree are
    span{1, C} (dimension 2) and the quotient centers are the constants
    (dimension 1) for every nonzero lambda; every nonzero seed saturates
    to the whole ring in these simple quotients, while L - mu stays a
    proper stable ideal modulo L^2 - mu^2; C is central and a nonzero
    linear form is not.
    """

    name = "probes"
    INPUT_SETS = 3

    def __init__(self, seed: int):
        self.seed = seed
        nlie = self.nlie = import_nlie()
        st = nlie.structures
        self.specs = {
            "sl2": st.make_sl2(), "quadric2": st.make_quadric(2),
            "elliptic": st.make_elliptic(1), "quadric3": st.make_quadric(3),
            "malcev-splittable": st.make_malcev_splittable(),
            "malcev-canonical": st.make_malcev_canonical(),
        }
        self.sets = [_probe_inputs(nlie, self.specs, random.Random(1000 * seed + i))
                     for i in range(self.INPUT_SETS)]

    def run_pass(self, index: int) -> Pass:
        an, nlie, specs = self.nlie.analysis, self.nlie, self.specs
        inp = self.sets[index % self.INPUT_SETS]

        def quotient(name):
            return nlie.QuotientContext.create(specs[name].bracket, inp.lam[name],
                                               casimir=specs[name].casimir)

        thunks: List[Tuple[str, Callable[[], Any]]] = []
        for name, deg in AMBIENT_CENTERS:
            thunks.append((f"center.ambient.{name}", lambda name=name, deg=deg:
                           an.center_probe(specs[name].bracket, deg)))
        for name, deg in QUOTIENT_CENTERS:
            thunks.append((f"center.quotient.{name}", lambda name=name, deg=deg:
                           an.center_probe(specs[name].bracket, deg,
                                           qctx=quotient(name))))
        for label, big, k, wrong in inp.roots:
            thunks.append((f"root.{label}", lambda big=big, k=k: an.kth_root(big, k)))
            thunks.append((f"root-wrong-k.{label}",
                           lambda big=big, j=wrong: an.kth_root(big, j)))
            thunks.append((f"minroot.{label}",
                           lambda big=big: an.minimal_root_homogeneous(big)))
            thunks.append((f"closed.{label}",
                           lambda big=big: an.is_closed_homogeneous(big)))
        for i, (name, s) in enumerate(inp.saturation_seeds):
            thunks.append((f"saturate.{name}.{i}", lambda name=name, s=s:
                           an.saturate_poisson_ideal(quotient(name), [s])))

        def negative():
            bracket = nlie.JacobianBracket(inp.hyperplane ** 2)
            q = nlie.QuotientContext.create(bracket, inp.mu ** 2)
            return an.saturate_poisson_ideal(q, [inp.hyperplane - inp.mu])

        thunks.append(("saturate.negative-control", negative))
        for name, spec in specs.items():
            thunks.append((f"member.casimir.{name}", lambda spec=spec:
                           an.center_membership(spec.bracket, spec.casimir)[0]))
            thunks.append((f"member.linear.{name}", lambda name=name, spec=spec:
                           an.center_membership(spec.bracket, inp.linear[name])[0]))
        p = _run_ops(thunks)
        p.inputs = index % self.INPUT_SETS
        return p

    def check_op(self, op: Op, inputs: int) -> Optional[str]:
        kind, _, rest = op.label.partition(".")
        out = op.output
        if kind == "center":
            want = 2 if rest.startswith("ambient") else 1
            if out.dimension != want:
                return f"center dimension {out.dimension}, expected {want}"
        elif kind in ("root", "root-wrong-k", "minroot", "closed"):
            _, big, k, wrong = next(r for r in self.sets[inputs].roots if r[0] == rest)
            if kind == "root":
                if not out.found or out.alpha * out.root ** k != big:
                    return "planted root not recovered exactly"
            elif kind == "root-wrong-k":
                if out.found:
                    return f"bogus {wrong}-th root accepted"
            elif kind == "minroot":
                if out.k % k or out.alpha * out.root ** out.k != big:
                    return f"minimal root k={out.k} does not rebuild the input"
            elif out.closed or out.witness_k % k:
                return f"planted {k}-th power reported closed={out.closed}"
        elif kind == "saturate":
            want = "proper-stable" if rest == "negative-control" else "whole-ring"
            if out.verdict != want:
                return f"verdict {out.verdict}, expected {want}"
        elif kind == "member":
            want = rest.startswith("casimir")
            if out is not want:
                return f"central={out}, expected {want}"
        return None


WORKLOADS = {cls.name: cls for cls in (PaperSuite, GroebnerBases, Probes)}


def timed_setup(name: str, seed: int):
    """Import nlie and build the workload; returns (seconds, workload)."""
    t0 = time.perf_counter()
    workload = WORKLOADS[name](seed)
    return time.perf_counter() - t0, workload
