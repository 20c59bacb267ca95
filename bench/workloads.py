"""Seeded inputs and item runners for the cubicnorm benchmark.

A workload is built from its seed alone: the constructor creates every
structure and every input before any item is timed, and ``item(i)`` returns
the i-th item of an endless, deterministic sequence.  Running an item calls
the public API of ``cubicnorm`` and returns ``(ok, outputs)``: ``ok`` is the
exact check of the item's certificates and round trips, and ``outputs`` are
the values whose coefficient size the traced run records.

Only API that the library intends to keep is used: ``cube_to_balanced(...,
ell=...)`` rather than ``cube_to_balanced_with_row``, and no ``comp_*``,
``cns_norm``/``cns_adjoint``/``cns_trace``, ``w_coerce_same``, ``r_of_we``
or ``rank_le1_certificate``.  Library functions are called through their
modules so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from fractions import Fraction

from cubicnorm import cli, cns, composition, freudenthal, lifting, matops, presets, rings_ideals
from cubicnorm import serialize as ser

AXIOM_ROUND = [
    "trivial", "fxf", "etale-cubic", "fxq", "matrix3",
    "h3-quaternion", "titsu-matrix:-1", "cayleyu:2",
]
ASSOCIATIVE = ["trivial", "fxf", "etale-cubic", "fxq", "matrix3"]
PAIR_COMPS = ["rational", "gaussian", "hamilton"]
# orbits runs matrix3 cubes and Hamilton pairs twice per round, so that the
# median and the 90th percentile lie inside a cluster of similar items
# rather than at the edge between clusters
CUBE_MIX = ASSOCIATIVE + ["matrix3"]
# lifts does the same with its first-law matrix3 items
FIRST_LAW_MIX = ASSOCIATIVE + ["matrix3"]
PAIR_MIX = ["rational", "gaussian", "hamilton", "hamilton"]
SECOND_KINDS = [-1, 1]

# distinct inputs generated per variant; the item sequence cycles over them
POOL = 24


def _rank4(W, rng, height, integral):
    """A random element of W with q(v) a unit of the base."""
    for _ in range(2000):
        v = W.random(rng, height, integral)
        if W.base.is_unit(W.quartic(v)):
            return v
    raise RuntimeError("no rank-4 element found")


def _moved(W, v, rng, steps=2):
    """Move v by random similitude generators (translations and the flip)."""
    J = W.J
    for _ in range(steps):
        k = rng.randrange(3)
        if k == 0:
            op = freudenthal.HOperator("nj", (J.random(rng, 1),))
        elif k == 1:
            op = freudenthal.HOperator("nbarj", (J.random(rng, 1),))
        else:
            op = freudenthal.HOperator("wj")
        v = freudenthal.h_apply(op, v)
    return v


def _rank4_square_omega(sk, rng):
    """A rank-4 element of W_J, a- or d-slot nonzero, with q(v)/D a rational
    square, so that the second lift has an antisymmetric omega.

    Start from (1, 0, c, d) with c diagonal in H_3 and n(c) chosen so that
    q = d^2 + 4 n(c) = D t^2, then move it by similitudes (which keep q)."""
    J = sk.J
    W = freudenthal.WSpace(J)
    D = -sk.K.modulus[0]
    zero = J.comp.zero()
    for _ in range(4000):
        d = Fraction(rng.randint(-3, 3))
        t = Fraction(rng.randint(1, 2))
        nc = (D * t * t - d * d) / 4
        if nc == 0:
            continue
        c1 = Fraction(rng.choice((1, 1, 2, -1)))
        c2 = Fraction(rng.choice((1, 1, 2, -1)))
        c = J.join((c1, c2, nc / (c1 * c2)), (zero, zero, zero))
        v = W.elem(1, J.zero(), c, d)
        if not W.base.is_unit(W.quartic(v)):
            continue
        v = _moved(W, v, rng)
        if v.a != 0 or v.d != 0:
            return v
    raise RuntimeError("no rank-4 element with a square q(v)/D found")


def _nondegenerate_pair(J, rng):
    """A pair (A, B) in J whose binary cubic has nonzero discriminant."""
    for _ in range(2000):
        A, B = J.random(rng, 1), J.random(rng, 1)
        a, d = J.norm(A), J.norm(B)
        b, c = J.pair(J.adjoint(A), B), J.pair(A, J.adjoint(B))
        if lifting.disc_binary_cubic(a, b, c, d) != 0:
            return A, B
    raise RuntimeError("no nondegenerate pair found")


def _gl2_element(J, rng):
    """A product of two random elementary/flip matrices in GL_2(J)."""
    one, z = J.one(), J.zero()
    g = freudenthal.m2_identity(J)
    for _ in range(2):
        X = J.random(rng, 1)
        k = rng.randrange(3)
        if k == 0:
            h = ((one, z), (X, one))
        elif k == 1:
            h = ((one, X), (z, one))
        else:
            h = freudenthal.m2_j2(J)
        g = freudenthal.m2_mul(J, g, h)
    return g


def _comp(name):
    return composition.CompAlgebra(()) if name == "rational" else composition.comp_preset(name)


# -- coefficient walks --------------------------------------------------------

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def coefficients(obj, depth=0):
    """Every rational coefficient inside a library value, JSON payload or
    nested container (strings count when they read as "p" or "p/q")."""
    if depth > 12 or obj is None or isinstance(obj, bool):
        return
    if isinstance(obj, (Fraction, int)):
        yield Fraction(obj)
    elif isinstance(obj, str):
        if _RATIONAL.fullmatch(obj):
            yield Fraction(obj)
    elif isinstance(obj, freudenthal.WElt):
        for part in (obj.a, obj.b, obj.c, obj.d):
            yield from coefficients(part, depth + 1)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from coefficients(x, depth + 1)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from coefficients(x, depth + 1)
    elif isinstance(getattr(obj, "coords", None), tuple):
        yield from coefficients(obj.coords, depth + 1)


def coeff_bits(obj) -> int:
    """Maximum numerator/denominator bit length over the coefficients."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in coefficients(obj)), default=0)


# -- workloads ----------------------------------------------------------------


class Workload:
    """A fixed list of (kind, variant, inputs) entries, cycled forever."""

    name = ""
    min_items = 0       # a timed run completes at least this many items
    trace_items = 0     # items in the traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"cubicnorm-bench:{self.name}:{seed}")
        self.entries: list[tuple[str, str, tuple]] = []

    def item(self, i: int):
        """(kind, variant, thunk) for the i-th item of the sequence."""
        kind, variant, args = self.entries[i % len(self.entries)]
        return kind, variant, lambda: getattr(self, "run_" + kind)(*args)

    def inputs_of(self, args) -> list:
        """The generated input values of one entry (for the summary)."""
        return list(args)

    def summary(self) -> dict:
        """Input properties a later change can name: the variant mix, the
        share of non-integral input coordinates and the largest input
        coefficient, plus a fingerprint that changes with any input."""
        mix: dict[str, int] = {}
        coords = nonint = bits = 0
        digest = hashlib.sha256()
        for kind, variant, args in self.entries:
            key = f"{kind}:{variant}"
            mix[key] = mix.get(key, 0) + 1
            values = self.inputs_of(args)
            for c in coefficients(values):
                coords += 1
                nonint += c.denominator != 1
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
            digest.update(repr([str(c) for c in coefficients(values)]).encode())
        return {
            "entries": len(self.entries),
            "variant_mix": mix,
            "input_coords": coords,
            "non_integral_share": nonint / coords if coords else 0.0,
            "max_input_coeff_bits": bits,
            "fingerprint": digest.hexdigest(),
        }


class Axioms(Workload):
    """One trial of the CNS axiom suite per item, cycling the eight presets.

    etale-cubic and titsu-matrix appear twice per round, so that the median
    and the 90th percentile lie in the middle of a cluster of similar items
    rather than at the edge between clusters."""

    name = "axioms"
    trace_items = 20
    ROUND = AXIOM_ROUND + ["etale-cubic", "titsu-matrix:-1"]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.structures = {name: presets.cns_preset(name) for name in AXIOM_ROUND}
        for _ in range(POOL):
            for name in self.ROUND:
                self.entries.append(("axioms", name, (name, self.rng.randrange(1 << 30))))

    def run_axioms(self, name, trial_seed):
        report = cns.cns_axioms_check(self.structures[name], trials=1, seed=trial_seed,
                                      check_nondegenerate=False)
        return report.ok(), None

    def inputs_of(self, args):
        # the suite draws x, y, z from its seed; regenerate them to describe
        name, trial_seed = args
        J = self.structures[name]
        rng = random.Random(trial_seed)
        return [J.random(rng) for _ in range(3)]


class Lifts(Workload):
    """First-law lifts of non-integral rank-4 elements over the associative
    presets, alternating with second-law lifts over M_3(K), D = -1 and 1."""

    name = "lifts"
    trace_items = 14

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spaces = {n: freudenthal.WSpace(presets.cns_preset(n)) for n in ASSOCIATIVE}
        self.kinds = {D: cns.second_kind_matrix(D) for D in SECOND_KINDS}
        first = [(n, _rank4(self.spaces[n], self.rng, 1, False), self.rng.randrange(1 << 30))
                 for _ in range(POOL) for n in FIRST_LAW_MIX]
        second = [(D, _rank4_square_omega(self.kinds[D], self.rng))
                  for _ in range(POOL) for D in SECOND_KINDS]
        # alternate the two kinds; the longer first-law list sets the period
        for i, args in enumerate(first):
            self.entries.append(("first", args[0], args))
            D, v = second[i % len(second)]
            self.entries.append(("second", f"matrix:{D}", (D, v)))

    def run_first(self, name, v, rng_seed):
        W = self.spaces[name]
        res = lifting.lift_wj(W, v)
        res2 = lifting.lift_wa_refined(W, v, rng=random.Random(rng_seed))
        return res.ok() and res2.ok(), (res.lifted, res2.lifted)

    def run_second(self, D, v):
        sk = self.kinds[D]
        res = lifting.second_lift(sk, v)
        ut = lifting.utilde_cns(sk, v)
        return res.ok() and ut.ok(), (res.lifted, res.S, res.lam, ut.lifted)

    def inputs_of(self, args):
        return [args[1]]


class Orbits(Workload):
    """Integral round trips over Z: cube <-> balanced ideal with GL_2 moves
    on the associative presets, alternating with pair <-> balanced ideal
    over H_3 of Q, Q(i) and the Hamilton quaternions."""

    name = "orbits"
    trace_items = 20
    MOVES = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spaces = {n: freudenthal.WSpace(presets.cns_preset(n)) for n in ASSOCIATIVE}
        self.herm = {c: cns.H3CNS(_comp(c)) for c in PAIR_COMPS}
        rng = self.rng
        cubes = []
        for _ in range(POOL):
            for n in CUBE_MIX:
                W = self.spaces[n]
                v = _rank4_integral(W, rng, 1 if W.J.dim > 5 else 2)
                moves = tuple(_gl2_element(W.J, rng) for _ in range(self.MOVES))
                cubes.append((n, v, moves))
        pairs = [(c, *_nondegenerate_pair(self.herm[c], rng))
                 for _ in range(POOL) for c in PAIR_MIX]
        for i, args in enumerate(cubes):
            self.entries.append(("cube", args[0], args))
            p = pairs[i % len(pairs)]
            self.entries.append(("pair", p[0], p))

    def run_cube(self, name, v, moves):
        W = self.spaces[name]
        J = W.J
        _, ideal, cert = rings_ideals.cube_to_balanced(J, v)
        v2, _ = rings_ideals.balanced_to_cube(ideal)
        ok = cert.ok() and v2 == v
        ell = cert.data["ell"]
        JE = ideal.basis[0].J
        outputs = [ideal.basis, ideal.beta]
        for g in moves:
            vg = freudenthal.gl2_act(W, g, v, "right")
            ellg = (J.mul(ell[0], g[0][0]) + J.mul(ell[1], g[1][0]),
                    J.mul(ell[0], g[0][1]) + J.mul(ell[1], g[1][1]))
            _, ideal_g, cert_g = rings_ideals.cube_to_balanced(J, vg, ell=ellg)
            # equivariance: the ideal of g.v is the ideal of v moved by g
            gE = tuple(tuple(cns.CnsElt(JE, tuple(ideal.E.from_rational(c) for c in e.coords))
                             for e in row) for row in g)
            b = ideal.basis
            moved = (JE.mul(b[0], gE[0][0]) + JE.mul(b[1], gE[1][0]),
                     JE.mul(b[0], gE[0][1]) + JE.mul(b[1], gE[1][1]))
            ok = ok and cert_g.ok() and ideal_g.beta == ideal.beta and \
                all(x == y for x, y in zip(ideal_g.basis, moved))
            outputs.append(ideal_g.basis)
        return ok, outputs

    def run_pair(self, comp, A, B):
        J = self.herm[comp]
        _, ideal, cert = rings_ideals.pair_to_balanced(J, A, B)
        A2, B2 = rings_ideals.balanced_to_pair(ideal)
        return cert.ok() and A2 == A and B2 == B, (ideal.basis, ideal.beta)


def _rank4_integral(W, rng, height):
    for _ in range(2000):
        v = W.random(rng, height, integral=True)
        if W.quartic(v) != 0:
            return v
    raise RuntimeError("no integral element with q(v) != 0 found")


# README examples with fixed inputs: their stdout must never change
README_CUBE = {"cube": [1, 0, 1, 1, 0, 1, 1, -2]}
README_COMMANDS = [
    ["cube", "--input", json.dumps(README_CUBE), "--to", "ideals", "--json"],
    ["cube", "--input", None, "--to", "cube", "--json"],
    ["pair", "--preset", "bhargava-a1b1", "--coeffs", "1,2,3,4", "--invariant"],
]


class Cli(Workload):
    """README commands run in-process through ``cubicnorm.cli.main`` with
    stdout captured; structures are rebuilt by every command."""

    name = "cli"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        Wm = freudenthal.WSpace(presets.cns_preset("matrix3"))
        Wf = freudenthal.WSpace(presets.cns_preset("fxf"))
        Wq = freudenthal.WSpace(presets.cns_preset("fxq"))
        H = presets.cns_preset("h3-rational")
        sk = cns.second_kind_matrix(-1)
        Wc = ser.cube_space()
        for _ in range(POOL // 4):
            cube = self._cube(Wc, rng)
            bh = self._bhargava_coeffs(rng)
            enc = ser.enc_w_elt
            commands = [
                ("verify", ["verify", "--structure", "preset:h3-quaternion", "--trials", "2",
                            "--seed", str(rng.randrange(1000)), "--json"]),
                ("verify", ["verify", "--structure", "comp:octonion", "--trials", "20",
                            "--seed", str(rng.randrange(1000)), "--json"]),
                # a third verify, so that the median falls inside the cluster
                # of mid-cost commands rather than at its edge
                ("verify", ["verify", "--structure", "preset:matrix3", "--trials", "10",
                            "--seed", str(rng.randrange(1000)), "--json"]),
                ("cube", ["cube", "--input", json.dumps({"cube": cube}), "--to", "ideals",
                          "--json"]),
                # the input is the previous command's ideal, as in the README
                ("cube-back", ["cube", "--input", None, "--to", "cube", "--json"]),
                # "=" keeps a leading minus sign from reading as an option
                ("pair", ["pair", "--preset", "bhargava-a1b1",
                          "--coeffs=" + ",".join(map(str, bh)), "--invariant", "--json"]),
                ("pair", ["pair", "--preset", "thm-diag", "--coeffs",
                          str(rng.randint(1, 4)), "--json"]),
                # wj on fxq, not matrix3: a matrix3 wj lift costs twice any
                # other command and would sit alone above the 90th percentile
                ("lift", ["lift", "--law", "wj", "--structure", "preset:fxq", "--input",
                          json.dumps(enc(_rank4(Wq, rng, 2, True))), "--json"]),
                ("lift", ["lift", "--law", "wa", "--structure", "preset:matrix3", "--input",
                          json.dumps(enc(_rank4(Wm, rng, 1, True))), "--json"]),
                ("lift", ["lift", "--law", "second", "--second-kind", "matrix:-1", "--input",
                          json.dumps(enc(_rank4_square_omega(sk, rng))), "--json"]),
                ("invariant", ["invariant", "--kind", "b1", "--structure", "preset:fxf",
                               "--input", json.dumps(enc(_rank4(Wf, rng, 2, True))), "--json"]),
                ("lowrank", ["lowrank", "--kind", "h3-rank2", "--structure",
                             "preset:h3-rational", "--input",
                             json.dumps(ser.enc_cns_elt(_rank2_h3(H, rng))), "--json"]),
            ]
            for variant, argv in commands:
                self.entries.append(("command", variant, (argv, cube)))
            for argv in README_COMMANDS:
                self.entries.append(("command", "readme", (argv, README_CUBE["cube"])))
        # one full pass, so that every command's stdout is hashed
        self.min_items = self.trace_items = len(self.entries)
        self.first_stdout: dict[int, str] = {}
        self.last_ideal = None

    @staticmethod
    def _cube(Wc, rng):
        while True:
            cube = [rng.randint(-2, 2) for _ in range(8)]
            if Wc.quartic(ser.cube_to_w(cube, Wc)) != 0:
                return cube

    @staticmethod
    def _bhargava_coeffs(rng):
        while True:
            coeffs = [rng.randint(-3, 3) for _ in range(4)]
            if coeffs[0] != 0 and lifting.disc_binary_cubic(*map(Fraction, coeffs)) != 0:
                return coeffs

    def item(self, i: int):
        idx = i % len(self.entries)
        _, variant, (argv, cube) = self.entries[idx]
        return "command", variant, lambda: self.run_command(idx, argv, cube)

    def run_command(self, idx, argv, cube):
        if argv[0] == "cube" and argv[2] is None:
            if self.last_ideal is None:
                return False, None
            argv = argv[:2] + [self.last_ideal] + argv[3:]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        text = out.getvalue()
        ok = code == 0 and self.first_stdout.setdefault(idx, text) == text
        if not ok:
            return False, None
        if "--json" not in argv:
            return "det_identity: True" in text, None
        payload = json.loads(text)
        ok = _payload_ok(payload)
        if argv[0] == "cube" and "ideals" in argv:
            self.last_ideal = json.dumps(payload["ideal"])
        if cube is not None and argv[-2:] == ["cube", "--json"]:
            ok = ok and [Fraction(c) for c in payload["cube"]] == [Fraction(c) for c in cube]
        if "--invariant" in argv:
            ok = ok and payload["det_identity"] is True and \
                [Fraction(c) for c in payload["mu"]] == [1, 0, 0]
        return ok, payload

    def stdout_digest(self, readme_only: bool) -> str:
        """SHA-256 over the stdout of every command of the first pass, in
        sequence order; or over the README commands, each once, which equals
        the digest of the README's own commands run from a shell."""
        digest = hashlib.sha256()
        seen = set()
        for idx in sorted(self.first_stdout):
            _, variant, (argv, _) = self.entries[idx]
            if readme_only and (variant != "readme" or tuple(argv) in seen):
                continue
            seen.add(tuple(argv))
            digest.update(self.first_stdout[idx].encode())
        return digest.hexdigest()

    def inputs_of(self, args):
        argv, _ = args
        if "--input" not in argv or argv[argv.index("--input") + 1] is None:
            return []
        return [json.loads(argv[argv.index("--input") + 1])]


def _payload_ok(payload) -> bool:
    """Every "ok" flag and "*identity" flag true, every certificate entry
    "pass", no failures."""
    if isinstance(payload, dict):
        if payload.get("ok") is False or payload.get("failures"):
            return False
        if any(v is not True for k, v in payload.items() if k.endswith("identity")):
            return False
        for entry in payload.get("certificate", []):
            if entry.get("status") != "pass":
                return False
        checks = payload.get("checks")
        if isinstance(checks, dict) and not all(checks.values()):
            return False
    return True


def _rank2_h3(J, rng):
    """A rank-2 element of H_3(C): diag(c1, c2, 0) moved by m* X m."""
    mat_mul, mat_star = matops.mat_mul, matops.mat_star
    comp = J.comp
    zero = comp.zero()
    while True:
        X = J.join((Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3)), 0),
                   (zero, zero, zero))
        m = tuple(tuple(comp.one() if i == j else zero for j in range(3)) for i in range(3))
        for _ in range(3):
            i, j = rng.sample(range(3), 2)
            e = [[comp.one() if a == b else zero for b in range(3)] for a in range(3)]
            e[i][j] = comp.random(rng, 1)
            m = mat_mul(m, tuple(tuple(r) for r in e))
        Y = J.from_matrix(mat_mul(mat_mul(mat_star(m, lambda x: x.conj()), J.to_matrix(X)), m))
        if J.rank(Y) == 2:
            return Y


WORKLOADS = {w.name: w for w in (Axioms, Lifts, Orbits, Cli)}
