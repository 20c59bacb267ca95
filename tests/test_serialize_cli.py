"""JSON formats and the command-line surface."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicnorm import cli, rings_ideals
from cubicnorm import serialize as ser
from cubicnorm.cli import main
from cubicnorm.cns import Matrix3CNS
from cubicnorm.composition import comp_preset
from cubicnorm.freudenthal import WSpace
from cubicnorm.presets import cns_preset
from cubicnorm.scalars import quadratic_field


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_scalar_and_element_roundtrip(rng):
    H = comp_preset("hamilton")
    x = H.elem([1, F(-2, 3), 0, 5])
    data = ser.enc_comp_elt(x)
    assert data["coords"] == ["1", "-2/3", "0", "5"]
    assert ser.dec_comp_elt(data) == x


def test_cns_descriptor_roundtrip():
    for J in [cns_preset("trivial"), cns_preset("fxq"), cns_preset("matrix3"),
              cns_preset("h3-quaternion"), cns_preset("etale-cubic"),
              cns_preset("cayleyu:2")]:
        data = ser.enc_cns_desc(J)
        assert ser.dec_cns_desc(data) == J
    JE = cns_preset("matrix3").base_change(quadratic_field(5))
    assert ser.dec_cns_desc(ser.enc_cns_desc(JE)) == JE


def test_w_element_roundtrip(rng):
    J = Matrix3CNS()
    W = WSpace(J)
    v = W.random(rng)
    data = ser.enc_w_elt(v)
    assert ser.dec_w_elt(data, W) == v


def test_cube_mapping():
    W = ser.cube_space()
    cube = [1, 0, 1, 1, 0, 1, 1, -2]
    v = ser.cube_to_w(cube, W)
    assert [ser.dec_scalar(x) for x in ser.w_to_cube(v)] == [F(x) for x in cube]


def test_ideal_roundtrip(rng):
    from cubicnorm.cns import CubicRingCNS, split_cubic_algebra
    from cubicnorm.rings_ideals import cube_to_balanced

    A = CubicRingCNS(split_cubic_algebra())
    W = WSpace(A)
    while True:
        v = W.random(rng, 2)
        if W.quartic(v) != 0:
            break
    _, ideal, _ = cube_to_balanced(A, v)
    data = ser.enc_ideal_sa(ideal)
    back = ser.dec_ideal_sa(data)
    assert back.basis == ideal.basis and back.beta == ideal.beta


def test_cli_verify_pass_and_counts():
    code, out = run_cli(["verify", "--structure", "preset:fxf",
                         "--trials", "25", "--seed", "7", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["passes"]["(x#)# = N(x) x"] == 25


def test_cli_verify_comp():
    code, out = run_cli(["verify", "--structure", "comp:hamilton",
                         "--trials", "30", "--seed", "3", "--json"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_cli_determinism():
    args = ["verify", "--structure", "preset:trivial", "--trials", "20",
            "--seed", "9", "--json"]
    out1 = run_cli(args)
    out2 = run_cli(args)
    assert out1 == out2


def test_cli_usage_errors():
    code, _ = run_cli(["verify", "--structure", "preset:nonexistent"])
    assert code == 2
    code, _ = run_cli(["cube", "--to", "ideals", "--input", "{bad json"])
    assert code == 2
    code, _ = run_cli(["nope"])
    assert code == 2


def test_cli_bound_exceeded(rng, capsys):
    # a witness bound too small to succeed: cap 1 forces exit 3 on the
    # rank-one decomposition search
    code, _ = run_cli(["invariant", "--kind", "b2", "--preset", "thm-diag",
                       "--coeffs", "1", "--bound", "1", "--json"])
    assert code == 3
    assert capsys.readouterr().err == ("bound exceeded: rank-one decomposition search "
                                       "exhausted; raise cap\n")


def test_cli_rejects_nonpositive_counts(capsys):
    """--trials and --bound below 1 are usage errors (exit 2), not a
    vacuous pass or an empty search, and print no traceback."""
    cases = [["verify", "--structure", "preset:trivial", "--trials", "-5"],
             ["verify", "--structure", "preset:trivial", "--trials", "0"],
             ["pair", "--preset", "thm-diag", "--coeffs", "1", "--to", "ideals",
              "--bound", "0"],
             ["lift", "--law", "wj", "--structure", "preset:fxf", "--bound", "-1"]]
    for argv in cases:
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert out == "" and "Traceback" not in err and "at least 1" in err, argv
    code, _ = run_cli(["verify", "--structure", "preset:trivial", "--trials", "1"])
    assert code == 0


def test_cli_cube_round_trip(tmp_path):
    cube = {"cube": [1, 0, 1, 1, 0, 1, 1, -2]}
    f = tmp_path / "cube.json"
    f.write_text(json.dumps(cube))
    code, out = run_cli(["cube", "--input", str(f), "--to", "ideals", "--json"])
    assert code == 0
    ideal = json.loads(out)["ideal"]
    f2 = tmp_path / "ideal.json"
    f2.write_text(json.dumps(ideal))
    code, out = run_cli(["cube", "--input", str(f2), "--to", "cube", "--json"])
    assert code == 0
    assert json.loads(out)["cube"] == ["1", "0", "1", "1", "0", "1", "1", "-2"]


@pytest.mark.parametrize("kind, make, check", [
    ("cube", ["cube", "--input", json.dumps({"cube": [1, 0, 1, 1, 0, 1, 1, -2]})],
     "balanced_check_sa"),
    ("pair", ["pair", "--preset", "bhargava-a1b1", "--coeffs", "1,2,3,4"],
     "balanced_check_tc"),
])
def test_cli_back_direction_checks_balance_once(kind, make, check, monkeypatch):
    """--to cube and --to pair reject unbalanced input and report the checks
    from one balanced check."""
    code, out = run_cli(make + ["--to", "ideals", "--json"])
    assert code == 0
    ideal = json.dumps(json.loads(out)["ideal"])
    calls = []
    original = getattr(rings_ideals, check)

    def counted(arg):
        calls.append(arg)
        return original(arg)

    for module in (cli, rings_ideals):
        monkeypatch.setattr(module, check, counted)
    code, out = run_cli([kind, "--input", ideal, "--to", kind, "--json"])
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["checks"] == {e.name: e.ok for e in original(calls[0]).certificate}
    assert all(json.loads(out)["checks"].values())


def test_cli_pair_invariant():
    code, out = run_cli(["pair", "--preset", "bhargava-a1b1",
                         "--coeffs", "1,2,3,4", "--invariant", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == ["1", "0", "0"]


def test_cli_lift(rng):
    J = cns_preset("matrix3")
    W = WSpace(J)
    while True:
        v = W.random(rng, 1)
        if W.quartic(v) != 0:
            break
    data = json.dumps(ser.enc_w_elt(v))
    code, out = run_cli(["lift", "--law", "wj", "--structure", "preset:matrix3",
                         "--input", data, "--json"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_cli_lowrank():
    J = cns_preset("h3-rational")
    X = J.join((1, 1, 0), (J.comp.zero(),) * 3)
    data = json.dumps({"coords": [ser.enc_scalar(c) for c in X.coords]})
    code, out = run_cli(["lowrank", "--kind", "h3-rank2",
                         "--structure", "preset:h3-rational", "--input", data,
                         "--json"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_cli_second_lift(rng):
    from conftest import rank4_with_antisym_omega
    from cubicnorm.presets import second_kind_preset

    sk = second_kind_preset("matrix:-1")
    v = rank4_with_antisym_omega(sk, rng)
    data = json.dumps(ser.enc_w_elt(v))
    code, out = run_cli(["lift", "--law", "second", "--second-kind", "matrix:-1",
                         "--input", data, "--json"])
    assert code == 0
    assert json.loads(out)["ok"]


MALFORMED = [
    ["lift", "--structure", "preset:fxf", "--input",
     '{"a": "1/0", "b": ["1", "0"], "c": ["0", "0"], "d": "1"}'],
    ["lift", "--structure", "preset:fxf", "--input", "[1, 2]"],
    ["lift", "--structure", "preset:fxf", "--input", '{"a": "1", "b": 5, "c": [], "d": "0"}'],
    ["lift", "--structure", "preset:fxf", "--input", '{"cube": [1, 0, 1, 1, 0, 1, 1, -2]}'],
    ["verify", "--structure", '{"cns": "nope"}'],
    ["verify", "--structure", "[1]"],
    ["verify", "--structure", "preset:etale-cubic:1,0,0,0"],
    ["verify", "--structure", '{"cns": {"variant": "cubic", "coeffs": [1, 0, 0, 0]}}'],
    ["pair", "--preset", "bhargava-a1b1", "--coeffs", "1,2"],
    ["verify", "--structure", json.dumps({"cns": {"variant": "cubic", "table": [
        [["1", "0", "0"], ["0", "-3", "0"], ["0", "0", "1"]],
        [["0", "1", "0"], ["0", "0", "1"], ["-1", "0", "0"]],
        [["0", "0", "1"], ["-1", "0", "0"], ["0", "-1", "0"]]]}})],
    ["verify", "--structure", '{"cns": {"variant": "h3", "comp": {"gammas": [true]}}}'],
    ["invariant", "--kind", "b1", "--structure", "preset:fxf", "--input",
     '{"a": 1, "b": [0.1, 0], "c": [0, 1], "d": 1}'],
    ["pair", "--preset", "thm-diag", "--structure", "preset:etale-cubic"],
    ["pair", "--structure", "preset:etale-cubic", "--invariant", "--input",
     '{"A":{"coords":[1,0,0]},"B":{"coords":[0,1,0]}}'],
    ["pair", "--structure", "comp:hamilton", "--input",
     '{"A":{"coords":[1,0,0,0]},"B":{"coords":[0,1,0,0]}}'],
    ["lowrank", "--kind", "h3-rank2", "--structure", "comp:hamilton", "--input",
     '{"coords":[1,0,0,0]}'],
    ["invariant", "--kind", "b1", "--structure",
     '{"cns": {"variant": "fxc", "comp": {"gammas": []}, "base": {"modulus": ["-5", "0", "1"]}}}',
     "--input", '{"a": [1, 0], "b": [[0, 0], [0, 0]], "c": [[0, 0], [0, 0]], "d": [1, 0]}'],
    ["lowrank", "--kind", "h3-rank2", "--structure", "preset:etale-cubic", "--input",
     '{"coords":[1,1,0]}'],
    ["pair", "--structure", "preset:h3-rational", "--input", "[1]"],
    ["pair", "--preset", "thm-diag", "--coeffs", "1/2", "--to", "ideals"],
    ["pair", "--structure", json.dumps({"cns": {"variant": "h3", "comp": {"gammas": ["-1"]},
                                                "base": {"modulus": ["-5", "0", "1"]}}}),
     "--input", json.dumps({"A": {"coords": [[1, 0]] + [[0, 0]] * 8},
                            "B": {"coords": [[0, 0], [1, 0]] + [[0, 0]] * 7}})],
    ["verify"],
    ["cube", "--to", "cube"],
    ["cube", "--to", "ideals"],
    ["pair", "--to", "pair"],
    ["pair", "--to", "ideals"],
    ["lift", "--structure", "preset:fxf"],
    ["lowrank", "--kind", "h3-rank2", "--input", "{}"],
    ["invariant", "--kind", "b1", "--structure", "preset:fxf"],
    ["invariant", "--kind", "b2"],
    ["lift", "--structure", "preset:fxf", "--input", "{dir}"],
    ["verify", "--structure", "@{dir}"],
    ["lift", "--structure", "preset:fxf", "--input", '{"a": 1}'],
    ["pair", "--preset", "thm-diag", "--coeffs", "1/0"],
    ["pair", "--preset", "bhargava-a1b1", "--coeffs", "1/0,2,3,4"],
    ["lift", "--law", "second", "--second-kind", "matrix:1/0", "--input", "{}"],
    ["pair", "--to", "pair", "--input", json.dumps({
        "ring": {"cubic": {"coeffs": ["0", "0", "0", "0"]}}, "comp": {"gammas": []},
        "basis": [[["1", "0", "0"]], [["0", "1", "0"]], [["0", "0", "1"]]],
        "beta": ["1", "0", "0"]})],
    ["pair", "--to", "pair", "--input", json.dumps({
        "ring": {"cubic": {"coeffs": ["1", "0", "0", "0"]}}, "comp": {"gammas": []},
        "basis": [[["1", "0", "0"]], [["0", "1", "0"]], [["0", "0", "1"]]],
        "beta": ["1", "0", "0"]})],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=[
    "scalar-1/0", "w-not-object", "b-not-array", "cube-outside-cube-space",
    "cns-not-object", "structure-not-object", "etale-cubic-disc-0", "cubic-json-disc-0",
    "two-coeffs", "cubic-table-not-unital", "scalar-bool", "scalar-float",
    "pair-preset-not-hermitian", "pair-invariant-not-hermitian", "pair-comp-structure",
    "lowrank-comp-structure", "b1-off-ground-field", "lowrank-rank2-not-hermitian",
    "pair-input-not-object", "pair-ideals-not-integral", "pair-off-ground-field",
    "verify-no-structure", "cube-no-input", "cube-ideals-no-input", "pair-to-pair-no-input",
    "pair-to-ideals-no-structure", "lift-no-input", "lowrank-no-structure",
    "b1-no-input", "b2-no-structure", "input-is-directory", "structure-is-directory",
    "w-missing-key", "thm-diag-coeff-1/0", "bhargava-coeff-1/0", "second-kind-D-1/0",
    "pair-to-pair-ring-zero", "pair-to-pair-ring-disc-0"])
def test_cli_malformed_input_is_usage_error(argv, capsys, tmp_path):
    # "{dir}" stands for a path that exists but is a directory, not a file
    code, out = run_cli([arg.replace("{dir}", str(tmp_path)) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2, argv
    assert out == "" and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("preset", ["quaternion:1", "quaternion:1,2,3"])
def test_cli_quaternion_preset_needs_two_gammas(preset, capsys):
    """A quaternion preset with other than two gammas is a descriptor error
    that names the expected form, not a tuple-unpacking ValueError."""
    code, out = run_cli(["verify", "--structure", f"comp:{preset}"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: bad composition preset {preset!r}: expected quaternion:a,b\n")


def test_cli_pair_back_direction_rejects_octonions(capsys):
    """--to pair takes ideals over associative C only: e1 (x) 1, e2 (x) w,
    e4 (x) t over the octonions generate a non-associative C, and over the
    ring (1, 0, -1, 0) every balance check would pass."""
    def unit(k, coords):
        return [[str(c) for c in coords] if i == k else ["0"] * 3 for i in range(8)]

    ideal = {"ring": {"cubic": {"coeffs": ["1", "0", "-1", "0"]}},
             "comp": {"gammas": ["-1", "-1", "-1"]},
             "basis": [unit(1, (1, 0, 0)), unit(2, (0, 1, 0)), unit(4, (0, 0, 1))],
             "beta": ["1", "0", "0"]}
    assert run_cli(["pair", "--to", "pair", "--input", json.dumps(ideal)]) == (2, "")
    assert capsys.readouterr().err == "error: needs Hermitian associative coordinates\n"


@pytest.mark.parametrize("argv, message", [
    (["verify"], "--structure is required"),
    (["lift", "--structure", "preset:fxf"], "--input is required"),
    (["lift", "--structure", "preset:fxf", "--input", '{"a": 1}'], "W element: missing key 'b'"),
    (["cube", "--to", "cube", "--input", '{"ring": {"quad": {"D": "5"}}}'],
     "ideal: missing key 'structure'"),
    (["pair", "--to", "pair", "--input", '{"ring": {"cubic": {"coeffs": [1, 0, 0, 1]}}}'],
     "ideal: missing key 'comp'"),
    (["verify", "--structure", '{"cns": {"variant": "h3"}}'], "structure: missing key 'comp'"),
    (["pair", "--structure", "preset:h3-rational", "--input", '{"B": {"coords": []}}'],
     "pair: missing key 'A'"),
], ids=["no-structure", "no-input", "w-element", "ideal-sa", "ideal-tc", "structure", "pair"])
def test_cli_missing_key_or_option_is_named(argv, message, capsys):
    """A missing option or JSON key is reported by name, with what was being
    decoded, not as a bare KeyError or a traceback."""
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [argv for argv in MALFORMED if "1/0" in "".join(argv)],
                         ids=["json-input", "thm-diag-coeffs", "bhargava-coeffs", "second-kind"])
def test_cli_malformed_scalar_is_named(argv, capsys):
    """A scalar that is no rational is named, whether it comes from a JSON
    input, from --coeffs or from --second-kind."""
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == "error: malformed scalar '1/0'\n"


def test_cli_structure_kinds_still_accepted():
    """verify takes a composition algebra in both spellings, and the pair
    presets still run over any Hermitian structure."""
    for argv in (["verify", "--structure", "comp:octonion", "--trials", "2"],
                 ["verify", "--structure", '{"comp": {"gammas": ["-1", "-1"]}}', "--trials", "2"],
                 ["pair", "--preset", "thm-diag", "--structure", "preset:h3-octonion"]):
        assert run_cli(argv)[0] == 0, argv


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["1", "-2/3", "1/0", "x", "", "1e3", "nan"]) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["a", "b", "c", "d", "cube"]), inner,
                                     max_size=5)),
    max_leaves=10)


@st.composite
def mangled_w_inputs(draw):
    """A valid fxf element of W with one part replaced, dropped or garbled."""
    data = {"a": "1", "b": ["1", "0"], "c": ["0", "1"], "d": "2"}
    how = draw(st.sampled_from(["whole", "value", "coordinate", "drop"]))
    if how == "whole":
        return draw(JSON_VALUES)
    key = draw(st.sampled_from(sorted(data)))
    if how == "drop":
        del data[key]
    elif how == "coordinate" and key in ("b", "c"):
        data[key][draw(st.integers(0, 1))] = draw(JSON_VALUES)
    else:
        data[key] = draw(JSON_VALUES)
    return data


STRUCTURES = [
    {"cns": {"variant": "trivial"}},
    {"cns": {"variant": "fxc", "comp": {"gammas": ["-1", "-1"]}}},
    {"cns": {"variant": "cubic", "table": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                                          [["0", "1", "0"], ["0", "0", "1"], ["-1", "0", "0"]],
                                          [["0", "0", "1"], ["-1", "0", "0"], ["0", "-1", "0"]]]}},
    {"cns": {"variant": "cubic", "coeffs": ["1", "0", "-2", "1"]}},
    {"cns": {"variant": "matrix3"}},
    {"cns": {"variant": "h3", "comp": {"gammas": ["-1"]}}},
    {"cns": {"variant": "cayleyu", "comp": {"gammas": ["-1", "-1"]}, "gamma": "2"}},
    {"cns": {"variant": "fxc", "comp": {"gammas": []}, "base": {"modulus": ["-5", "0", "1"]}}},
    {"comp": {"gammas": ["-1", "-1"]}},
]

DESCRIPTOR_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["0", "1", "-1", "1/0", "x", "", "nan", "h3", "cubic", "cayleyu", "fxc"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["cns", "variant", "comp", "gammas", "gamma",
                                                      "table", "coeffs", "base", "modulus"]),
                                     inner, max_size=4)),
    max_leaves=8)


def _paths(data, prefix=()):
    """Every path of keys and indices into nested JSON, the empty one first."""
    yield prefix
    if isinstance(data, (dict, list)):
        for key in (data if isinstance(data, dict) else range(len(data))):
            yield from _paths(data[key], prefix + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def mangled_structures(draw):
    """A valid structure descriptor replaced whole, with one entry dropped
    or replaced, or with one scalar leaf changed (another scalar keeps it
    well-formed but may break the algebra it describes)."""
    data = json.loads(json.dumps(draw(st.sampled_from(STRUCTURES))))
    how = draw(st.sampled_from(["whole", "drop", "entry", "leaf"]))
    if how == "whole":
        return draw(DESCRIPTOR_VALUES)
    paths = [p for p in _paths(data) if p]
    if how == "leaf":
        paths = [p for p in paths if isinstance(_at(data, p), str)]
    path = draw(st.sampled_from(paths))
    parent = _at(data, path[:-1])
    if how == "drop":
        del parent[path[-1]]
    elif how == "leaf":
        parent[path[-1]] = draw(st.sampled_from(["0", "1", "-1", "2", "1/2", "-3"])
                                | DESCRIPTOR_VALUES)
    else:
        parent[path[-1]] = draw(DESCRIPTOR_VALUES)
    return data


@settings(max_examples=60, deadline=None)
@given(mangled_w_inputs(), mangled_structures())
def test_cli_mangled_input_never_crashes(data, structure):
    for argv in (["lift", "--law", "wj", "--structure", "preset:fxf", "--input", json.dumps(data)],
                 ["verify", "--structure", json.dumps(structure), "--trials", "2"]):
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


_FXF_W = {"a": "1", "b": ["1", "0"], "c": ["0", "1"], "d": "2"}
_H3_PAIR = {"A": {"coords": ["0", "-1", "-3", "0", "1", "0"]},
            "B": {"coords": ["0", "-2", "-4", "0", "0", "-1"]}}
_H3 = ["--structure", "preset:h3-rational"]
_FXF = ["--structure", "preset:fxf"]
_MATRIX = ["--second-kind", "matrix:-1"]
# one command line per input decoder, each with a valid --input it certifies
_COMMANDS = [
    (["cube", "--to", "ideals"], {"cube": [1, 0, 1, 1, 0, 1, 1, -2]}),
    (["cube", "--to", "cube"], {
        "basis": [[["1/2", "1/12"], ["0", "-1/12"], ["0", "0"]],
                  [["0", "1/6"], ["0", "1/12"], ["0", "0"]]],
        "beta": ["1/12", "1/36"], "ring": {"quad": {"D": "12"}},
        "structure": {"cns": {"variant": "cubic", "table": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "-1", "0"], ["0", "0", "0"]],
            [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "1"]]]}}}),
    (["pair"] + _H3, _H3_PAIR),
    (["pair", "--to", "ideals"] + _H3, _H3_PAIR),
    (["pair", "--invariant"] + _H3, _H3_PAIR),
    (["pair", "--to", "pair"], {
        "basis": [[["13/20", "1/4", "-3/20"]], [["3/20", "-3/20", "-1/4"]],
                  [["-1/5", "-3/5", "-1/5"]]],
        "beta": ["71/200", "11/100", "-13/200"], "comp": {"gammas": []},
        "ring": {"cubic": {"coeffs": ["1", "2", "3", "4"]}}}),
    (["invariant", "--kind", "b1"] + _FXF, _FXF_W),
    (["invariant", "--kind", "b2"] + _H3, _H3_PAIR),
    (["lowrank", "--kind", "h3-rank2"] + _H3, {"coords": ["1", "1", "0", "0", "0", "0"]}),
    (["lowrank", "--kind", "w-rank2"] + _H3,
     {"a": "1", "b": ["0"] * 6, "c": ["1"] + ["0"] * 5, "d": "0"}),
    (["lowrank", "--kind", "w-rank3"] + _MATRIX,
     {"a": "1", "b": ["0"] * 9, "c": ["1", "1"] + ["0"] * 7, "d": "0"}),
] + [(["lift", "--law", law] + _FXF, _FXF_W) for law in ("wj", "wa", "gansavin")] + [
    (["lift", "--law", law] + _MATRIX, {
        "a": "-13/2", "b": ["0", "27/4", "3/2", "-19/2", "3", "-13/2", "-15/2", "-13/4", "13/4"],
        "c": ["51/4", "16", "13/4", "-15/2", "1", "-10", "-14", "-55/4", "35/4"],
        "d": "-159/4"}) for law in ("second", "utilde")]


@st.composite
def mangled_commands(draw):
    """A command line of ``_COMMANDS`` with its valid input replaced whole,
    with one entry dropped or with one entry replaced."""
    argv, data = draw(st.sampled_from(_COMMANDS))
    data = json.loads(json.dumps(data))
    how = draw(st.sampled_from(["whole", "drop", "entry"]))
    if how == "whole":
        data = draw(JSON_VALUES)
    else:
        path = draw(st.sampled_from([p for p in _paths(data) if p]))
        parent = _at(data, path[:-1])
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return argv + ["--bound", "20", "--input", json.dumps(data)]


def test_cli_valid_inputs_of_the_mangled_commands_pass():
    for argv, data in _COMMANDS:
        assert run_cli(argv + ["--input", json.dumps(data)])[0] == 0, argv


@settings(max_examples=80, deadline=None)
@given(mangled_commands())
def test_cli_mangled_input_exits_as_documented(argv):
    """Every input decoder turns mangled input into an exit code the CLI
    documents: 0, a usage error (2) or an exceeded bound (3); any other
    exception propagates out of main."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())


def test_cli_reports_an_unexpected_error_as_a_bug(monkeypatch):
    """A KeyError from inside a construction is a bug, not a usage error:
    main lets it propagate instead of returning 2."""
    def broken(W, v):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "lift_wj", broken)
    with pytest.raises(KeyError):
        main(["lift", "--law", "wj", "--structure", "preset:fxf", "--input", json.dumps(_FXF_W)])
