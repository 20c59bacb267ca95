"""The witness each bounded search returns on fixed small inputs.

Every search draws its candidates from a seeded stream in a fixed order and
returns the first that passes its test, so a change in a stream's yield
order or in a search's acceptance test changes these values.  The inputs
are chosen so that several witnesses lie past the first candidate: deep in
the basis prefix, in the seeded random tail, or after the normalization
searches of the rank-3 lift.
"""

import random
from fractions import Fraction as F

from conftest import (
    rand_nondeg_pair,
    rand_rank2_h3,
    rand_rank2_w,
    rand_rank3_w,
    rand_rank4,
    rank4_with_antisym_omega,
)

from cubicnorm.cns import H3CNS, second_kind_matrix
from cubicnorm.composition import comp_preset
from cubicnorm.freudenthal import WElt, WSpace, lambda_invariant, norm_class_witness, shriek_col
from cubicnorm.lifting import hermitian_rank1_decompose, rank2_w_lift, rank3_w_lift, second_lift
from cubicnorm.presets import bhargava_pair, cns_preset
from cubicnorm.rings_ideals import cube_to_balanced, field_invariant_b1, pair_to_balanced
from cubicnorm.scalars import is_rational, scalar_to_str
from cubicnorm.serialize import cube_to_w


def enc(x):
    """Scalars as "p/q" strings, everything else as nested coordinate lists."""
    if x is None:
        return None
    if is_rational(x):
        return scalar_to_str(x)
    if isinstance(x, (tuple, list)):
        return [enc(c) for c in x]
    if isinstance(x, WElt):
        return [enc(x.a), enc(x.b), enc(x.c), enc(x.d)]
    return enc(x.coords)


def witnesses() -> dict:
    out = {}
    J = cns_preset("matrix3")
    W = WSpace(J)
    rng = random.Random(3)
    out["lambda_invariant"] = [
        enc(lambda_invariant(W, shriek_col(W, (J.random(rng, 1), J.random(rng, 1)))))
        for _ in range(3)]
    sk = second_kind_matrix(-1)
    out["second_lift"] = []
    for k in range(2):
        res = second_lift(sk, rank4_with_antisym_omega(sk, random.Random(k)))
        out["second_lift"].append([enc(res.eta), enc(res.lam)])
    out["cube_to_balanced"] = []
    for cube in ([1, 0, 1, 1, 0, 1, 1, -2], [0, 1, 1, 0, 1, 0, 0, 1], [2, 1, 0, 1, 1, 0, 3, 1]):
        v = cube_to_w(cube)
        out["cube_to_balanced"].append(enc(cube_to_balanced(v.W.J, v)[2].data["ell"]))
    A = cns_preset("fxq")
    v = rand_rank4(WSpace(A), random.Random(2), 1)
    out["cube_to_balanced"].append(enc(cube_to_balanced(A, v)[2].data["ell"]))
    pairs = [(cns_preset(name), bhargava_pair(cns_preset(name), *coeffs))
             for name, coeffs in (("h3-rational", (1, 2, 3, 4)), ("h3-gaussian", (1, 0, 1, 2)),
                                  ("h3-quaternion", (1, 1, 1, 2)))]
    pairs += [(cns_preset(name), rand_nondeg_pair(cns_preset(name), random.Random(k)))
              for name, k in (("h3-rational", 5), ("h3-gaussian", 1))]
    out["pair_to_balanced"] = []
    for J, (A, B) in pairs:
        _, ideal, cert = pair_to_balanced(J, A, B)
        out["pair_to_balanced"].append([enc(cert.data["v0"]), enc(ideal.basis)])
    out["rank2_w_lift"] = []
    for comp, k in (("rational", 3), ("gaussian", 5), ("hamilton", 8)):
        W = WSpace(H3CNS(comp_preset(comp)))
        res = rank2_w_lift(W, rand_rank2_w(W, random.Random(k), words=4))
        out["rank2_w_lift"].append([enc(res.data["gamma"]), enc(res.data["u"])])
    # seed 7 needs the a-slot search; the two split inputs need the tr(c#) search
    Wm = WSpace(sk.J)
    xs = [(sk, rand_rank3_w(Wm, random.Random(k), words=3)) for k in (0, 1, 7)]
    sk1 = second_kind_matrix(1)
    W1 = WSpace(sk1.J)
    xs += [(sk1, W1.elem(1, sk1.J.zero(), sk1.J.elem(c), 0))
           for c in ([-1, -1, 1, 0, 1, 1, 1, -1, 1], [-1, 1, -1, 0, -1, 0, 0, -1, -1])]
    out["rank3_w_lift"] = [enc(rank3_w_lift(s, x).lifted) for s, x in xs]
    out["field_invariant_b1"] = []
    for name in ("fxf", "matrix3"):
        J = cns_preset(name)
        for k in range(2):
            v = rand_rank4(WSpace(J), random.Random(k), 1)
            out["field_invariant_b1"].append(enc(field_invariant_b1(J, v)["lambda"]))
    out["norm_class_witness"] = []
    for name, target in (("fxf", [6, 1]), ("etale-cubic", [1, 2, 0]),
                         ("matrix3", [2, 1, 0, 0, 1, 0, 0, 0, 1])):
        J = cns_preset(name)
        out["norm_class_witness"].append(
            enc(norm_class_witness(J, F(1), J.norm(J.elem(target)))))
    out["hermitian_rank1_decompose"] = []
    for comp, k in (("gaussian", 0), ("hamilton", 2)):
        J = H3CNS(comp_preset(comp))
        Y = J.adjoint(rand_rank2_h3(J, random.Random(k)))
        out["hermitian_rank1_decompose"].append(enc(hermitian_rank1_decompose(J, Y)))
    return out


EXPECTED = {'cube_to_balanced': [[['1', '0', '0'], ['0', '0', '0']],
                          [['0', '-2', '-1'], ['1', '-2', '2']],
                          [['1', '0', '0'], ['0', '0', '0']],
                          [['1', '0', '0', '0', '0'], ['0', '1', '0', '0', '0']]],
     'field_invariant_b1': [['1', '-1/2'], ['1', '0'], ['2', '1/2'], ['-5', '-1']],
     'hermitian_rank1_decompose': [['4', [['0', '0'], ['0', '0'], ['1', '0']],
                                    [['0', '0'], ['0', '0'], ['1', '0']]],
                                   ['1',
                                    [['0', '0', '0', '0'], ['0', '0', '0', '0'],
                                     ['1', '0', '0', '0']],
                                    [['0', '0', '0', '0'], ['0', '0', '0', '0'],
                                     ['1', '0', '0', '0']]]],
     'lambda_invariant': ['-4', '-4', '-8'],
     'norm_class_witness': [['3/2', '2'], ['-3/2', '2', '-1/2'], None],
     'pair_to_balanced': [[[['1'], ['0'], ['0']],
                           [[['13/20', '1/4', '-3/20']], [['3/20', '-3/20', '-1/4']],
                            [['-1/5', '-3/5', '-1/5']]]],
                          [[['1', '0'], ['0', '0'], ['0', '0']],
                           [[['19/56', '3/56', '-1/56'], ['0', '0', '0']],
                            [['1/56', '-19/56', '-3/56'], ['0', '0', '0']],
                            [['3/28', '-1/28', '-9/28'], ['0', '0', '0']]]],
                          [[['1', '0', '0', '0'], ['0', '0', '0', '0'], ['0', '0', '0', '0']],
                           [[['33/83', '9/83', '-7/83'], ['0', '0', '0'], ['0', '0', '0'],
                             ['0', '0', '0']],
                            [['-5/83', '-24/83', '-9/83'], ['0', '0', '0'], ['0', '0', '0'],
                             ['0', '0', '0']],
                            [['4/83', '-14/83', '-26/83'], ['0', '0', '0'], ['0', '0', '0'],
                             ['0', '0', '0']]]],
                          [[['0'], ['0'], ['1']],
                           [[['1', '-3/4', '-3/4']], [['-1/4', '0', '1/4']],
                            [['1', '-1/2', '-1/2']]]],
                          [[['0', '0'], ['0', '0'], ['1', '0']],
                           [[['-1/70', '-3/70', '-2/35'], ['1/70', '3/70', '2/35']],
                            [['1/70', '3/70', '2/35'], ['1/14', '3/14', '-3/14']],
                            [['2/7', '-1/7', '1/7'], ['0', '0', '0']]]]],
     'rank2_w_lift': [['1', [['0'], ['1'], ['-1'], ['1'], ['0'], ['0']]],
                      ['3',
                       [['0', '0'], ['0', '0'], ['0', '0'], ['1', '0'], ['0', '0'],
                        ['0', '0']]],
                      ['1',
                       [['0', '0', '0', '0'], ['0', '0', '0', '0'], ['0', '0', '0', '0'],
                        ['1', '0', '0', '0'], ['0', '0', '0', '0'], ['0', '0', '0', '0']]]],
     'rank3_w_lift': [['2',
                       ['-2', '2', '3', '1', '1', '2', '-3', '1', '-3', '-1', '0', '0', '0',
                        '0', '0', '0', '0', '-1', '0', '0', '0', '0', '0', '0', '0', '-1',
                        '0'],
                       ['3', '-9', '-6', '-2', '4', '2', '3', '4', '4', '-9/7', '0', '0',
                        '-6/7', '6/7', '5/7', '0', '6/7', '3/7', '0', '8/7', '10/7', '6/7',
                        '-5/7', '8/7', '-10/7', '1/7', '0'],
                       '-9'],
                      ['1',
                       ['5', '-1', '-1', '0', '1', '3', '0', '1', '2', '-1/2', '0', '1/4',
                        '1/4', '1/4', '-1/4', '1/4', '-1/4', '-3/4', '0', '0', '-1/4', '1/4',
                        '1/4', '0', '1/4', '-3/4', '0'],
                       ['1', '-11', '-7', '4', '-9', '0', '-1', '0', '-1', '3/2', '-1', '-1/4',
                        '-1/4', '3/4', '5/4', '5/4', '-7/4', '-1', '1/4', '1/4', '1', '9/4',
                        '3/4', '-3/4', '-1', '-1', '3/4'],
                       '-3'],
                      ['0',
                       ['-1', '-2', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0',
                        '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '1', '0'],
                       ['4', '2', '1', '-1', '0', '0', '2', '0', '0', '1', '0', '0', '0', '0',
                        '0', '0', '0', '1', '0', '0', '0', '0', '0', '0', '0', '2', '0'],
                       '0'],
                      ['1',
                       ['0', '0', '0', '0', '0', '0', '0', '0', '0', '-1', '0', '-4/3', '4/3',
                        '-2/3', '2/3', '-8/3', '-8/3', '2/3', '0', '0', '-4/3', '-2/3', '-2/3',
                        '0', '2/3', '-4/3', '0'],
                       ['-1', '-1', '1', '0', '1', '1', '1', '-1', '1', '0', '0', '-4/3', '4/3',
                        '-2/3', '2/3', '-2/3', '-2/3', '2/3', '0', '0', '-1/3', '-2/3', '-2/3',
                        '0', '2/3', '-1/3', '0'],
                       '0'],
                      ['1',
                       ['0', '0', '0', '0', '0', '0', '0', '0', '0', '-1', '0', '-2/3', '-2/3',
                        '1/3', '1/3', '-4/3', '4/3', '2/3', '0', '0', '-4/3', '1/3', '-1/3',
                        '0', '2/3', '-4/3', '0'],
                       ['-1', '1', '-1', '0', '-1', '0', '0', '-1', '-1', '0', '0', '-2/3',
                        '-2/3', '1/3', '1/3', '-1/3', '1/3', '2/3', '0', '0', '-1/3', '1/3',
                        '-1/3', '0', '2/3', '-1/3', '0'],
                       '0']],
     'second_lift': [[[[['-3/2', '-85/4'], ['-25/2', '-29/2'], ['13/2', '41/4'],
                        ['-41/4', '93/4'], ['-13/2', '31/2'], ['59/4', '-119/4'],
                        ['59/4', '-1/2'], ['41/4', '-15/2'], ['-31/2', '7/2']],
                       [['71/4', '4'], ['27/4', '-13/4'], ['-19', '-15/4'], ['36', '-167/4'],
                        ['63/4', '-83/2'], ['-65/2', '49'], ['-9/4', '5'], ['-57/4', '-6'],
                        ['28', '-41/2']]],
                      ['-4964/981941', '-2604/981941']],
                     [[[['37/4', '23/8'], ['25/8', '1/4'], ['-41/8', '5/2'], ['-35/8', '-43/4'],
                        ['1/4', '-23/8'], ['11/2', '-5/8'], ['15/4', '-85/8'],
                        ['-3/4', '-41/8'], ['9/2', '45/4']],
                       [['-7/4', '-7/8'], ['-11/8', '1/4'], ['7/8', '-1/2'], ['-1/4', '3'],
                        ['-3/2', '1/2'], ['0', '0'], ['7/2', '-9/2'], ['0', '-2'],
                        ['3/2', '5']]],
                      ['368/59093', '-3872/59093']]]}


def test_search_witnesses_are_pinned():
    got = witnesses()
    assert sorted(got) == sorted(EXPECTED)
    for search, values in EXPECTED.items():
        assert got[search] == values, search
