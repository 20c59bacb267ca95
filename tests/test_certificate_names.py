"""The certificate entry names, in order, of the constructions that the CLI
digests do not reach, each on one fixed input.

A certificate is read by name, so renaming, dropping, adding or reordering
an entry is a visible change even when every entry still passes.
"""

import random

import pytest

from conftest import rand_rank2_w, rand_rank3_w, rand_rank4, rank4_with_antisym_omega

from cubicnorm.cns import H3CNS, second_kind_matrix
from cubicnorm.composition import comp_preset
from cubicnorm.freudenthal import WSpace
from cubicnorm.lifting import (
    gan_savin_cns,
    pair_lift_refined,
    rank2_w_lift,
    rank3_w_lift,
    utilde_cns,
)
from cubicnorm.presets import bhargava_pair, cns_preset
from cubicnorm.rings_ideals import pair_to_balanced


def _utilde():
    sk = second_kind_matrix(-1)
    return utilde_cns(sk, rank4_with_antisym_omega(sk, random.Random(0)))


def _gan_savin():
    A = cns_preset("fxf")
    return gan_savin_cns(A, rand_rank4(WSpace(A), random.Random(0), 1))


def _rank2_w():
    W = WSpace(H3CNS(comp_preset("gaussian")))
    return rank2_w_lift(W, rand_rank2_w(W, random.Random(5), words=4))


def _rank3_w():
    sk = second_kind_matrix(-1)
    return rank3_w_lift(sk, rand_rank3_w(WSpace(sk.J), random.Random(7), words=3))


def _pair_refined():
    J = cns_preset("h3-gaussian")
    return pair_lift_refined(J, *bhargava_pair(J, 1, 0, 1, 2))


def _pair_to_balanced():
    J = cns_preset("h3-rational")
    return pair_to_balanced(J, *bhargava_pair(J, 1, 2, 3, 4))[2]


CASES = {
    "utilde_cns": (_utilde, [
        "I(v, omega) has B-corank one",
        "image of v + 1_2 is rank one",
    ]),
    "gan_savin_cns": (_gan_savin, [
        "lifted element is rank one",
    ]),
    "rank2_w_lift": (_rank2_w, [
        "<u, u>_C = 0",
        "-S(x) = gamma u* u",
        "x + u rank one in W_U(gamma)",
    ]),
    "rank3_w_lift": (_rank3_w, [
        "<eta, eta>_B = 0",
        "S(x) = eta h# eta*",
        "x_flat / 2 = n(h) eta!",
        "x + eta rank one in W_U(h)",
    ]),
    "pair_lift_refined": (_pair_refined, [
        "Q (v eps)*(v eps) = (v Y v*) X",
        "eigenvector identities",
    ]),
    "pair_to_balanced": (_pair_to_balanced, [
        "beta^{-1} b* b = X(A,B)",
        "integrality (beta^{-1} y* x in C (x) T)",
        "norm (N_6(m) = N(beta))",
        "w b = b S_r(w) (T-stability with integral action)",
    ]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_entry_names(name):
    build, expected = CASES[name]
    res = build()
    assert [e.name for e in res.certificate] == expected
    assert res.ok()
