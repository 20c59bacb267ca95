"""The witness-search candidate streams, pinned candidate by candidate.

Each stream is a deterministic prefix followed by a seeded random tail, and
every search, pinned witness and CLI digest depends on its exact order.  The
digests below cover the whole output of each stream at a small cap, so both
the prefix and the random tail are pinned.
"""

import hashlib
import inspect
import json
import random

import pytest

from cubicnorm.composition import comp_preset
from cubicnorm.freudenthal import iter_search_rows
from cubicnorm.lifting import iter_comp_rows, iter_elements
from cubicnorm.presets import cns_preset
from cubicnorm.rings_ideals import iter_ell_candidates
from cubicnorm.scalars import quadratic_field
from cubicnorm.serialize import enc_base_elt


def enc(x):
    if isinstance(x, tuple):
        return [enc(y) for y in x]
    return [enc_base_elt(c) for c in x.coords]


def stream_digest(stream):
    """(number of candidates, SHA-256 prefix of their JSON encodings)."""
    cands = [enc(x) for x in stream]
    return len(cands), hashlib.sha256(json.dumps(cands).encode()).hexdigest()[:16]


def ell_stream(cap, seed):
    J = cns_preset("fxf")
    E = quadratic_field(5)
    JE = J.base_change(E)
    rng = random.Random(11)
    eps = ((JE.random(rng), JE.random(rng)), (JE.random(rng), JE.random(rng)))
    return iter_ell_candidates(J, E, eps, cap, seed)


STREAMS = {
    "search-rows-fxf": lambda: iter_search_rows(cns_preset("fxf"), 3, 0),
    "search-rows-etale-cubic": lambda: iter_search_rows(cns_preset("etale-cubic"), 4, 5),
    "elements-fxq": lambda: iter_elements(cns_preset("fxq"), 5, 0),
    "elements-h3-quaternion": lambda: iter_elements(cns_preset("h3-quaternion"), 3, 2),
    "comp-rows-1": lambda: iter_comp_rows(comp_preset("hamilton"), 1, 5, 0),
    "comp-rows-3": lambda: iter_comp_rows(comp_preset("gaussian"), 3, 4, 1),
    "comp-rows-6": lambda: iter_comp_rows(comp_preset("hamilton"), 6, 3, 0),
    "ell-candidates": lambda: ell_stream(40, 0),
}

PINNED = {
    "comp-rows-1": (9, "8373a89fe96fc96b"),
    "comp-rows-3": (22, "f4c8a513806c4b9e"),
    "comp-rows-6": (267, "1b409ca073a90ab5"),
    "elements-fxq": (41, "aad23733f6f5d881"),
    "elements-h3-quaternion": (259, "37f7317adefe4b4f"),
    "ell-candidates": (166, "91d88a57e7a69756"),
    "search-rows-etale-cubic": (27, "1d6ac0d659a71db0"),
    "search-rows-fxf": (17, "8743f24d016aabee"),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_output_is_pinned(name):
    assert stream_digest(STREAMS[name]()) == PINNED[name]


@pytest.mark.parametrize("fn", [iter_search_rows, iter_elements, iter_comp_rows,
                                iter_ell_candidates], ids=lambda fn: fn.__name__)
def test_streams_are_generator_functions(fn):
    """Tracing counts the draws of a search only through these generator
    functions, so each must stay one."""
    assert inspect.isgeneratorfunction(fn)
