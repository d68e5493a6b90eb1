"""The campaign identity matrix: one digest per scenario and seed.

A 200-fault campaign document must not depend on how its cells run.
For coproc, msgpipe and swmac at six sample seeds, both variants
(block translation on and off) must serialize to the one SHA-256
pinned here, computed at commit c74450d.  ``auto_translation(False)``
keeps every CPU that runs under it on the interpreted tiers (a swmac
golden run memoized earlier in the process is only forked, not run).
``tests/fault/test_pins.py`` pins the default variant at three of these
seeds; this matrix is its full form.
"""

import hashlib

import pytest

from repro.fault import SCENARIOS, run_campaign, sample_faults
from repro.isa.translate import auto_translation

pytestmark = pytest.mark.slow  # 36 campaigns: the smoke lane skips

MATRIX_SHA256 = {
    ("coproc", 7):
        "d93103de8b98816a71e352c0c23b07cdd9bf4070f6e2840b3b159ebce3e7a879",
    ("coproc", 1):
        "5340a6130e0d494d5bee6fbda0b3c5a4706826ccf77498107689606b96a7b50d",
    ("coproc", 2):
        "0de8dd17c638284d1c75332cacf7e4e3334fc68bf5c0720d219283f88de901b3",
    ("coproc", 3):
        "6c7028c47612b07bce07c1884cca476b7fec7af87ac641f399f32f89888370a7",
    ("coproc", 11):
        "a6e3fc127e04aae1dde5db5c5ca7490200b78221ba1b11241c9d65950f4542a3",
    ("coproc", 12345):
        "c4598ff886b324b8b2e05c2b0eaf27f01e47b00cad006e4275ef9cbacfa65efc",
    ("msgpipe", 7):
        "f1da8e4dbc82b79caa493786401bfd20643140867f9d3aec1af51e68772a6642",
    ("msgpipe", 1):
        "5e16ab82e26306ea04ef7574ff4d7ad43ea49bdc9dbefb80ff74d69769c28eac",
    ("msgpipe", 2):
        "4a2740a94cb58c182a2eef037584c7d601ea5f7501c6990e89ecfba9ccbbfc5a",
    ("msgpipe", 3):
        "ea7be60887754f2a3c9175efb4ab3d790587f19fe02c3e0c5874cb2b289aec78",
    ("msgpipe", 11):
        "111b1480f5b6aeb1c14cb67f24983627a421667fab3b25b2554afc35b9efef4c",
    ("msgpipe", 12345):
        "9939e39582b726bb3d35d793657a6664a058d3cb7cffb27d31b311b240ae896d",
    ("swmac", 7):
        "e2d1356f12d77a78853119808a070659b365562d89c91b18e957935d5e8f779c",
    ("swmac", 1):
        "43f3314670acb4114266b43ad710ac339fb93ce32edc2ab183fc8c862a10799d",
    ("swmac", 2):
        "199aa970f88024839f37bd99a8b3f640125eb96a8e94697a369ac7755778432a",
    ("swmac", 3):
        "5e1104c75d91a2a1dab89263675cf8d2d2baee9944c20985bd8bab5c7b513ac4",
    ("swmac", 11):
        "9cfef2b756ea716831e1941ebe0391b80bfde326e507668d917b1ceab7736edd",
    ("swmac", 12345):
        "14e67131ea5797caddd6734cc19bf082e66eaa4cef1e9d183005fff813725e57",
}


@pytest.mark.parametrize("name,seed", sorted(MATRIX_SHA256))
def test_every_variant_has_the_pinned_digest(name, seed):
    faults = sample_faults(SCENARIOS[name].targets, 200, seed=seed)
    for translated in (False, True):
        with auto_translation(translated):
            doc = run_campaign(name, faults, workers=1).to_json()
        digest = hashlib.sha256(doc.encode()).hexdigest()
        assert digest == MATRIX_SHA256[(name, seed)], translated
