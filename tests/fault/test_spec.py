"""Tests for the fault specification model and the seeded sampler."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault import (
    CPU_FLAGS,
    KINDS,
    OUTCOMES,
    FaultSpec,
    FaultSpecError,
    sample_faults,
)
from repro.fault.spec import MESSAGE_KINDS


TARGETS = {
    "signals": ["enable", "clk"],
    "devices": {"mac": 4, "rx": 3},
    "channels": {"out": 4},
    "cpu": {"regs": 16, "max_count": 200},
    "time": (0.0, 1000.0),
    "data_bits": 16,
}


class TestFaultSpec:
    def test_minimal_specs_for_every_kind(self):
        for kind in KINDS:
            extra = {}
            if kind == "msg_delay":
                extra["delay"] = 5.0
            if kind == "cpu_flag_flip":
                extra["flag"] = "halted"
            spec = FaultSpec(kind=kind, target="x", **extra)
            assert spec.kind == kind
            assert spec.describe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            FaultSpec(kind="gamma_ray", target="x")

    def test_empty_target_rejected(self):
        with pytest.raises(FaultSpecError, match="target"):
            FaultSpec(kind="signal_flip", target="")

    @pytest.mark.parametrize("field,value", [
        ("index", -1), ("bit", 32), ("bit", -1),
        ("time", -0.5), ("count", -2),
    ])
    def test_out_of_range_fields_rejected(self, field, value):
        with pytest.raises(FaultSpecError):
            FaultSpec(kind="reg_flip", target="mac", **{field: value})

    def test_delay_only_for_msg_delay(self):
        with pytest.raises(FaultSpecError, match="delay"):
            FaultSpec(kind="msg_drop", target="out", delay=3.0)
        with pytest.raises(FaultSpecError, match="delay"):
            FaultSpec(kind="msg_delay", target="out", delay=0.0)

    def test_flag_only_for_cpu_flag_flip(self):
        with pytest.raises(FaultSpecError, match="flag"):
            FaultSpec(kind="signal_flip", target="s", flag="halted")
        with pytest.raises(FaultSpecError, match="flag"):
            FaultSpec(kind="cpu_flag_flip", target="cpu", flag="parity")
        for flag in CPU_FLAGS:
            FaultSpec(kind="cpu_flag_flip", target="cpu", flag=flag)

    def test_dict_roundtrip(self):
        spec = FaultSpec(kind="msg_delay", target="out", index=2,
                         delay=25.0)
        clone = FaultSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint == spec.fingerprint

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultSpecError, match="unknown fault fields"):
            FaultSpec.from_dict({
                "kind": "signal_flip", "target": "s", "severity": 9,
            })

    def test_fingerprint_is_stable_and_discriminating(self):
        a = FaultSpec(kind="reg_flip", target="mac", index=2, bit=3,
                      time=100.0)
        b = FaultSpec(kind="reg_flip", target="mac", index=2, bit=3,
                      time=100.0)
        c = FaultSpec(kind="reg_flip", target="mac", index=2, bit=4,
                      time=100.0)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        assert len(a.fingerprint) == 64

    def test_canonical_json_carries_version(self):
        doc = json.loads(
            FaultSpec(kind="proc_spin", target="s").canonical_json()
        )
        assert doc["version"] >= 1

    def test_outcomes_are_the_five_classes(self):
        assert OUTCOMES == ("masked", "sdc", "detected", "hang", "crash")


class TestSampler:
    def test_same_seed_same_faults(self):
        assert sample_faults(TARGETS, 40, seed=3) == \
            sample_faults(TARGETS, 40, seed=3)

    def test_different_seed_different_faults(self):
        assert sample_faults(TARGETS, 40, seed=3) != \
            sample_faults(TARGETS, 40, seed=4)

    def test_stratified_over_every_kind(self):
        faults = sample_faults(TARGETS, len(KINDS) * 2, seed=0)
        assert {f.kind for f in faults} == set(KINDS)

    def test_kinds_without_a_surface_are_skipped(self):
        faults = sample_faults(
            {"channels": {"a": 5}, "time": (0.0, 10.0)}, 12, seed=1,
        )
        assert faults
        assert {f.kind for f in faults} <= \
            set(MESSAGE_KINDS) | {"proc_spin"}

    def test_explicit_kind_filter(self):
        faults = sample_faults(TARGETS, 6, seed=0, kinds=["msg_drop"])
        assert all(f.kind == "msg_drop" for f in faults)

    def test_no_applicable_kind_is_an_error(self):
        with pytest.raises(FaultSpecError, match="no applicable"):
            sample_faults({"signals": []}, 3, seed=0,
                          kinds=["signal_flip"])

    def test_samples_respect_spec_validation(self):
        # every sampled fault constructs, so it already passed
        # __post_init__; spot-check ranges anyway
        for fault in sample_faults(TARGETS, 60, seed=9):
            assert 0 <= fault.bit < 16
            assert fault.time >= 0.0
            if fault.kind == "cpu_reg_flip":
                assert 1 <= fault.index < 16


# ----------------------------------------------------------------------
# malformed values fail loudly, valid specs keep their identity
# ----------------------------------------------------------------------
#: the type each field takes: a float field also takes an int
FIELD_TYPES = {
    "kind": "str", "target": "str", "index": "int", "bit": "int",
    "time": "float", "count": "int", "delay": "float", "flag": "str",
}
#: values of the wrong type for each field type (bool is no number)
WRONG = {
    "str": st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(), st.lists(st.text(max_size=2),
                                           max_size=2)),
    "int": st.one_of(st.none(), st.booleans(), st.floats(),
                     st.integers().map(str), st.text(max_size=3)),
    "float": st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.sampled_from([float("nan"), float("inf"),
                                        float("-inf")])),
}
VALID = sample_faults(TARGETS, 2 * len(KINDS), seed=5)


@st.composite
def malformed(draw):
    """A valid spec's dict with one field of the wrong type, a required
    field dropped, or something that is not a mapping at all."""
    doc = draw(st.sampled_from(VALID)).to_dict()
    how = draw(st.sampled_from(("retype", "drop", "shape")))
    if how == "retype":
        name = draw(st.sampled_from(sorted(FIELD_TYPES)))
        doc[name] = draw(WRONG[FIELD_TYPES[name]])
    elif how == "drop":
        del doc[draw(st.sampled_from(("kind", "target")))]
    else:
        doc = draw(st.one_of(st.none(), st.integers(), st.text(),
                             st.just(list(doc.items())),
                             st.just(json.dumps(doc))))
    return doc


class TestMalformedValues:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=malformed())
    def test_malformed_dicts_raise_fault_spec_error(self, doc):
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"kind": "reg_flip", "target": "mac", "bit": 1.5},
        {"kind": "reg_flip", "target": "mac", "index": 3.0},
        {"kind": "reg_flip", "target": "mac", "index": "3"},
        {"kind": "reg_flip", "target": "mac", "index": True},
        {"kind": "cpu_reg_flip", "target": "cpu", "count": 5.5},
        {"kind": "signal_flip", "target": "s", "time": float("nan")},
        {"kind": "proc_spin", "target": "s", "time": float("inf")},
        {"kind": "msg_delay", "target": "out", "delay": float("nan")},
        {"kind": "cpu_flag_flip", "target": "cpu", "flag": 1},
        {"target": "mac"},
        {"kind": "reg_flip"},
        ["kind", "reg_flip"],
    ])
    def test_reported_cases_raise_fault_spec_error(self, doc):
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict(doc)

    def test_error_names_the_field(self):
        with pytest.raises(FaultSpecError, match="index must be an int"):
            FaultSpec(kind="reg_flip", target="mac", index=3.0)
        with pytest.raises(FaultSpecError,
                           match="time must be a finite number"):
            FaultSpec(kind="proc_spin", target="s", time=float("nan"))
        with pytest.raises(FaultSpecError, match=r"missing .*'kind'"):
            FaultSpec.from_dict({"target": "mac"})

    def test_valid_fingerprints_unchanged(self):
        # digests from before the type checks: no valid spec moves
        joined = "".join(f.fingerprint
                         for f in sample_faults(TARGETS, 60, seed=11))
        assert hashlib.sha256(joined.encode()).hexdigest() == \
            "a760636527b58231bb841cd021ada9a5aee4309f89dd64b795741e861abd56e5"
        # an int in a float field is kept as given, not normalized
        spec = FaultSpec(kind="signal_flip", target="enable", bit=3,
                         time=100)
        assert '"time":100,' in spec.canonical_json()
        assert spec.fingerprint == ("e30162898bc048188faab02f6104f10e"
                                    "30d355588aa9cdb2c481479a1dfc9323")
