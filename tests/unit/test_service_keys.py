"""Pinning tests for the canonical configuration identity.

The sweep, the artifact store and the job engine all derive "same
configuration" from :mod:`repro.service.keys`; these tests pin the
properties that make a content address trustworthy: stability across
dict ordering and default-valued fields, and sensitivity to everything
that changes compiled output.
"""

import pytest

from repro.machine import MachineConfig
from repro.service.keys import (
    CODE_VERSION,
    canonical_json,
    request_identity,
    request_key,
    workload_fingerprint,
)


class TestCanonicalJson:
    def test_dict_ordering_is_canonicalized(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_nested_ordering(self):
        x = {"m": {"z": 1, "y": {"q": 3, "p": 4}}}
        y = {"m": {"y": {"p": 4, "q": 3}, "z": 1}}
        assert canonical_json(x) == canonical_json(y)

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})


class TestRequestKeyStability:
    def test_defaults_explicit_or_omitted_same_key(self):
        """Passing every default explicitly must not change the key."""
        implicit = request_key("run", "dotprod", 4, 8)
        explicit = request_key(
            "run", "dotprod", 4, 8, seed=0, check=True, check_ir=False,
            disable=(), machine=MachineConfig(issue_width=8),
        )
        assert implicit == explicit

    def test_disable_order_and_duplicates_normalized(self):
        a = request_key("run", "add", 3, 4, disable=("combine", "strength"))
        b = request_key("run", "add", 3, 4, disable=("strength", "combine"))
        c = request_key("run", "add", 3, 4,
                        disable=("combine", "strength", "combine"))
        assert a == b == c

    def test_key_is_deterministic_across_calls(self):
        assert request_key("run", "sum", 2, 1) == request_key("run", "sum", 2, 1)

    def test_fingerprint_shortcut_matches(self):
        fp = workload_fingerprint("dotprod")
        assert (request_key("run", "dotprod", 4, 8, fingerprint=fp)
                == request_key("run", "dotprod", 4, 8))

    def test_every_field_is_load_bearing(self):
        base = request_key("run", "dotprod", 4, 8)
        assert request_key("compile", "dotprod", 4, 8) != base
        assert request_key("run", "add", 4, 8) != base
        assert request_key("run", "dotprod", 3, 8) != base
        assert request_key("run", "dotprod", 4, 4) != base
        assert request_key("run", "dotprod", 4, 8, seed=1) != base
        assert request_key("run", "dotprod", 4, 8, check=False) != base
        assert request_key("run", "dotprod", 4, 8, check_ir=True) != base
        assert request_key("run", "dotprod", 4, 8, disable=("combine",)) != base

    def test_machine_latencies_are_load_bearing(self):
        from repro.ir.instructions import Kind

        m = MachineConfig(issue_width=8)
        slow = MachineConfig(issue_width=8,
                             latencies={**m.latencies, Kind.FP_MUL: 5})
        assert (request_key("run", "dotprod", 4, 8, machine=slow)
                != request_key("run", "dotprod", 4, 8, machine=m))

    def test_machine_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="issue_width"):
            request_key("run", "dotprod", 4, 8,
                        machine=MachineConfig(issue_width=4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            request_key("frobnicate", "dotprod", 4, 8)

    def test_identity_has_every_field_present(self):
        """Defaults are filled in, never omitted — adding a new field
        with a default later cannot silently alias old and new keys."""
        ident = request_identity("run", "dotprod", 4, 8)
        assert set(ident) == {"kind", "workload", "level", "width", "seed",
                              "check", "check_ir", "disable", "machine",
                              "schedule_backend"}
        assert set(ident["machine"]) == {
            "issue_width", "branch_slots", "latencies", "slot_limits",
            "speculative_loads", "speculative_fp", "vector_lanes",
        }


class TestWorkloadFingerprint:
    def test_stable_and_distinct(self):
        assert workload_fingerprint("add") == workload_fingerprint("add")
        assert workload_fingerprint("add") != workload_fingerprint("sum")
        assert len(workload_fingerprint("add")) == 64


class TestEngineDerivedSalt:
    """The store salt is derived from the simulator engine version: an
    engine rewrite cannot forget to invalidate cached run artifacts."""

    def test_salt_embeds_engine_version(self):
        from repro.sim import ENGINE_VERSION

        assert ENGINE_VERSION in CODE_VERSION
        from repro.service.keys import COMPILER_VERSION

        assert CODE_VERSION == f"{COMPILER_VERSION}+{ENGINE_VERSION}"

    def test_old_engine_salt_changes_every_key(self, monkeypatch):
        import repro.service.keys as keys

        new = request_key("run", "add", 3, 4)
        monkeypatch.setattr(keys, "CODE_VERSION", "repro-2026.08-pm3")
        old = request_key("run", "add", 3, 4)
        assert new != old

    def test_artifact_written_under_old_salt_is_a_miss(self, tmp_path):
        from repro.service.store import ArtifactStore

        key = request_key("run", "add", 3, 4)
        writer = ArtifactStore(tmp_path, salt="repro-2026.08-pm3+sim-1-interp")
        assert writer.put(key, {"cycles": 123}) is not None
        assert writer.get(key) == {"cycles": 123}

        reader = ArtifactStore(tmp_path)  # current engine-derived salt
        assert reader.get(key) is None
        assert reader.stats.misses >= 1 or reader.stats.invalidated >= 1
