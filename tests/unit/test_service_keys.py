"""Pinning tests for the canonical configuration identity.

The sweep, the artifact store and the job engine all derive "same
configuration" from :mod:`repro.service.keys`; these tests pin the
properties that make a content address trustworthy: stability across
dict ordering and default-valued fields, and sensitivity to everything
that changes compiled output.
"""

from dataclasses import fields

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
                              "check", "check_ir", "disable", "machine"}
        assert set(ident["machine"]) == {
            "issue_width", "branch_slots", "latencies", "slot_limits",
            "speculative_loads", "speculative_fp", "vector_lanes",
        }


class TestKeyAssembly:
    """``request_key`` assembles its canonical text from canonical
    pieces (the machine's from a memo); the definition it must keep
    meeting is the digest of the canonical JSON of the whole identity."""

    def test_assembled_key_is_the_digest_of_the_canonical_identity(self):
        import hashlib
        import random

        from repro.ir.instructions import Kind
        from repro.machine import PAPER_LATENCIES
        from repro.passes.registry import ablatable_passes
        from repro.pipeline import Level
        from repro.service.keys import KINDS, LEVELS
        from repro.workloads import all_workloads

        rng = random.Random(2026)
        names = [w.name for w in all_workloads()]
        passes = [p.name for p in ablatable_passes()]
        for n in range(300):
            width = rng.choice((1, 2, 4, 8, 3, 16))
            machine = None
            if n % 2:
                latencies = dict(PAPER_LATENCIES)
                for kind in rng.sample(list(latencies), 3):
                    latencies[kind] = rng.randrange(1, 20)
                machine = MachineConfig(
                    issue_width=width, latencies=latencies,
                    branch_slots=rng.choice((1, 2)),
                    slot_limits={k: rng.randrange(1, 4) for k in
                                 rng.sample(list(Kind), rng.randrange(3))},
                    speculative_loads=rng.random() < 0.5,
                    speculative_fp=rng.random() < 0.5,
                    vector_lanes=rng.choice((0, 2, 4, 8)))
            level = rng.choice(LEVELS)
            args = (rng.choice(KINDS), rng.choice(names),
                    rng.choice((level, Level(level))), width)
            options = dict(
                seed=rng.choice((0, 1, 2**63, rng.randrange(2**64))),
                check=rng.random() < 0.5, check_ir=rng.random() < 0.5,
                disable=tuple(rng.choices(passes, k=rng.randrange(4))),
                machine=machine)
            fingerprint = workload_fingerprint(args[1])
            if n % 7 == 0:  # strings that need escaping
                args = (args[0], 'we"ird\\n\u00e4me\n', *args[2:])
                options["disable"] += ('p"\u00df',)
            want = hashlib.sha256(canonical_json({
                "salt": CODE_VERSION, "kernel": fingerprint,
                "request": request_identity(*args, **options),
            }).encode()).hexdigest()
            assert request_key(*args, **options,
                               fingerprint=fingerprint) == want, (args, options)

    def test_machine_memo_is_bounded_and_keyed_by_value(self):
        from repro.service import keys

        for lanes in range(100):
            request_key("run", "add", 4, 8,
                        machine=MachineConfig(8, vector_lanes=lanes))
        assert len(keys._MACHINE_JSON) == keys._MACHINE_JSON_LIMIT
        before = dict(keys._MACHINE_JSON)
        # an equal configuration is the same entry, whichever object
        request_key("run", "add", 4, 8,
                    machine=MachineConfig(8, vector_lanes=99))
        assert keys._MACHINE_JSON == before


class TestWorkloadFingerprint:
    def test_stable_and_distinct(self):
        assert workload_fingerprint("add") == workload_fingerprint("add")
        assert workload_fingerprint("add") != workload_fingerprint("sum")
        assert len(workload_fingerprint("add")) == 64

    def test_branch_probability_is_part_of_the_identity(self, monkeypatch):
        """``p_then`` steers superblock formation, so editing it must
        change the kernel source a store key is made from."""
        import dataclasses

        from repro.frontend.ast import Do, If
        from repro.frontend.pretty import kernel_str
        from repro.service import keys
        from repro.workloads import get_workload

        def ifs(stmts):
            for st in stmts:
                if isinstance(st, If):
                    yield st
                    yield from ifs(st.then + st.els)
                elif isinstance(st, Do):
                    yield from ifs(st.body)

        w = get_workload("merge")

        def edited():
            kernel = w.build()
            (branch,) = ifs(kernel.body)
            assert branch.p_then != 0.2
            branch.p_then = 0.2
            return kernel

        assert kernel_str(edited()) != kernel_str(w.build())
        before = request_key("run", "merge", 4, 8)
        monkeypatch.setattr(keys, "get_workload", lambda name: (
            dataclasses.replace(w, build=edited) if name == "merge"
            else get_workload(name)))
        workload_fingerprint.cache_clear()
        try:
            assert request_key("run", "merge", 4, 8) != before
        finally:
            monkeypatch.undo()
            workload_fingerprint.cache_clear()
        assert request_key("run", "merge", 4, 8) == before


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


# ---------------------------------------------------------------------------
# requests as values: CellRequest / SweepRequest
# ---------------------------------------------------------------------------

from repro.service.keys import CellRequest, SweepRequest  # noqa: E402

#: digests first pinned from commit 2180118 (before identity became a
#: type), re-recorded on purpose for the repro-2026.10-pm6 salt (global
#: copy propagation was deleted, which changes the compiled code of some
#: ``disable`` sets) and once more when the always-``"list"``
#: ``schedule_backend`` field left the identity and the kernel source
#: began to print branch probabilities: a store written under these
#: keys must be served as hits
GOLDEN = [
    (("run", "add", 4, 8), {},
     "455a08b3ed6fc2f346f059d5d2a3a74c11dfa0c9b4f5613e5b86fca8208b64a0"),
    (("result", "dotprod", 5, 1), {"seed": 3, "disable": ("cse", "dce")},
     "017a06af872802086d1d376d9bcaf99b45d674530845fc6f4178e530bd97b80a"),
    (("compile", "sum", 0, 2), {"check_ir": True},
     "60c314fb16e9d1e28e7674a37af2a14af847324f0d92b049d4f0f1562227dfa5"),
]


class TestGoldenDigests:
    @pytest.mark.parametrize("args,options,digest", GOLDEN)
    def test_request_key_and_the_type_agree_with_the_parent(
            self, args, options, digest):
        assert request_key(*args, **options) == digest
        assert CellRequest(*args, **options).key == digest

    @pytest.mark.parametrize("body,kind,digest", [
        # defaults omitted (level 4, width 8 are the HTTP defaults) ...
        ({"workload": "add"}, "run", GOLDEN[0][2]),
        # ... and spelled out
        ({"workload": "add", "level": 4, "width": 8, "seed": 0,
          "check": True, "check_ir": False, "disable": []}, "run",
         GOLDEN[0][2]),
        # disable permuted and duplicated; kind carried in the body
        ({"kind": "result", "workload": "dotprod", "level": 5, "width": 1,
          "seed": 3, "disable": ["dce", "cse", "dce"]}, None, GOLDEN[1][2]),
        ({"workload": "sum", "level": 0, "width": 2, "check_ir": True,
          "timeout": 30}, "compile", GOLDEN[2][2]),
    ])
    def test_from_body_yields_the_same_keys(self, body, kind, digest):
        req = CellRequest.from_body(body, kind)
        assert req.key == digest
        # and the body it re-emits parses back to an equal request
        assert CellRequest.from_body(req.to_body(), kind) == req


class TestRequestValidation:
    """The one constructor rejects what no worker could compute."""

    @pytest.mark.parametrize("body", [
        {},                                             # no workload
        {"workload": "no-such-kernel"},
        {"workload": "add", "disable": "dce"},          # would be d, c, e
        {"workload": "add", "disable": ["nope"]},       # unknown pass
        {"workload": "add", "disable": ["copyprop-global"]},  # deleted pass
        {"workload": "add", "disable": ["superblock"]},  # structural pass
        {"workload": "add", "disable": [1]},
        {"workload": "add", "check": "false"},          # would be True
        {"workload": "add", "check_ir": 1},
        {"workload": "add", "level": "4"},
        {"workload": "add", "level": True},
        {"workload": "add", "level": len(SweepRequest(("add",)).levels)},
        {"workload": "add", "width": 3},
        {"workload": "add", "width": 8.0},
        {"workload": "add", "seed": None},
        {"workload": "add", "seed": -1},                # default_rng raises
        {"workload": "add", "seed": 1 << 64},
        {"workload": "add", "seed": 1.0},
        {"workload": "add", "timeout": "soon"},
        {"workload": ["add"]},
        {"workload": "add", "kind": "frobnicate"},
    ])
    def test_malformed_cell_bodies_raise_value_error(self, body):
        with pytest.raises(ValueError):
            CellRequest.from_body(body)

    @pytest.mark.parametrize("body", [
        {},
        {"workloads": "add"},
        {"workloads": []},                              # empty sweep
        {"workloads": ["add"], "levels": []},
        {"workloads": ["add", "no-such-kernel"]},
        {"workloads": ["add"], "levels": [0, 6]},
        {"workloads": ["add"], "widths": [3]},
        {"workloads": ["add"], "check_ir": "yes"},
        {"workloads": ["add"], "disable": ["nope"]},
        {"workloads": ["add"], "seed": -1},
    ])
    def test_malformed_sweep_bodies_raise_value_error(self, body):
        with pytest.raises(ValueError):
            SweepRequest.from_body(body)

    def test_python_callers_get_the_same_checks(self):
        with pytest.raises(ValueError, match="unknown workload"):
            CellRequest("run", "no-such-kernel", 4, 8)
        with pytest.raises(ValueError, match="disable"):
            CellRequest("run", "add", 4, 8, disable=("nope",))
        with pytest.raises(ValueError, match="level"):
            SweepRequest(("add",), levels=(9,))
        with pytest.raises(ValueError, match="seed"):
            CellRequest("run", "add", 4, 8, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            SweepRequest(("add",), seed=-1)
        assert CellRequest("run", "add", 4, 8, seed=(1 << 64) - 1).key
        # ... but may name an off-grid width (custom machines)
        assert CellRequest("run", "add", 4, 3).width == 3

    def test_identity_ignores_the_timeout(self):
        a = CellRequest("run", "add", 4, 8, timeout=1.0)
        b = CellRequest("run", "add", 4, 8, disable=())
        assert a == b and hash(a) == hash(b) and a.key == b.key
        assert a.to_body()["timeout"] == 1.0 and "timeout" not in b.to_body()


class TestSweepRequest:
    def test_cells_are_the_grid_in_order_and_carry_every_option(self):
        sweep = SweepRequest.from_body({
            "workloads": ["sum", "add"], "levels": [4, 0], "widths": [8, 1],
            "seed": 2, "check": False, "check_ir": True,
            "disable": ["dce", "cse"], "timeout": 9})
        cells = sweep.cells()
        assert sweep.configs == len(cells) == 8
        assert [(c.workload, c.level, c.width) for c in cells[:3]] == [
            ("sum", 4, 8), ("sum", 4, 1), ("sum", 0, 8)]
        assert {(c.kind, c.seed, c.check, c.check_ir, c.disable, c.timeout)
                for c in cells} == {
                    ("run", 2, False, True, ("cse", "dce"), 9.0)}
        assert SweepRequest.from_body(sweep.to_body()) == sweep

    def test_defaults_are_the_full_grid(self):
        from repro.pipeline import Level

        sweep = SweepRequest.from_body({"workloads": ["add"]})
        assert sweep.levels == tuple(int(lv) for lv in Level)
        assert sweep.widths == (1, 2, 4, 8)

    def test_kinds_differ_only_in_kind(self):
        """A sweep cell's ``result`` blob and the service's ``run``
        payload for the same configuration never share a key."""
        sweep = SweepRequest(("add",), (4,), (8,))
        (run,), (result,) = sweep.cells("run"), sweep.cells("result")
        assert run.key == GOLDEN[0][2] != result.key
        assert run.cell[1:] == result.cell[1:]


def _canonical_key(kind, workload, level, width, machine=None, **options):
    """The definition every key meets: the digest of the canonical JSON
    of the whole identity."""
    import hashlib

    return hashlib.sha256(canonical_json({
        "salt": CODE_VERSION, "kernel": workload_fingerprint(workload),
        "request": request_identity(kind, workload, level, width,
                                    machine=machine, **options),
    }).encode()).hexdigest()


class TestKeyTemplates:
    """A grid's cells and single requests fill their keys into one
    memoized template per set of options; every key they make must be
    the canonical digest."""

    OPTIONS = [
        {},
        {"seed": 0, "check": False},
        {"seed": (1 << 64) - 1, "check_ir": True},
        {"seed": 5, "check": False, "disable": ("licm", "cse")},
        {"seed": 2, "check": False, "check_ir": True,
         "disable": ("dce", "combine", "dce")},
    ]

    @pytest.mark.parametrize("options", OPTIONS)
    @pytest.mark.parametrize("kind", ["compile", "run", "result"])
    def test_grid_cells_and_single_requests_are_canonical(self, kind,
                                                          options):
        grid = SweepRequest(("add", "dotprod", "NAS-5"), **options)
        cells = grid.cells(kind)
        assert len(cells) == grid.configs
        for cell in cells:
            args = (kind, cell.workload, cell.level, cell.width)
            want = _canonical_key(*args, **options)
            assert cell.key == want, args
            assert CellRequest(*args, **options).key == want
            assert request_key(*args, **options) == want

    def test_grid_cells_have_every_field_of_a_request(self):
        grid = SweepRequest(("sum", "merge"), seed=3, disable=("cse",),
                            timeout=2.5)
        names = {f.name for f in fields(CellRequest)}
        for cell in grid.cells("result"):
            assert set(vars(cell)) == names
            assert cell == CellRequest(
                "result", cell.workload, cell.level, cell.width, seed=3,
                disable=("cse",), timeout=2.5)
            assert cell.timeout == 2.5

    def test_a_grid_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            SweepRequest(("add",)).cells("bogus")

    def test_explicit_slot_limited_machines_are_canonical(self):
        from repro.ir.instructions import Kind

        for width in (1, 2, 4, 8, 3):
            args = ("run", "dotprod", 4, width)
            for limits in ({Kind.LOAD: 1}, {Kind.FP_ALU: 1, Kind.STORE: 2}):
                machine = MachineConfig(issue_width=width, slot_limits=limits)
                for options in self.OPTIONS:
                    assert request_key(*args, machine=machine, **options) \
                        == _canonical_key(*args, machine=machine, **options)
                # ... and not the paper machine's key at that width
                assert request_key(*args, machine=machine) \
                    != request_key(*args)

    def test_a_marker_in_an_option_is_refused(self):
        # only a disable entry that names no pass could contain one, and
        # a request refuses those before it derives a key
        disable = ("\0level",)
        with pytest.raises(ValueError, match="contain"):
            request_key("run", "add", 3, 4, disable=disable)
        with pytest.raises(ValueError, match="cannot disable"):
            CellRequest("run", "add", 3, 4, disable=disable)

    def test_grid_cells_are_not_validated_one_by_one(self, monkeypatch):
        from repro.service import keys

        calls = []
        real = keys._validated
        monkeypatch.setattr(keys, "_validated",
                            lambda *a: calls.append(a) or real(*a))
        grid = SweepRequest(("add", "sum"))
        grid.cells("result")
        assert len(calls) == 1  # the grid's own, at construction

    def test_templates_are_memoized_per_options_and_salt(self, monkeypatch):
        from repro.service import keys

        keys._template.cache_clear()
        SweepRequest(("add",)).cells("run")
        request_key("run", "add", 4, 8)
        CellRequest("run", "sum", 2, 1).key
        assert keys._template.cache_info().currsize == 1
        monkeypatch.setattr(keys, "CODE_VERSION", "another-salt")
        assert request_key("run", "add", 4, 8) != GOLDEN[0][2]
        assert keys._template.cache_info().currsize == 2

    def test_default_machines_are_not_built_per_key(self, monkeypatch):
        from repro.service import keys

        def keys_of_a_grid():
            for cell in SweepRequest(("add", "sum", "dotprod")).cells("result"):
                cell.key
            for width in (1, 2, 4, 8):
                request_key("run", "add", 4, width)
                CellRequest("run", "add", 4, width).key

        keys_of_a_grid()
        built = []
        real = keys.MachineConfig
        monkeypatch.setattr(
            keys, "MachineConfig",
            lambda *a, **kw: built.append(kw) or real(*a, **kw))
        for _ in range(3):
            keys_of_a_grid()
        assert built == []


class TestOneKeyBuilder:
    def test_nothing_outside_keys_assembles_key_fields(self):
        """Outside ``service/keys.py`` nothing under ``src/`` calls
        ``request_key(`` / ``workload_fingerprint(``: every hop gets its
        key from the request value."""
        import re
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        call = re.compile(r"\b(request_key|workload_fingerprint)\s*\(")
        offenders = [
            f"{path.relative_to(root)}:{n}"
            for path in sorted(root.rglob("*.py"))
            if path != root / "service" / "keys.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if call.search(line)
        ]
        assert offenders == []
