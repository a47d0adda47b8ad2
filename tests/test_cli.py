import argparse
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import (
    ERROR_SCHEMA,
    REPORT_SCHEMAS,
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    LevelInput,
    block_report,
    cohomology_presentations,
)
from qtorus import cli, selfcheck
from qtorus.schemas import SELFCHECK_MISMATCH

from helpers import (
    COMMUTING_BAD_HANDLES,
    blocks_v1,
    h1_vectors,
    plain_report,
    random_invariant_level,
    random_local_system,
)

GOLDEN = Path(__file__).parent / "golden"
INPUTS = Path(__file__).parent / "inputs"
# pinned by TestGolden::test_seeded_local_and_trivial_global_deck_bytes
DECK_SHA256 = "6e434e959be9faa1a1fd632d29615e9850b7791287bacbab69d615351fba1e9c"
# one (name, format, sha256) per stdout pin; CI's installed console script
# step reads the same table
PINS = [
    line.split()
    for line in (INPUTS / "pins.txt").read_text().splitlines()
    if not line.startswith("#")
]
GOLDEN_SPECS = sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.endswith(".out.json"))


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    return capsys.readouterr().out, code


def run_spec(capsys, spec, *argv):
    """``qtorus <task> --input spec *argv``, with the task the spec names."""
    task = json.loads(spec.read_text())["task"]
    return run_main(capsys, task, "--input", str(spec), *argv)


def pin_spec(name):
    """tests/inputs/<name>.json, or the golden spec if there is none, as CI looks it up."""
    spec = INPUTS / f"{name}.json"
    return spec if spec.exists() else GOLDEN / f"{name}.json"


def write_spec(tmp_path, payload, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def base_global_spec(**overrides):
    spec = {
        "task": "global",
        "surface": {"genus": 1, "rank": 1},
        "level": {"c_matrix": [[1]], "zeta": "1/4"},
        "output_format": "json",
    }
    spec.update(overrides)
    return spec


class TestGolden:
    @pytest.mark.parametrize("spec", GOLDEN_SPECS)
    def test_golden_bytes(self, capsys, spec):
        # the same lookup as CI's installed console script step
        spec = GOLDEN / spec
        want = spec.with_suffix(".out.json")
        if not want.exists():
            want = spec.with_suffix(".txt")
        out, code = run_spec(capsys, spec)
        assert code == 0
        assert out == want.read_text()

    def test_seeded_local_and_trivial_global_deck_bytes(self, capsys, tmp_path):
        # one sha256 over stdout and exit code of 48 local jobs (rank 1-4,
        # zeta denominators 1-12, c entries in [-5, 5]) and 24 trivial global
        # jobs at genus 1-2 on the same levels, in json and text
        rng = random.Random(43)
        levels = []
        for k in range(48):
            rank = 1 + k % 4
            den = rng.randint(1, 12)
            num = rng.choice([a for a in range(den) if math.gcd(a, den) == 1])
            c = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(rank)]
            levels.append((rank, {"c_matrix": c, "zeta": f"{num}/{den}"}))
        jobs = [
            {"task": "local", "level": level, "output_format": ("json", "text")[k % 2]}
            for k, (_, level) in enumerate(levels)
        ]
        jobs += [
            {
                "task": "global",
                "surface": {"genus": 1 + k % 2, "rank": rank},
                "level": level,
                "output_format": ("json", "text")[k // 2 % 2],
            }
            for k, (rank, level) in enumerate(levels[::2])
        ]
        digest = hashlib.sha256()
        for job in jobs:
            out, code = run_main(capsys, job["task"], "--input", write_spec(tmp_path, job))
            digest.update(f"{code}\n".encode() + out.encode())
        assert digest.hexdigest() == DECK_SHA256

    def test_repeat_runs_identical(self, capsys):
        first, _ = run_main(capsys, "global", "--input", str(GOLDEN / "global_unit_quarter.json"))
        second, _ = run_main(capsys, "global", "--input", str(GOLDEN / "global_unit_quarter.json"))
        assert first == second


GLOBAL_SPECS = [name for name in GOLDEN_SPECS if name.startswith(("global_", "bunt_"))]


class TestBuntLabel:
    """``bunt`` is the ``global`` report plus a ``bun_t`` block, nothing else."""

    @pytest.mark.parametrize("name", GLOBAL_SPECS)
    def test_outputs_differ_in_task_and_bun_t_only(self, capsys, tmp_path, name):
        raw = json.loads((GOLDEN / name).read_text())
        out = {}
        for task in ("global", "bunt"):
            path = write_spec(tmp_path, {**raw, "task": task}, f"{task}.json")
            for fmt in ("json", "text"):
                out[task, fmt], code = run_main(capsys, task, "--input", path, "--format", fmt)
                assert code == 0
        bunt = json.loads(out["bunt", "json"])
        bun_t = bunt.pop("bun_t")
        assert cli._dumps({**bunt, "task": "global"}) == out["global", "json"]
        assert bun_t.pop("component_label") == "first_chern_class"
        assert bun_t == bunt["section_space"]

        bunt_lines = out["bunt", "text"].splitlines()
        global_lines = out["global", "text"].splitlines()
        assert bunt_lines[0] == "task: bunt" and global_lines[0] == "task: global"
        assert [line for line in bunt_lines if line.startswith("bun_t:")] == [
            "bun_t: pi0 = {} (labels: first_chern_class), pi1 = {}, pi2 = {}".format(
                *(cli._render_group(bun_t[k]) for k in ("pi0", "pi1", "pi2"))
            )
        ]
        rest = [line for line in bunt_lines[1:] if not line.startswith("bun_t:")]
        assert rest == global_lines[1:]

    def test_genus_zero_text_prints_trivial_omega(self, capsys, tmp_path):
        # H^1 vanishes at genus 0, so omega is the empty matrix
        spec = base_global_spec(surface={"genus": 0, "rank": 1}, output_format="text")
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 0
        lines = out.splitlines()
        assert lines[-2:] == ["omega (shared by all components):", "  (trivial)"]
        assert "blocks: 3" in lines


class TestSchemas:
    def test_every_task_validates(self, capsys, tmp_path):
        specs = {
            "local": {
                "task": "local",
                "level": {"c_matrix": [[1, 1], [0, 2]], "zeta": "1/6"},
                "output_format": "json",
            },
            "surface": {
                "task": "surface",
                "surface": {"genus": 1, "rank": 1, "monodromy": [[[1]], [[-1]]]},
                "output_format": "json",
            },
            "global": base_global_spec(),
            "bunt": {
                "task": "bunt",
                "surface": {"genus": 1, "rank": 1},
                "level": {"c_matrix": [[1]], "zeta": "1/6"},
                "components": [[0], [1]],
                "output_format": "json",
            },
            "selfcheck": {"task": "selfcheck", "output_format": "json"},
        }
        for task, payload in specs.items():
            out, code = run_main(capsys, task, "--input", write_spec(tmp_path, payload, f"{task}.json"))
            assert code == 0, out
            jsonschema.validate(json.loads(out), REPORT_SCHEMAS[task])

    def test_goldens_validate_and_rank_zero_does_not(self, capsys):
        # every task refuses a rank below 1, so no report may carry one
        zeroed = []
        for name in GOLDEN_SPECS:
            task = json.loads((GOLDEN / name).read_text())["task"]
            out, code = run_main(capsys, task, "--input", str(GOLDEN / name), "--format", "json")
            assert code == 0, name
            report = json.loads(out)
            jsonschema.validate(report, REPORT_SCHEMAS[task])
            if task == "local":
                holders = [report, report["pi2_layer"]]
            else:
                holders = [report["surface"]] if "surface" in report else []
            for holder in holders:
                rank = holder["rank"]
                holder["rank"] = 0
                with pytest.raises(jsonschema.ValidationError, match="minimum of 1"):
                    jsonschema.validate(report, REPORT_SCHEMAS[task])
                holder["rank"] = rank
                zeroed.append((name, task))
        assert {task for _, task in zeroed} == {"local", "surface", "global", "bunt"}
        assert len(zeroed) == 9

    def test_published_schemas_are_pinned_and_closed(self):
        # the file is the published contract; every object in it is closed
        # and requires each of its properties, in order
        published = (Path(__file__).parent / "published_schemas.json").read_text()
        current = {"error": ERROR_SCHEMA, "reports": REPORT_SCHEMAS}
        assert published == json.dumps(current, indent=2) + "\n"
        objects, stack = set(), [json.loads(published)]
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                if node.get("type") == "object":
                    assert node["additionalProperties"] is False
                    assert node["required"] == list(node["properties"])
                    objects.add(json.dumps(node))
                stack.extend(node.values())
            elif isinstance(node, list):
                stack.extend(node)
        assert len(objects) == 21
        assert set(REPORT_SCHEMAS) == set(cli.TASKS)
        family = SELFCHECK_MISMATCH["properties"]["family"]
        assert family["enum"] == list(selfcheck._FAMILIES)

    def test_bunt_schema_is_global_plus_bun_t(self):
        glob, bunt = REPORT_SCHEMAS["global"], REPORT_SCHEMAS["bunt"]
        assert set(bunt["required"]) == set(glob["required"]) | {"bun_t"}
        assert set(bunt["properties"]) == set(glob["properties"]) | {"bun_t"}
        assert bunt["properties"]["task"] == {"const": "bunt"}
        for key, value in glob["properties"].items():
            if key != "task":
                assert bunt["properties"][key] == value
        shared = {"type", "additionalProperties"}
        assert set(bunt) == set(glob) == shared | {"required", "properties"}
        assert all(bunt[key] == glob[key] for key in shared)

    @pytest.mark.parametrize(("name", "fmt", "digest"), PINS, ids=[f"{n}-{f}" for n, f, _ in PINS])
    def test_pinned_bytes(self, capsys, name, fmt, digest):
        # tests/inputs/pins.txt gives each pin's reason
        out, code = run_spec(capsys, pin_spec(name), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pins_are_one_table(self):
        # pins.txt is the one place a digest is stated: every tests/inputs
        # spec has a well-formed line there, and the workflow holds none
        hex64 = re.compile(r"[0-9a-f]{64}")
        assert {p.stem for p in INPUTS.glob("*.json")} <= {name for name, _, _ in PINS}
        for name, fmt, digest in PINS:
            assert pin_spec(name).exists(), name
            assert fmt in ("json", "text") and hex64.fullmatch(digest), (name, fmt)
        assert len({(name, fmt) for name, fmt, _ in PINS}) == len(PINS)
        workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
        assert not hex64.search(workflow.read_text())

    def test_surface_dual_system_swaps_h0_h2_and_torsions(self, capsys):
        # rho^v = (rho^-1)^T: H^0's and H^2's ranks swap, H^1's rank holds,
        # and the torsions of H^1 and H^2 swap (universal coefficients and
        # Poincare duality); here H^2(rho) = Z/2 becomes H^1(rho^v)'s torsion
        reports = []
        for name in ("surface_torsion_g2r2", "surface_torsion_g2r2_dual"):
            out, code = run_spec(capsys, INPUTS / f"{name}.json", "--format", "json")
            assert code == 0
            reports.append(json.loads(out)["cohomology"])
        h, d = reports
        ranks = [d[k]["free_rank"] for k in ("h0", "h1", "h2")]
        assert ranks == [h[k]["free_rank"] for k in ("h2", "h1", "h0")]
        assert (d["h1"]["torsion"], d["h2"]["torsion"]) == (h["h2"]["torsion"], h["h1"]["torsion"])

    def test_error_object_validates(self, capsys, tmp_path):
        spec = base_global_spec(level={"c_matrix": [[1]], "zeta": "3/6"})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "bad_fraction"
        assert payload["path"] == "level.zeta"


class TestValidation:
    def test_missing_file(self, capsys):
        out, code = run_main(capsys, "local", "--input", "/no/such/file.json")
        assert code == 2
        assert json.loads(out)["code"] == "bad_job_spec"

    def test_bad_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        out, code = run_main(capsys, "local", "--input", str(p))
        assert code == 2
        assert "not valid JSON" in json.loads(out)["message"]

    def test_non_object_spec(self, capsys, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        out, code = run_main(capsys, "local", "--input", str(p))
        assert code == 2

    def test_unknown_field(self, capsys, tmp_path):
        out, code = run_main(
            capsys, "global", "--input", write_spec(tmp_path, base_global_spec(extra=1))
        )
        assert code == 2
        assert "extra" in json.loads(out)["message"]

    def test_unknown_task(self, capsys, tmp_path):
        out, code = run_main(
            capsys, "global", "--input", write_spec(tmp_path, base_global_spec(task="explode"))
        )
        assert code == 2

    def test_task_command_mismatch(self, capsys, tmp_path):
        out, code = run_main(
            capsys, "local", "--input", write_spec(tmp_path, base_global_spec())
        )
        assert code == 2
        assert json.loads(out)["path"] == "task"

    def test_missing_level(self, capsys, tmp_path):
        spec = base_global_spec()
        del spec["level"]
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2

    def test_missing_input_flag(self, capsys):
        out, code = run_main(capsys, "local")
        assert code == 2
        assert json.loads(out)["code"] == "bad_job_spec"

    def test_negative_genus(self, capsys, tmp_path):
        spec = base_global_spec(surface={"genus": -1, "rank": 1})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        assert "surface" in json.loads(out)["path"]

    @pytest.mark.parametrize("genus", [10**30, sys.maxsize // 2 + 1], ids=["1e30", "index_limit"])
    def test_genus_past_list_index_limit(self, capsys, tmp_path, genus):
        # 2g monodromy matrices must fit a list; past that the spec is refused
        spec = {"task": "surface", "surface": {"genus": genus, "rank": 1}}
        out, code = run_main(capsys, "surface", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert (payload["code"], payload["path"]) == ("bad_job_spec", "surface.genus")

    def test_genus_past_memory_exits_2(self, capsys, tmp_path):
        # within the list index limit, the 2g identity matrices of the trivial
        # system still ask for more memory than there is: the list's size
        # check raises MemoryError before anything is allocated
        spec = base_global_spec(surface={"genus": sys.maxsize // 2, "rank": 1})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert (payload["code"], payload["path"]) == ("resource_limit", "")

    @staticmethod
    def shear_torsion_spec(x, **overrides):
        # genus 1, monodromy [[1, x], [0, 1]] and I: H^2 = Z + Z/x
        surface = {"genus": 1, "rank": 2, "monodromy": [[[1, x], [0, 1]], [[1, 0], [0, 1]]]}
        level = {"c_matrix": [[0, 0], [0, 1]], "zeta": "1/4"}
        return base_global_spec(surface=surface, level=level, **overrides)

    def test_huge_h2_torsion_exits_2_before_listing_components(self, capsys, tmp_path):
        # the default list would hold 3 (10^4200 + 7) components; its length is
        # checked before any of it is built, where walking it used to fill memory
        spec = self.shear_torsion_spec(10**4200 + 7)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {
            "code": "resource_limit",
            "message": "more than 1048576 default components; list the components to report",
            "path": "components",
        }

    @pytest.mark.parametrize(("order", "want"), [(8, 0), (9, 2)])
    def test_component_cap_boundary(self, capsys, tmp_path, monkeypatch, order, want):
        # component_bound 0 lists exactly the H^2 torsion order's components
        from qtorus import gerbe

        monkeypatch.setattr(gerbe, "MAX_COMPONENTS", 8)
        spec = self.shear_torsion_spec(order, component_bound=0)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == want
        payload = json.loads(out)
        if want:
            assert (payload["code"], payload["path"]) == ("resource_limit", "components")
        else:
            assert len(payload["blocks"]) == 8

    @pytest.mark.parametrize("rank", [13, 30])
    def test_twist_table_past_the_cap_exits_2(self, capsys, tmp_path, monkeypatch, rank):
        # 3^rank rows is past 2^20 from rank 13 on; the table is refused
        # before its first row, so an evaluation fails the test fast
        def evaluate(quad, vec):
            raise AssertionError("a twist table row was built")

        monkeypatch.setattr(cli, "evaluate", evaluate)
        identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = {"task": "local", "level": {"c_matrix": identity, "zeta": "1/4"}}
        out, code = run_main(capsys, "local", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {
            "code": "resource_limit",
            "message": f"more than 1048576 twist table rows at rank {rank}",
            "path": "level.c_matrix",
        }

    def test_twist_table_under_the_cap_is_built(self, tmp_path, monkeypatch):
        # rank 12, 3^12 = 531441 rows, is the largest table under the cap: its
        # first row is evaluated, and the test stops there
        class FirstRow(Exception):
            pass

        def evaluate(quad, vec):
            raise FirstRow(vec)

        monkeypatch.setattr(cli, "evaluate", evaluate)
        identity = [[int(i == j) for j in range(12)] for i in range(12)]
        spec = {"task": "local", "level": {"c_matrix": identity, "zeta": "1/4"}}
        with pytest.raises(FirstRow):
            cli.main(["local", "--input", write_spec(tmp_path, spec)])

    @pytest.mark.parametrize("task", ["global", "bunt"])
    def test_dense_h1_past_the_cap_exits_2(self, capsys, tmp_path, monkeypatch, task):
        # at genus 100000, H^1's generators would be read off a 200000 x 200000
        # transform and omega would fill as many cells; the report is refused
        # before the cohomology is computed
        from qtorus import gerbe

        def cohomology_presentations(rho):
            raise AssertionError("the cohomology was computed")

        monkeypatch.setattr(gerbe, "cohomology_presentations", cohomology_presentations)
        spec = base_global_spec(task=task, surface={"genus": 100000, "rank": 1})
        out, code = run_main(capsys, task, "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {
            "code": "resource_limit",
            "message": "more than 67108864 cells in H^1's 200000 x 200000 matrices",
            "path": "surface",
        }

    @pytest.mark.parametrize(("cap", "want"), [(16, 0), (15, 2)])
    def test_dense_h1_cap_boundary(self, capsys, tmp_path, monkeypatch, cap, want):
        # genus 1, rank 2: H^1's matrices are 4 x 4, 16 cells
        from qtorus import gerbe

        monkeypatch.setattr(gerbe, "MAX_DENSE_CELLS", cap)
        level = {"c_matrix": [[0, 0], [0, 1]], "zeta": "1/4"}
        spec = base_global_spec(surface={"genus": 1, "rank": 2}, level=level)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == want
        if want:
            assert (json.loads(out)["code"], json.loads(out)["path"]) == ("resource_limit", "surface")

    @pytest.mark.parametrize("monodromy", [None, []], ids=["trivial", "listed"])
    def test_rank_past_the_cap_exits_2(self, capsys, tmp_path, monkeypatch, monodromy):
        # at genus 0 a rank 100000 local system still holds a 100000 x 100000
        # identity; the rank is refused before any local system is built
        class Unbuilt:
            def __init__(self, *args):
                raise AssertionError("a local system was built")

            trivial = classmethod(__init__)

        monkeypatch.setattr(cli, "LatticeLocalSystem", Unbuilt)
        surface = {"genus": 0, "rank": 100000}
        if monodromy is not None:
            surface["monodromy"] = monodromy
        spec = {"task": "surface", "surface": surface}
        out, code = run_main(capsys, "surface", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {
            "code": "resource_limit",
            "message": "more than 67108864 cells in a 100000 x 100000 matrix",
            "path": "surface.rank",
        }

    @pytest.mark.parametrize(("cap", "want"), [(4, 0), (3, 2)])
    def test_rank_cap_boundary(self, capsys, tmp_path, monkeypatch, cap, want):
        monkeypatch.setattr(cli, "MAX_DENSE_CELLS", cap)
        spec = {"task": "surface", "surface": {"genus": 1, "rank": 2}}
        out, code = run_main(capsys, "surface", "--input", write_spec(tmp_path, spec))
        assert code == want
        if want:
            assert (json.loads(out)["code"], json.loads(out)["path"]) == ("resource_limit", "surface.rank")

    @pytest.mark.parametrize("task", ["local", "surface", "global", "bunt"])
    def test_unknown_surface_key(self, capsys, tmp_path, task):
        # a misspelt monodromy used to be dropped, leaving the trivial system
        # (pi1 = Z^2 where the intended system gives Z/2)
        spec = base_global_spec(
            task=task, surface={"genus": 1, "rank": 1, "monodrmy": [[[-1]], [[1]]]}
        )
        out, code = run_main(capsys, task, "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {
            "code": "bad_job_spec",
            "message": "unknown field 'monodrmy'",
            "path": "surface.monodrmy",
        }

    @pytest.mark.parametrize("task", ["local", "global", "bunt"])
    def test_unknown_level_key(self, capsys, tmp_path, task):
        spec = base_global_spec(task=task, level={"c_matrix": [[1]], "zeta": "1/4", "eta": 0})
        out, code = run_main(capsys, task, "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {
            "code": "bad_job_spec",
            "message": "unknown field 'eta'",
            "path": "level.eta",
        }

    def test_unknown_nested_key_path_is_bounded(self, capsys, tmp_path):
        spec = base_global_spec(surface={"genus": 1, "rank": 1, "k" * 100000: 1})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        assert len(out.encode()) < 1024
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["path"].startswith("surface.'kkk")
        assert payload["path"].endswith("(100002 characters)")

    def test_non_unimodular_monodromy(self, capsys, tmp_path):
        spec = base_global_spec(surface={"genus": 1, "rank": 1, "monodromy": [[[2]], [[1]]]})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        assert json.loads(out)["code"] == "non_unimodular"

    @pytest.mark.parametrize("case", COMMUTING_BAD_HANDLES)
    def test_non_unimodular_commuting_handle(self, capsys, tmp_path, case):
        # a commuting handle is proved unimodular by det(ab); a failure names
        # the generator by the same rule as a non-commuting handle's inversion
        a, b, bad = COMMUTING_BAD_HANDLES[case]
        mono = [[[1, 1], [0, 1]], [[1, 2], [0, 1]], a, b]
        spec = {"task": "surface", "surface": {"genus": 2, "rank": 2, "monodromy": mono}}
        out, code = run_main(capsys, "surface", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {
            "code": "non_unimodular",
            "message": f"monodromy matrix {bad} is not unimodular",
            "path": "surface.monodromy",
        }

    def test_misshapen_matrix_reported_before_non_unimodular(self, capsys, tmp_path):
        # the spec parser checks every matrix's shape before the local system
        # inverts anything, so a misshapen matrix 3 wins over a bad matrix 0
        eye = [[1, 0], [0, 1]]
        mono = [[[2, 0], [0, 1]], eye, eye, [[1, 0], [0, 1], [0, 0]]]
        spec = {"task": "surface", "surface": {"genus": 2, "rank": 2, "monodromy": mono}}
        out, code = run_main(capsys, "surface", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert (payload["code"], payload["path"]) == ("bad_job_spec", "surface.monodromy[3]")
        spec["surface"]["monodromy"][3] = eye
        out, code = run_main(capsys, "surface", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        assert (payload["code"], payload["path"]) == ("non_unimodular", "surface.monodromy")
        assert payload["message"] == "monodromy matrix 0 is not unimodular"

    def test_relation_violation(self, capsys, tmp_path):
        mono = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
        spec = base_global_spec(surface={"genus": 1, "rank": 2, "monodromy": mono})
        spec["level"] = {"c_matrix": [[0, 0], [0, 0]], "zeta": "0/1"}
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        assert json.loads(out)["code"] == "relation_violated"

    @pytest.mark.parametrize("zeta", ["2/4", "1/0", "-1/2", "1/ 2", "0.5", "1", ""])
    def test_zeta_rejected(self, capsys, tmp_path, zeta):
        spec = base_global_spec(level={"c_matrix": [[1]], "zeta": zeta})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        assert json.loads(out)["path"] == "level.zeta"

    @pytest.mark.parametrize("task", ["local", "surface", "global", "bunt"])
    @pytest.mark.parametrize("rank", [-1, 0])
    def test_nonpositive_rank(self, capsys, tmp_path, task, rank):
        # every task that reads a surface refuses a rank below 1 the same way
        spec = {
            "task": task,
            "surface": {"genus": 1, "rank": rank},
            "level": {"c_matrix": [], "zeta": "1/4"},
        }
        out, code = run_main(capsys, task, "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        assert (payload["code"], payload["path"]) == ("bad_job_spec", "surface.rank")
        assert payload["message"] == "rank must be positive"

    def test_rank_mismatch(self, capsys, tmp_path):
        spec = base_global_spec(level={"c_matrix": [[1, 0], [0, 1]], "zeta": "1/4"})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2

    def test_non_invariant_level(self, capsys, tmp_path):
        swap = base_global_spec(
            surface={"genus": 1, "rank": 2, "monodromy": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]},
            level={"c_matrix": [[1, 0], [0, 0]], "zeta": "1/3"},
        )
        # genus 2, rank 64: four shears x -> x + (k + 1) (x_1 + ... + x_63) e_0
        # move the identity level
        r = 64
        eye = [[int(i == j) for j in range(r)] for i in range(r)]
        shears = [[[int(i == j) + (k + 1) * (i == 0 < j) for j in range(r)] for i in range(r)]
                  for k in range(4)]
        wide = base_global_spec(
            surface={"genus": 2, "rank": r, "monodromy": shears},
            level={"c_matrix": eye, "zeta": "1/6"},
        )
        for spec in (swap, wide):
            for task in ("global", "bunt"):
                path = write_spec(tmp_path, dict(spec, task=task))
                out, code = run_main(capsys, task, "--input", path)
                assert code == 2
                payload = json.loads(out)
                assert (payload["code"], payload["path"]) == ("not_invariant", "level")

    def test_bad_component_length(self, capsys, tmp_path):
        out, code = run_main(
            capsys, "global", "--input", write_spec(tmp_path, base_global_spec(components=[[1, 2]]))
        )
        assert code == 2

    # (matrix, message, path suffix) at rank 2; a matrix is a list of rows
    MATRIX_FAULTS = {
        "bool": ([[True, 0], [0, 1]], "expected an integer", "[0][0]"),
        "float": ([[1, 0], [0, 1.5]], "expected an integer", "[1][1]"),
        "string": ([[1, "0"], [0, 1]], "expected an integer", "[0][1]"),
        "ragged": ([[1, 0], [0]], "expected a list of 2 integers", "[1]"),
        # four entries in all, but not two per row
        "long_and_short": ([[1, 0, 0], [1]], "expected a list of 2 integers", "[0]"),
        "wrong_size": ([[1]], "expected a 2x2 matrix", ""),
        "empty": ([], "expected a square integer matrix", ""),
        "scalar": (1, "expected a square integer matrix", ""),
        "row_and_scalar": ([[1, 0], 2], "expected a square integer matrix", ""),
        "flat": ([1, 0, 0, 1], "expected a square integer matrix", ""),
    }

    @pytest.mark.parametrize("fault", MATRIX_FAULTS)
    @pytest.mark.parametrize("where", ["surface.monodromy[0]", "level.c_matrix"])
    def test_matrix_entries(self, capsys, tmp_path, where, fault):
        matrix, message, suffix = self.MATRIX_FAULTS[fault]
        identity = [[1, 0], [0, 1]]
        surface = {"genus": 1, "rank": 2, "monodromy": [identity, identity]}
        level = {"c_matrix": identity, "zeta": "1/4"}
        if where == "level.c_matrix":
            level["c_matrix"] = matrix
        else:
            surface["monodromy"][0] = matrix
        spec = base_global_spec(surface=surface, level=level)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        assert payload == {"code": "bad_job_spec", "message": message, "path": where + suffix}

    # the smallest valid spec of each task, before the object under test is added
    MINIMAL = {
        "local": {"task": "local", "level": {"c_matrix": [[1]], "zeta": "1/4"}},
        "surface": {"task": "surface", "surface": {"genus": 1, "rank": 1}},
        "selfcheck": {"task": "selfcheck"},
    }
    # (task, objects added, payload): each object is one the task does not read
    UNUSED_OBJECT_FAULTS = {
        "local-surface": (
            "local",
            {"surface": {"genus": "x", "rank": 1, "monodromy": 5}},
            ("bad_job_spec", "expected an integer", "surface.genus"),
        ),
        "local-monodromy": (
            "local",
            {"surface": {"genus": 1, "rank": 1, "monodromy": [[[2]], [[1]]]}},
            ("non_unimodular", "monodromy matrix 0 is not unimodular", "surface.monodromy"),
        ),
        "local-genus_past_memory": (
            "local",
            {"surface": {"genus": sys.maxsize // 2, "rank": 1}},
            ("resource_limit", "the job needs more memory than is available", ""),
        ),
        "surface-level": (
            "surface",
            {"level": 7, "components": "junk"},
            ("bad_job_spec", "level must be an object", "level"),
        ),
        "surface-components": (
            "surface",
            {"components": "junk"},
            ("bad_job_spec", "components must be a list of integer vectors", "components"),
        ),
        "selfcheck-surface": (
            "selfcheck",
            {"surface": 5},
            ("bad_job_spec", "surface must be an object", "surface"),
        ),
    }

    @pytest.mark.parametrize("fault", UNUSED_OBJECT_FAULTS)
    def test_objects_a_task_does_not_read_are_checked(self, capsys, tmp_path, fault):
        task, objects, (code, message, path) = self.UNUSED_OBJECT_FAULTS[fault]
        spec = {**self.MINIMAL[task], **objects}
        out, exit_code = run_main(capsys, task, "--input", write_spec(tmp_path, spec))
        assert exit_code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {"code": code, "message": message, "path": path}

    def test_unused_objects_change_no_output(self, capsys, tmp_path):
        # a valid surface and components on a local job are parsed, then unread
        plain = write_spec(tmp_path, self.MINIMAL["local"], "plain.json")
        extra = {"surface": {"genus": 2, "rank": 1}, "components": [[0], [1]]}
        spec = write_spec(tmp_path, {**self.MINIMAL["local"], **extra}, "extra.json")
        assert run_main(capsys, "local", "--input", spec) == run_main(
            capsys, "local", "--input", plain
        )

    @pytest.mark.parametrize(
        "objects",
        [
            {"surface": {"genus": "x", "rank": 1}},
            {"level": 7},
            {"components": "junk"},
        ],
        ids=["surface", "level", "components"],
    )
    def test_task_mismatch_wins_over_a_bad_object(self, capsys, tmp_path, objects):
        spec = base_global_spec(**objects)
        out, code = run_main(capsys, "local", "--input", write_spec(tmp_path, spec))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload == {
            "code": "bad_job_spec",
            "message": "spec task 'global' does not match command 'local'",
            "path": "task",
        }


class TestInterface:
    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(base_global_spec())))
        out, code = run_main(capsys, "global", "--input", "-")
        assert code == 0
        assert json.loads(out)["task"] == "global"

    def test_format_flag_overrides_spec(self, capsys, tmp_path):
        out, code = run_main(
            capsys,
            "global",
            "--input",
            write_spec(tmp_path, base_global_spec()),
            "--format",
            "text",
        )
        assert code == 0
        assert out.startswith("task: global")

    def test_selfcheck_without_input(self, capsys):
        out, code = run_main(capsys, "selfcheck")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["cases"] >= 100

    def test_selfcheck_seed_flag(self, capsys):
        out, code = run_main(capsys, "selfcheck", "--seed", "7")
        assert code == 0
        assert json.loads(out)["seed"] == 7

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["selfcheck", "--seed", "abc"], "invalid int value"),
            (["nosuch"], "invalid choice"),
            ([], "required"),
        ],
        ids=["bad_seed", "unknown_task", "no_task"],
    )
    def test_bad_command_line_prints_error_object(self, capsys, argv, needle):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""  # no argparse usage text
        payload = json.loads(captured.out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "bad_job_spec"
        assert payload["path"] == ""
        assert needle in payload["message"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["-h"])
        assert exc.value.code == 0
        assert "usage: qtorus" in capsys.readouterr().out

    def test_main_builds_no_parser(self, capsys, monkeypatch, tmp_path):
        # the command line is parsed by one parser, built when cli is imported
        built = []
        real = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        spec = write_spec(tmp_path, base_global_spec())
        for fmt in ("json", "text", "json"):
            assert run_main(capsys, "global", "--input", spec, "--format", fmt)[1] == 0
        assert built == []

    def _error_exit(self, capsys, tmp_path, text):
        p = tmp_path / "spec.json"
        p.write_text(text)
        out, code = run_main(capsys, "local", "--input", str(p))
        assert code == 2
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        return payload

    def test_deeply_nested_input(self, capsys, tmp_path):
        payload = self._error_exit(capsys, tmp_path, "[" * 200000)
        assert payload["code"] == "bad_job_spec"
        assert "not valid JSON" in payload["message"]

    def test_integer_literal_past_digit_limit(self, capsys, tmp_path):
        text = '{"task": "local", "component_bound": ' + "9" * 5000 + "}"
        payload = self._error_exit(capsys, tmp_path, text)
        assert payload["code"] == "bad_job_spec"
        assert "not valid JSON" in payload["message"]

    # x = 8 * 10**4299 and N = 10**3000 + 1, each input integer within the
    # 4300-digit limit; the report integers 2x - 2 and N**2 are not, and are
    # spelt out as digit strings so that no str(int) call is needed here
    X = 8 * 10**4299
    LONG_REPORT_INTEGERS = {
        "surface": (
            {
                "task": "surface",
                "surface": {
                    "genus": 1,
                    "rank": 2,
                    "monodromy": [[[X, X - 1], [X + 1, X]], [[1, 0], [0, 1]]],
                },
            },
            "15" + "9" * 4298 + "8",  # 2x - 2, the torsion of H^2
        ),
        "global": (
            {
                "task": "global",
                "surface": {"genus": 2, "rank": 1},
                "level": {"c_matrix": [[1]], "zeta": "1/1" + "0" * 2999 + "1"},
            },
            "1" + "0" * 2999 + "2" + "0" * 2999 + "1",  # N**2, the block dimension
        ),
    }

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("task", LONG_REPORT_INTEGERS)
    def test_report_integers_past_digit_limit(self, capsys, tmp_path, task, fmt):
        spec, digits = self.LONG_REPORT_INTEGERS[task]
        assert len(digits) in (4301, 6001)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        path = write_spec(tmp_path, spec)
        out, code = run_main(capsys, task, "--input", path, "--format", fmt)
        assert code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        if fmt == "text":
            assert (f"pi0 = Z/{digits}," if task == "surface" else f"block_dim {digits},") in out
            return
        report = json.loads(out, parse_int=str)  # digit strings, read past the limit
        if task == "surface":
            assert report["cohomology"]["h2"]["torsion"] == [digits]
        else:
            assert report["blocks"] and all(b["block_dim"] == digits for b in report["blocks"])

    def test_zeta_past_digit_limit(self, capsys, tmp_path):
        level = {"c_matrix": [[1]], "zeta": "1/" + "7" * 5000}
        payload = self._error_exit(capsys, tmp_path, json.dumps({"task": "local", "level": level}))
        assert payload["code"] == "bad_fraction"
        assert payload["path"] == "level.zeta"

    @pytest.mark.parametrize(
        "zeta", [[0] * 200000, "1/" + "x" * 4000], ids=["long_list", "long_string"]
    )
    def test_bad_zeta_payload_is_bounded(self, capsys, tmp_path, zeta):
        # the message echoes a fixed prefix of the value, not the whole input
        level = {"c_matrix": [[1]], "zeta": zeta}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"task": "local", "level": level}))
        out, code = run_main(capsys, "local", "--input", str(p))
        assert code == 2
        assert len(out.encode()) < 1024
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "bad_fraction"
        assert payload["path"] == "level.zeta"

    def test_unknown_field_payload_is_bounded(self, capsys, tmp_path):
        # one 100000-character key: the message and the path echo a fixed prefix
        spec = base_global_spec(**{"k" * 100000: 1})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        assert len(out.encode()) < 1024
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["path"].startswith("'kkk") and "100002 characters" in payload["path"]

    def test_unknown_field_short_key_exact(self, capsys, tmp_path):
        out, code = run_main(
            capsys, "global", "--input", write_spec(tmp_path, base_global_spec(extra=1))
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["message"] == "unknown field 'extra'"
        assert payload["path"] == "extra"


STRINGS = st.text() | st.text(st.sampled_from('"\\/\x00\x07\n\r\t\x1f\x7f\u00e9\u20ac\u2028\U0001f600\ud800a'))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | STRINGS
)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(STRINGS, kids),
    max_leaves=20,
)


@st.composite
def trees_sharing_a_list(draw):
    """A tree holding one list object at the same depth twice and at other depths."""
    shared = draw(st.lists(st.lists(SCALARS, max_size=4), max_size=4) | st.lists(SCALARS))
    return {
        "same": [shared, shared],
        "deeper": {"x": [[shared]], "y": (shared, draw(TREES))},
        "top": shared,
        "other": draw(TREES),
    }


FIELD_KEYS = st.lists(STRINGS, min_size=1, max_size=4, unique=True)
# what one column of a record list holds: int lists (empty, bool or 2**70
# among them sometimes), str lists, str leaves, or any tree
COLUMNS = [
    st.lists(st.integers(-3, 3) | st.just(2**70), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3) | st.booleans(), max_size=3),
    st.lists(STRINGS, min_size=1, max_size=3),
    STRINGS,
    TREES,
]


@st.composite
def record_lists(draw):
    """Lists (or tuples) of dicts mostly sharing one key list.

    Each value of a column is the column's one shared object, an equal copy
    of it, or a fresh draw; a record sometimes lists the keys in another order.
    """
    keys = draw(FIELD_KEYS)
    kinds = {k: draw(st.sampled_from(COLUMNS)) for k in keys}
    shared = {k: draw(kinds[k]) for k in keys}
    records = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(keys)) if draw(st.integers(0, 3)) == 0 else keys
        how = {k: draw(st.sampled_from(("shared", "copy", "own"))) for k in order}
        records.append({
            k: shared[k] if how[k] == "shared"
            else json.loads(json.dumps(shared[k])) if how[k] == "copy"
            else draw(kinds[k])
            for k in order
        })
    if draw(st.booleans()):
        records = tuple(records)
    return records if draw(st.booleans()) else {"deeper": [records, {"x": records}]}


def count_strings(value):
    """Strings an encoder writes for ``value``: dict keys and string leaves."""
    if isinstance(value, str):
        return 1
    if isinstance(value, dict):
        return sum(1 + count_strings(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(count_strings(v) for v in value)
    return 0


MATRIX_ENTRIES = st.sampled_from([0, 1, -1, 2**70, -(2**70)])


@st.composite
def int_matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    size = rows * cols
    return IntMatrix(rows, cols, draw(st.lists(MATRIX_ENTRIES, min_size=size, max_size=size)))


@st.composite
def nested_matrices(draw):
    """An ``IntMatrix`` in 0-4 levels of dicts and lists, beside other matrices and ints."""
    value = draw(int_matrices())
    for _ in range(draw(st.integers(0, 4))):
        items = [value, *draw(st.lists(st.one_of(int_matrices(), MATRIX_ENTRIES), max_size=2))]
        items = draw(st.permutations(items))
        if draw(st.booleans()):
            value = items
        else:
            value = {f"k{i}": item for i, item in enumerate(items)}
    return value


class TestEmitter:
    @settings(max_examples=150, deadline=None)
    @given(TREES)
    def test_equals_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2) + "\n"

    @settings(max_examples=50, deadline=None)
    @given(trees_sharing_a_list())
    def test_shared_lists_equal_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes"])
    def test_other_types_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._dumps({"x": [bad]})

    @pytest.mark.parametrize("bad", [1.5, {1: "int key"}])
    def test_floats_and_non_string_keys_are_not_report_values(self, bad):
        # reports hold neither; json.dumps would accept both
        with pytest.raises(TypeError):
            cli._dumps(bad)

    @settings(max_examples=200, deadline=None)
    @given(record_lists())
    def test_record_lists_equal_json_dumps(self, value):
        # a list of same-keyed dicts, like the local twist table, goes
        # through the generic dict and list walk
        assert cli._dumps(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("records", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["float", "shared float", "int key", "nested float"])
    def test_record_lists_raise_type_error_like_one_record(self, records, bad):
        # the walk rejects a bad value in any record, whatever the list's length
        shared = 0.5
        def record(i):
            if bad == "int key":
                return {"a": i, 1: "x"}
            if bad == "nested float":
                return {"a": [i], "b": {"c": [1.5]}}
            return {"a": i, "b": shared if bad == "shared float" else i + 0.5}
        with pytest.raises(TypeError):
            cli._dumps([record(i) for i in range(records)])

    @pytest.mark.parametrize("shape", ["list", "dict"])
    def test_nesting_60_deep_equals_json_dumps(self, shape):
        # each container indents its items two spaces past its own pad, at
        # any depth
        value = [1, "leaf"] if shape == "list" else {"leaf": [True, 1]}
        for depth in range(60):
            value = [value] if shape == "list" else {f"k{depth}": value, "n": depth}
        assert cli._dumps(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize(
        "items",
        [[True, 1], [1, True], [0, False, 1], [True, True], ["a", True], [True, "a"],
         [1, "1"], ["1", 1], ["a", None], [2**70, -1, 0]],
    )
    def test_mixed_scalar_lists_equal_json_dumps(self, items):
        # only an all-str or all-int list takes the one-join path; a bool is no int
        value = {"row": items, "rows": [items, items[::-1]], "tuple": tuple(items)}
        assert cli._dumps(value) == json.dumps(value, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(nested_matrices())
    def test_matrices_equal_json_dumps_of_their_rows(self, value):
        # each IntMatrix is written from one template of its shape and depth
        assert cli._dumps(value) == json.dumps(plain_report(value), indent=2) + "\n"

    @pytest.mark.parametrize("bad", [True, 1.5, "1"])
    def test_matrix_entries_other_than_int_raise_type_error(self, bad):
        # "%d" would write True and 1.5 as 1, and "1" is no integer
        with pytest.raises(TypeError):
            cli._dumps({"m": [IntMatrix(2, 2, [1, 0, bad, 1])]})

    def test_matrix_entries_past_the_digit_limit(self):
        # "%d" keeps str(int)'s digit limit, which _emit lifts around the writer
        wide = IntMatrix(1, 2, [-(10**5000), 1])
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and limit < 5001:
            with pytest.raises(ValueError):
                cli._dumps({"m": wide})
        out = cli._emit({"m": wide}, "json")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        assert out == '{\n  "m": [\n    [\n      -1' + "0" * 5000 + ',\n      1\n    ]\n  ]\n}\n'

    def test_shared_omega_is_encoded_once(self, monkeypatch):
        # g4 r4: 81 blocks share a 32 x 32 omega, written from one table of
        # encoded residues, so no cell of omega is encoded on its own
        spec = json.loads((INPUTS / "global_trivial_g4r4.json").read_text())
        report = cli._run_global(cli.JobSpec(spec, "global"))
        v1 = blocks_v1(report["blocks"])
        assert len(v1) == 81 and len(v1[0]["omega"]) == 32
        encoded = []

        def counting(text):
            encoded.append(text)
            return json.encoder.encode_basestring_ascii(text)

        monkeypatch.setattr(cli, "_encode_str", counting)
        out = cli._dumps(report)
        # the report holds its monodromy and c_matrix as IntMatrix values
        assert out == json.dumps(plain_report({**report, "blocks": v1}), indent=2) + "\n"
        # every string outside the blocks once, then each residue's
        # fraction once; the omega cells include 0, which the table holds
        fractions = {x for row in v1[0]["omega"] for x in row}
        fractions.update(x for b in v1 for x in b["pi2_character"])
        assert "0/1" in fractions and len(fractions) <= 4
        assert len(encoded) == count_strings({**report, "blocks": []}) + len(fractions)

    def test_level_wide_block_fields_are_encoded_once(self, monkeypatch):
        # omega, radical_rank, block_dim and the keys are written into one
        # piece each per report; a block appends the joins of its component
        # and its character between those pieces, and _encode sees no field
        spec = cli.JobSpec({
            "task": "global",
            "surface": {"genus": 2, "rank": 3},
            "level": {"c_matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]], "zeta": "1/4"},
        }, "global")
        rep = cli._run_global(spec)["blocks"]
        v1 = blocks_v1(rep)
        assert len(v1) == 27 and len({tuple(b["pi2_character"]) for b in v1}) > 1
        seen = []
        encode = cli._encode

        def spy(value, pad, out):
            seen.append(value)
            encode(value, pad, out)

        monkeypatch.setattr(cli, "_encode", spy)
        out: list[str] = []
        cli._encode(rep, "\n", out)
        assert seen == [rep]
        assert "".join(out) == json.dumps(v1, indent=2)
        # five pieces a block, then the closing indent and bracket
        assert len(out) == 5 * 27 + 2
        pieces = [out[k : k + 5] for k in range(0, 5 * 27, 5)]
        for b, (sep, comp, mid, chi, tail) in zip(v1, pieces):
            assert comp == ",\n      ".join(map(str, b["component"]))
            assert chi == ",\n      ".join(json.dumps(x) for x in b["pi2_character"])
            assert mid is pieces[0][2] and tail is pieces[0][4]
            assert sep is pieces[-1][0] or b is v1[0]
        assert '"omega"' in pieces[0][2] and '"block_dim"' in pieces[0][4]


@st.composite
def block_reports(draw):
    """A ``BlockReport`` of a drawn level, with enumerated or drawn components.

    Systems come from ``random_local_system`` at genus 0-2 and rank 1-3, so
    omega may be empty (genus 0) and H^0 may be 0 (empty characters); a
    level may instead be a trivial system's with zeta = k / 10^12. Drawn
    components may be none, repeat, be negative or be +-2^70.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    genus, rank = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        rho = random_local_system(rng, genus, rank)
        level = LevelInput(random_invariant_level(rng, rho), rho)
    else:
        rho = LatticeLocalSystem.trivial(rank, genus)
        c = IntMatrix(rank, rank, draw(st.lists(st.integers(-3, 3), min_size=rank * rank,
                                                max_size=rank * rank)))
        level = LevelInput(BilinearData(c, Frac1(draw(st.integers(1, 10**12)), 10**12)), rho)
    h2 = cohomology_presentations(rho).triple.h2
    if draw(st.booleans()) and 3**h2.free_rank * math.prod(h2.torsion) <= 100:
        return block_report(level)
    entry = st.one_of(st.integers(-5, 5), st.sampled_from([2**70, -(2**70)]))
    pool = draw(st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=3))
    return block_report(level, components=draw(st.lists(st.sampled_from(pool), max_size=5)))


def big_n_level():
    # c + c^T = [[2, 1], [1, 2]] has content 1, so N is zeta's 10^12
    c = IntMatrix.from_rows([[1, 1], [0, 1]])
    return LevelInput(BilinearData(c, Frac1(1, 10**12)), LatticeLocalSystem.trivial(2, 1))


BLOCK_CASES = {
    "no components": lambda: block_report(
        LevelInput(BilinearData(IntMatrix.identity(1), Frac1(1, 4)),
                   LatticeLocalSystem.trivial(1, 1)), components=[]),
    "genus 0": lambda: block_report(
        LevelInput(BilinearData(IntMatrix.identity(2), Frac1(1, 4)),
                   LatticeLocalSystem.trivial(2, 0))),
    "H^0 = 0": lambda: block_report(
        LevelInput(BilinearData(IntMatrix.identity(1), Frac1(1, 2)),
                   LatticeLocalSystem(1, 1, [IntMatrix.identity(1), -IntMatrix.identity(1)]))),
    "N = 10^12": lambda: block_report(big_n_level(), components=[(0, 0), (1, -1), (3, 5)]),
    "2^70 entries": lambda: block_report(
        big_n_level(), components=[(2**70, -(2**70)), (-(2**70), 1), (2**70, -(2**70))]),
}


class TestBlockWriter:
    """The ``BlockReport`` writer against v1's per-block dicts and ``json.dumps``."""

    @staticmethod
    def check(rep):
        want = blocks_v1(rep)
        assert cli._dumps({"blocks": rep}) == json.dumps({"blocks": want}, indent=2) + "\n"
        # at other nesting depths too, and beside other values
        value = [{"x": rep, "y": [1, "a"]}, rep]
        assert cli._dumps(value) == json.dumps([{"x": want, "y": [1, "a"]}, want], indent=2) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(block_reports())
    def test_equals_json_dumps_of_v1_blocks(self, rep):
        self.check(rep)

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_edge_cases_equal_json_dumps(self, case):
        rep = BLOCK_CASES[case]()
        self.check(rep)
        if case == "no components":
            assert rep.blocks == ()
        elif case == "genus 0":
            assert rep.omega == [] and len(rep.blocks) == 9
        elif case == "H^0 = 0":
            assert rep.blocks and all(b.pi2_character == () for b in rep.blocks)
        elif case == "N = 10^12":
            assert rep.denominator == 10**12
        else:
            assert rep.blocks[0] == rep.blocks[2] and rep.blocks[0].component[0] == 2**70


class TestTripwire:
    def test_selfcheck_failure_exits_three(self, capsys, monkeypatch):
        from qtorus.selfcheck import SelfCheckResult

        def broken(seed):
            return SelfCheckResult(seed=seed, cases=144, agreements=143, mismatches=({"cell": "x"},))

        monkeypatch.setattr(cli, "run_selfcheck", broken)
        out, code = run_main(capsys, "selfcheck")
        assert code == 3
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("fault", ["independent_check", "euler"])
    def test_surface_failed_check_exits_three(self, capsys, monkeypatch, fault):
        from qtorus import FgAbGroup
        from qtorus.surface import CohomologyPresentations

        if fault == "independent_check":
            monkeypatch.setattr(cli, "invariants_coinvariants_check", lambda rho, h: False)
        else:
            real = cli.cohomology_presentations

            def shifted(rho):
                # H^1 one rank larger: H^0 and H^2 still pass their check
                pres = real(rho)
                h1 = FgAbGroup(pres.triple.h1.free_rank + 1, pres.triple.h1.torsion)
                triple = pres.triple._replace(h1=h1)
                return CohomologyPresentations(triple, pres.complex, pres.snf0, pres.snf1)

            monkeypatch.setattr(cli, "cohomology_presentations", shifted)
        spec = GOLDEN / "surface_signs_g2r2.json"
        out, code = run_main(capsys, "surface", "--input", str(spec), "--format", "json")
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "invariant_violation"
        assert ("Euler" in payload["message"]) == (fault == "euler")

    @pytest.mark.parametrize("fault", ["not antisymmetric", "nonzero free diagonal"])
    def test_omega_check_exits_three(self, capsys, monkeypatch, tmp_path, fault):
        from qtorus import BilinearData, Frac1, IntMatrix, LatticeLocalSystem, LevelInput, gerbe
        from qtorus.errors import InvariantViolation

        omega_numerators = gerbe.omega_numerators
        # base_global_spec's level: genus 1, rank 1, c = [[1]], zeta = 1/4
        rho = LatticeLocalSystem.trivial(1, 1)
        level = LevelInput(BilinearData(IntMatrix.identity(1), Frac1(1, 4)), rho)
        n = level.pairing.denominator
        assert n % 2 == 0

        def faulty(rho, numerators, gens):
            w = omega_numerators(rho, numerators, gens)
            assert numerators == level.pairing.numerators and len(gens) == 2
            if fault == "not antisymmetric":
                w[0][1] = w[0].get(1, 0) + 1
            else:  # W[0][0] = N/2 keeps 2 W[0][0] = 0 mod N, so only this check sees it
                w[0][0] = w[0].get(0, 0) + n // 2
            return w

        monkeypatch.setattr(gerbe, "omega_numerators", faulty)
        with pytest.raises(InvariantViolation, match=fault):
            gerbe.block_report(level)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, base_global_spec()))
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "invariant_violation" and fault in payload["message"]

    def test_pi2_character_check_exits_three(self, capsys, monkeypatch, tmp_path):
        # b = [[2, 1], [1, 2]] / 3 in place of the level's 2I / 3: the flip
        # negates b(e_0, e_1), so lambda^T B on lambda = e_0 is not invariant
        from qtorus import SymmetricForm
        from qtorus.errors import InvariantViolation

        flip = [[1, 0], [0, -1]]
        rho = LatticeLocalSystem(2, 1, [IntMatrix.from_rows(flip), IntMatrix.identity(2)])
        level = LevelInput(BilinearData(IntMatrix.identity(2), Frac1(1, 3)), rho)
        moved = SymmetricForm(IntMatrix.from_rows([[2, 1], [1, 2]]), 3)

        class Moved(LevelInput):
            def __init__(self, *args):
                super().__init__(*args)
                self.pairing = moved

        with pytest.raises(InvariantViolation, match="representative"):
            block_report(Moved(level.bilinear, rho))
        monkeypatch.setattr(cli, "LevelInput", Moved)
        spec = base_global_spec(surface={"genus": 1, "rank": 2, "monodromy": [flip, [[1, 0], [0, 1]]]},
                                level={"c_matrix": [[1, 0], [0, 1]], "zeta": "1/3"})
        for components in (None, [[0, 0], [1, -1]]):
            if components is not None:
                spec["components"] = components
            out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
            assert code == 3
            payload = json.loads(out)
            assert payload["code"] == "invariant_violation"
            assert "representative" in payload["message"]

    def test_h1_routes_disagree_exits_three(self, capsys, monkeypatch, tmp_path):
        # a fault in the replay that forms x, inside SnfResult.subquotient,
        # moves coker x off coker d0's H^1: 1 more at coordinate 0 of the
        # last {coordinate: entry} row
        from qtorus import lattice

        replay = lattice._replay

        def faulty(ops, rows, inverse=False):
            out = replay(ops, rows, inverse)
            out[-1] = {**out[-1], 0: out[-1].get(0, 0) + 1}
            return out

        monkeypatch.setattr(lattice, "_replay", faulty)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, base_global_spec()))
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "invariant_violation" and "H^1" in payload["message"]

    def test_inconsistent_complex_exits_three(self, capsys, monkeypatch):
        # one wrong entry of d1, in the column where d0's first block is -2 I:
        # d1 . d0 != 0. The complex does not re-multiply d1 . d0 (the relation
        # check proves it for correct code), so the independent oracle refuses
        # the H^2 read off the faulty d1. On specs where no runtime check sees
        # this fault, test_surface.py's test_d1_matches_fox_derivatives and the
        # golden byte tests do
        from qtorus import IntMatrix, surface

        complex_ = surface.CochainComplexSurface

        def faulty(genus, rank, d0, d1):
            d1 = IntMatrix(d1.rows, d1.cols, [d1.entries[0] + 1, *d1.entries[1:]])
            return complex_(genus, rank, d0, d1)

        monkeypatch.setattr(surface, "CochainComplexSurface", faulty)
        spec = GOLDEN / "surface_signs_g2r2.json"
        out, code = run_main(capsys, "surface", "--input", str(spec), "--format", "json")
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "invariant_violation"
        assert payload["message"] == "H^0 or H^2 disagrees with the invariants and coinvariants"

    def test_radial_walk_on_a_non_cocycle_exits_three(self, capsys, monkeypatch):
        # one wrong coboundary entry on the first triangle: the cocycle check
        # refuses the cochain the radial walk closed up, and selfcheck stops
        # with an internal error rather than a mismatch record
        from qtorus import cochain

        sums = cochain._alternating_sums

        def faulty(faces):
            out = sums(faces)
            out[0] = [[x + 1 for x in row] for row in out[0]]
            return out

        monkeypatch.setattr(cochain, "_alternating_sums", faulty)
        out, code = run_main(capsys, "selfcheck")
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "invariant_violation" and "radial walk" in payload["message"]

    def test_wrong_generator_inverse_exits_three(self, capsys, monkeypatch):
        # the oracle reads x_j^-1 off rho.mon_inv: one wrong entry of
        # mon_inv[0] keeps the radial walk from closing on an H^1 generator
        # of the report route. The routes disagree, and selfcheck takes no
        # user data, so this is an internal error, not not_in_kernel's exit 2
        from qtorus import IntMatrix, selfcheck

        local_system = selfcheck._local_system

        def faulty(rng, genus, rank, family):
            rho = local_system(rng, genus, rank, family)
            if rank == 2:
                first = list(rho.mon_inv[0].entries)
                first[1] += 1
                rho.mon_inv = (IntMatrix(2, 2, first), *rho.mon_inv[1:])
            return rho

        monkeypatch.setattr(selfcheck, "_local_system", faulty)
        out, code = run_main(capsys, "selfcheck")
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "invariant_violation"
        assert "genus 1, rank 2, trivial" in payload["message"]

    def test_invariant_violation_exits_three(self, capsys, monkeypatch, tmp_path):
        from qtorus.errors import InvariantViolation

        def boom(*args, **kwargs):
            raise InvariantViolation("internal disagreement")

        monkeypatch.setattr(cli, "block_report", boom)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, base_global_spec()))
        assert code == 3
        payload = json.loads(out)
        assert payload["code"] == "invariant_violation"


class TestValueClasses:
    # the CLI starts without dataclasses: the layers' value classes are
    # NamedTuples and slotted classes that refuse assignment through one base

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # -S keeps site-packages' .pth files from loading modules of their own
        src = Path(__file__).parents[1] / "src"
        code = "import sys, qtorus.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    @staticmethod
    def instances():
        from qtorus import (
            BilinearData, LatticeLocalSystem, LevelInput, block_report, checked_classes,
            cohomology_presentations, polarize, quad_from_bilinear, standard_refinement, triangulate,
        )
        from qtorus.forms import Frac1
        from qtorus.lattice import IntMatrix
        from qtorus.selfcheck import SelfCheckResult

        rho = LatticeLocalSystem(2, 1, [IntMatrix.identity(2), IntMatrix(2, 2, [1, 1, 0, 1])])
        pres = cohomology_presentations(rho)
        level = BilinearData(IntMatrix(2, 2, [0, 0, 0, 1]), Frac1(1, 2))
        quad = quad_from_bilinear(level)
        report = block_report(LevelInput(level, rho))
        t = triangulate(1)
        classes = checked_classes(h1_vectors(pres), t, rho)
        return [
            pres.triple.h1, pres.snf0, pres.h1, pres.complex, pres, level, quad,
            polarize(quad), standard_refinement(quad), report.blocks[0], report, classes,
            classes[0], t, t.triangles[0], t.triangles[0].faces[0], SelfCheckResult(1, 0, 0),
        ]

    def test_instances_refuse_assignment(self):
        objects = self.instances()
        assert len({type(obj) for obj in objects}) == 17
        for obj in objects:
            cls = type(obj)
            names = getattr(cls, "_fields", None) or [n for n in cls.__slots__ if n != "__dict__"]
            assert names, cls.__name__
            for name in names:
                before = getattr(obj, name)
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                assert getattr(obj, name) is before, (cls.__name__, name)
        # the slotted classes, IntMatrix and Frac1 included, refuse through one
        # base, and its message names the instance's own class
        from qtorus.errors import _Frozen
        from qtorus.forms import Frac1
        from qtorus.lattice import IntMatrix

        slotted = [obj for obj in objects if not hasattr(obj, "_fields")]
        assert len(slotted) == 9
        for obj in [*slotted, IntMatrix.identity(1), Frac1(1, 2)]:
            assert isinstance(obj, _Frozen)
            with pytest.raises(AttributeError) as refused:
                setattr(obj, type(obj).__slots__[0], None)
            assert str(refused.value) == f"{type(obj).__name__} is immutable"

    def test_held_dicts_refuse_item_assignment(self):
        # a checked batch's blocks and each cocycle's values are read-only
        # views: an edit cannot undo the cocycle check
        from qtorus import Cocycle
        from qtorus.cochain import CheckedClasses

        objects = {type(obj): obj for obj in self.instances()}
        for values in (objects[Cocycle].values, objects[CheckedClasses].blocks):
            cell, before = next(iter(values.items()))
            with pytest.raises(TypeError):
                values[cell] = (99, 99)
            assert values[cell] == before
