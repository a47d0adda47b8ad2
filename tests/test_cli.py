import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import ERROR_SCHEMA, REPORT_SCHEMAS
from qtorus import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = Path(__file__).parent / "inputs"


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    return capsys.readouterr().out, code


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
    def test_local_text_bytes(self, capsys):
        out, code = run_main(capsys, "local", "--input", str(GOLDEN / "local_unit_quarter.json"))
        assert code == 0
        assert out == (GOLDEN / "local_unit_quarter.txt").read_text()

    def test_global_json_bytes(self, capsys):
        out, code = run_main(capsys, "global", "--input", str(GOLDEN / "global_unit_quarter.json"))
        assert code == 0
        assert out == (GOLDEN / "global_unit_quarter.out.json").read_text()

    def test_bunt_shear_json_bytes(self, capsys):
        # nontrivial coefficients: unipotent shears at genus 3, rank 2
        out, code = run_main(capsys, "bunt", "--input", str(GOLDEN / "bunt_shear_g3r2.json"))
        assert code == 0
        assert out == (GOLDEN / "bunt_shear_g3r2.out.json").read_text()

    def test_global_signs_text_bytes(self, capsys):
        # sign flips put a torsion generator in H^1 and in H^2
        out, code = run_main(capsys, "global", "--input", str(GOLDEN / "global_signs_r3.json"))
        assert code == 0
        assert out == (GOLDEN / "global_signs_r3.txt").read_text()

    def test_global_signs_bound2_text_bytes(self, capsys):
        # H^2 = Z^2 + Z/2 at bound 2: 50 components, free coefficients outer,
        # the torsion one inner, pinned in bytes
        out, code = run_main(capsys, "global", "--input", str(GOLDEN / "global_signs_g2r3_bound2.json"))
        assert code == 0
        assert out == (GOLDEN / "global_signs_g2r3_bound2.txt").read_text()

    def test_surface_twisted_json_bytes(self, capsys):
        # handle pairs (T_i, T_i^k) at genus 13, rank 4: noncommuting monodromy
        out, code = run_main(capsys, "surface", "--input", str(GOLDEN / "surface_twisted_g13r4.json"))
        assert code == 0
        assert out == (GOLDEN / "surface_twisted_g13r4.out.json").read_text()

    def test_surface_signs_text_bytes(self, capsys):
        # sign flips at genus 2, rank 2: torsion in both H^1 and H^2
        out, code = run_main(capsys, "surface", "--input", str(GOLDEN / "surface_signs_g2r2.json"))
        assert code == 0
        assert out == (GOLDEN / "surface_signs_g2r2.txt").read_text()

    def test_global_trivial_g2r3_json_bytes(self, capsys):
        # 27 blocks sharing one 12x12 omega: the emitter reuses its text
        out, code = run_main(capsys, "global", "--input", str(GOLDEN / "global_trivial_g2r3.json"))
        assert code == 0
        assert out == (GOLDEN / "global_trivial_g2r3.out.json").read_text()

    def test_selfcheck_bytes_and_exit(self, capsys):
        out, code = run_main(capsys, "selfcheck", "--input", str(GOLDEN / "selfcheck.json"))
        assert code == 0
        assert out == (GOLDEN / "selfcheck.out.json").read_text()

    def test_repeat_runs_identical(self, capsys):
        first, _ = run_main(capsys, "global", "--input", str(GOLDEN / "global_unit_quarter.json"))
        second, _ = run_main(capsys, "global", "--input", str(GOLDEN / "global_unit_quarter.json"))
        assert first == second


GLOBAL_SPECS = sorted(
    p.name
    for p in GOLDEN.glob("*.json")
    if p.name.startswith(("global_", "bunt_")) and not p.name.endswith(".out.json")
)


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
        for spec in sorted(GOLDEN.glob("*.json")):
            if spec.name.endswith(".out.json"):
                continue
            task = json.loads(spec.read_text())["task"]
            out, code = run_main(capsys, task, "--input", str(spec), "--format", "json")
            assert code == 0, spec.name
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
                zeroed.append((spec.name, task))
        assert {task for _, task in zeroed} == {"local", "surface", "global", "bunt"}
        assert len(zeroed) == 9

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

    def test_genus_24_shear_bunt_finishes(self, capsys):
        # the benchmark's shear job at genus 24, rank 4: the Heisenberg count's
        # integer Smith form of omega grew past 6000-bit entries here and did
        # not finish; elimination mod N keeps every entry below N
        out, code = run_main(capsys, "bunt", "--input", str(INPUTS / "bunt_shear_g24r4.json"))
        assert code == 0
        report = json.loads(out)
        blocks = report["blocks"]
        assert len(blocks) == 27
        assert all(b["omega"] == blocks[0]["omega"] for b in blocks)
        # every block repeats one omega, so one copy is validated
        slim = [blocks[0]] + [dict(b, omega=[]) for b in blocks[1:]]
        jsonschema.validate(dict(report, blocks=slim), REPORT_SCHEMAS["bunt"])

    def test_genus_48_shear_global_ranks_exactly(self, capsys):
        # the benchmark's shear job at genus 48, rank 4, as a global job on one
        # component: a rank mod 2^61 - 1 falls short of the lift's rank here,
        # and a dense integer elimination of the 380 x 380 block took about 1.2 s
        out, code = run_main(capsys, "global", "--input", str(INPUTS / "global_shear_g48r4.json"))
        assert code == 0
        (block,) = json.loads(out)["blocks"]
        assert block["radical_rank"] == 188
        assert block["block_dim"] == 6319748715279270675921934218987893281199411530039296

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

    def test_non_unimodular_monodromy(self, capsys, tmp_path):
        spec = base_global_spec(surface={"genus": 1, "rank": 1, "monodromy": [[[2]], [[1]]]})
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        assert json.loads(out)["code"] == "non_unimodular"

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
        spec = base_global_spec(
            surface={"genus": 1, "rank": 2, "monodromy": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]},
            level={"c_matrix": [[1, 0], [0, 0]], "zeta": "1/3"},
        )
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, spec))
        assert code == 2
        assert json.loads(out)["code"] == "not_invariant"

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
        # a list of same-keyed dicts is written from one template
        assert cli._dumps(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("records", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["float", "shared float", "int key", "nested float"])
    def test_record_lists_raise_type_error_like_one_record(self, records, bad):
        # the template and the generic path, one record, reject the same values
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
        # every depth's indent is built on demand; no table caps the depth
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

    def test_shared_omega_is_encoded_once(self, monkeypatch):
        spec = cli.JobSpec({
            "task": "global",
            "surface": {"genus": 4, "rank": 4},
            "level": {"c_matrix": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                      "zeta": "1/4"},
        })
        report = cli._run_global(spec)
        blocks = report["blocks"]
        omega = blocks[0]["omega"]
        assert len(blocks) == 81 and len(omega) == 32
        assert all(b["omega"] is omega for b in blocks)
        encoded = []

        def counting(text):
            encoded.append(text)
            return json.encoder.encode_basestring_ascii(text)

        monkeypatch.setattr(cli, "_encode_str", counting)
        out = cli._dumps(report)
        assert out == json.dumps(report, indent=2) + "\n"
        # every string once, except omega's 32 x 32 entries and the 5 block
        # keys, which the blocks' one template writes once, not 81 times
        assert len(blocks[0]) == 5
        assert len(encoded) == count_strings(report) - 80 * 32 * 32 - 80 * 5

    def test_level_wide_block_fields_are_encoded_once(self, monkeypatch):
        # omega, radical_rank and block_dim are the same objects in every
        # block, so _encode sees each once; component and pi2_character, the
        # fields that vary, are joined, never encoded value by value
        spec = cli.JobSpec({
            "task": "global",
            "surface": {"genus": 2, "rank": 3},
            "level": {"c_matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]], "zeta": "1/4"},
        })
        report = cli._run_global(spec)
        blocks = report["blocks"]
        assert len(blocks) == 27
        seen = []  # the values _encode receives as block fields
        inside = [False]
        encode = cli._encode

        def spy(value, depth, *args):
            if value is blocks:
                inside[0] = True
                encode(value, depth, *args)
                inside[0] = False
                return
            if inside[0] and depth == 3:  # report, blocks, block, field
                seen.append(value)
            encode(value, depth, *args)

        monkeypatch.setattr(cli, "_encode", spy)
        out = cli._dumps(report)
        assert out == json.dumps(report, indent=2) + "\n"
        assert len({tuple(b["component"]) for b in blocks}) == 27
        assert len({tuple(b["pi2_character"]) for b in blocks}) > 1
        assert len(seen) == 3 and seen[0] is blocks[0]["omega"]
        assert seen[1:] == [blocks[0]["radical_rank"], blocks[0]["block_dim"]]


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

        numerators = gerbe.omega_numerators

        def faulty(rho, pairing, gens):
            w = numerators(rho, pairing, gens)
            n = pairing.denominator
            assert n % 2 == 0 and len(gens) == 2
            if fault == "not antisymmetric":
                w[0][1] = w[0].get(1, 0) + 1
            else:  # W[0][0] = N/2 keeps 2 W[0][0] = 0 mod N, so only this check sees it
                w[0][0] = w[0].get(0, 0) + n // 2
            return w

        monkeypatch.setattr(gerbe, "omega_numerators", faulty)
        # base_global_spec's level: genus 1, rank 1, c = [[1]], zeta = 1/4
        rho = LatticeLocalSystem.trivial(1, 1)
        level = LevelInput(BilinearData(IntMatrix.identity(1), Frac1(1, 4)), rho)
        with pytest.raises(InvariantViolation, match=fault):
            gerbe.block_report(level)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, base_global_spec()))
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "invariant_violation" and fault in payload["message"]

    def test_h1_routes_disagree_exits_three(self, capsys, monkeypatch, tmp_path):
        # a fault in the replay that forms x, inside SnfResult.subquotient,
        # moves coker x off coker d0's H^1
        from qtorus import lattice

        replay = lattice._replay

        def faulty(ops, rows, inverse=False):
            out = replay(ops, rows, inverse)
            out[-1] = [out[-1][0] + 1, *out[-1][1:]]
            return out

        monkeypatch.setattr(lattice, "_replay", faulty)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, base_global_spec()))
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["code"] == "invariant_violation" and "H^1" in payload["message"]

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
    # NamedTuples and plain classes that refuse assignment themselves

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
            BilinearData, GradedObject, LatticeLocalSystem, LevelInput, SurfaceGroup, block_report,
            checked_classes, cohomology_presentations, polarize, quad_from_bilinear,
            standard_refinement, triangulate,
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
        cocycle = checked_classes(pres.h1.all_gens(), t, rho)[0]
        return [
            pres.triple.h1, pres.snf0, pres.h1, SurfaceGroup(1), pres.complex, pres, level, quad,
            polarize(quad), standard_refinement(quad), GradedObject(2, {(0, 1): 1}),
            report.blocks[0], report, cocycle.cochain, cocycle, t.triangles[0],
            t.triangles[0].faces[0], SelfCheckResult(1, 0, 0),
        ]

    def test_instances_refuse_assignment(self):
        objects = self.instances()
        assert len({type(obj) for obj in objects}) == 18
        for obj in objects:
            cls = type(obj)
            names = getattr(cls, "_fields", None) or [n for n in cls.__slots__ if n != "__dict__"]
            assert names, cls.__name__
            for name in names:
                before = getattr(obj, name)
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                assert getattr(obj, name) is before, (cls.__name__, name)
