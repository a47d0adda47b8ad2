import io
import json
from pathlib import Path

import jsonschema
import pytest

from qtorus import ERROR_SCHEMA, REPORT_SCHEMAS
from qtorus import cli

GOLDEN = Path(__file__).parent / "golden"


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

    def test_selfcheck_bytes_and_exit(self, capsys):
        out, code = run_main(capsys, "selfcheck", "--input", str(GOLDEN / "selfcheck.json"))
        assert code == 0
        assert out == (GOLDEN / "selfcheck.out.json").read_text()

    def test_repeat_runs_identical(self, capsys):
        first, _ = run_main(capsys, "global", "--input", str(GOLDEN / "global_unit_quarter.json"))
        second, _ = run_main(capsys, "global", "--input", str(GOLDEN / "global_unit_quarter.json"))
        assert first == second


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


class TestTripwire:
    def test_selfcheck_failure_exits_three(self, capsys, monkeypatch):
        from qtorus.selfcheck import SelfCheckResult

        def broken(seed):
            return SelfCheckResult(seed=seed, cases=144, agreements=143, mismatches=({"cell": "x"},))

        monkeypatch.setattr(cli, "run_selfcheck", broken)
        out, code = run_main(capsys, "selfcheck")
        assert code == 3
        assert json.loads(out)["ok"] is False

    def test_invariant_violation_exits_three(self, capsys, monkeypatch, tmp_path):
        from qtorus.errors import InvariantViolation

        def boom(*args, **kwargs):
            raise InvariantViolation("internal disagreement")

        monkeypatch.setattr(cli, "block_report", boom)
        out, code = run_main(capsys, "global", "--input", write_spec(tmp_path, base_global_spec()))
        assert code == 3
        payload = json.loads(out)
        assert payload["code"] == "invariant_violation"
