"""Command-line driver: configs, exit codes, deterministic reports."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from duality_lab import cli

FAST_MC = {"n_paths": 400, "t": 0.2, "dt": 0.01}


def run_cli(tmp_path, command, config=None, extra=()):
    argv = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    argv += list(extra)
    return cli.main(argv)


class TestExitCodes:
    def test_check_algebra_passes(self, tmp_path):
        assert run_cli(tmp_path, "check-algebra", {"order": 8, "finite_N": 6}) == 0

    def test_check_exact_passes(self, tmp_path):
        cfg = {"rational_N_max": 5, "float_N_max": 8, "self_dual_N_max": 4}
        assert run_cli(tmp_path, "check-exact", cfg) == 0

    def test_check_pointwise_passes(self, tmp_path):
        assert run_cli(tmp_path, "check-pointwise", {"max_degree": 4}) == 0

    def test_run_mc_passes(self, tmp_path):
        assert run_cli(tmp_path, "run-mc", FAST_MC) == 0

    def test_reproduce_examples_always_zero(self, tmp_path):
        assert run_cli(tmp_path, "reproduce-examples") == 0

    def test_unknown_key_is_config_error(self, tmp_path):
        assert run_cli(tmp_path, "run-mc", {"bogus": 1}) == 2

    def test_non_scalar_value_is_config_error(self, tmp_path):
        assert run_cli(tmp_path, "run-mc", {"n_paths": [1, 2]}) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert (
            cli.main(["run-mc", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
            == 2
        )

    def test_seed_flag_rejected_without_seed_key(self, tmp_path):
        assert run_cli(tmp_path, "reproduce-examples", None, extra=["--seed", "5"]) == 2

    def test_runtime_failure_is_one(self, tmp_path):
        cfg = dict(FAST_MC)
        cfg["experiment"] = "wf-vs-moran"
        cfg["frozen"] = "1,1"  # does not sum to N=3
        assert run_cli(tmp_path, "run-mc", cfg) == 1

    @pytest.mark.parametrize("experiment", ["heterozygosity", "wf-vs-moran", "wf-moment-vs-kingman"])
    def test_start_outside_the_domain_is_runtime_failure(self, tmp_path, experiment, capsys):
        # a frequency of 1.7 used to give a report with a negative oracle
        # heterozygosity; now no path is drawn and no report written
        cfg = dict(FAST_MC, experiment=experiment, x0=1.7)
        assert run_cli(tmp_path, "run-mc", cfg) == 1
        assert "outside the domain" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()


class TestConfigTypes:
    """Each config value must have the JSON type of its default; others exit 2."""

    @pytest.mark.parametrize(
        "command, text",
        [
            ("run-mc", '{"n_paths": "many"}'),
            ("run-mc", '{"n_paths": 400.9}'),
            ("run-mc", '{"antithetic": "false"}'),
            ("run-mc", '{"x0": null}'),
            ("check-algebra", '{"order": true}'),
            ("check-exact", '{"tolerance": "inf"}'),
            ("check-exact", '{"tolerance": Infinity}'),
            ("check-exact", '{"tolerance": NaN}'),
            ("reproduce-examples", '{"t": 1e400}'),
            pytest.param("reproduce-examples", '{"t": 1' + "0" * 400 + "}", id="reproduce-examples-int-beyond-float"),
            ("reproduce-examples", '{"d": 3.0}'),
            ("check-pointwise", '{"x_grid": 0.5}'),
        ],
    )
    def test_wrong_type_is_config_error(self, tmp_path, capsys, command, text):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_for_float_key_runs_as_float(self, tmp_path):
        assert run_cli(tmp_path, "reproduce-examples", {"t": 1}) == 0
        header = (tmp_path / "out" / "report.csv").read_text().splitlines()[0]
        assert '"t":1.0' in header
        cfg_path = tmp_path / "config.json"
        assert type(cli.resolve_config("reproduce-examples", str(cfg_path), None)["t"]) is float

    def test_failed_row_exits_one_with_report(self, tmp_path):
        cfg = dict(FAST_MC, tolerance_multiplier=0.0, bias_budget_dt_multiple=0.0)
        assert run_cli(tmp_path, "run-mc", cfg) == 1
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert lines[2].endswith(",false")


class TestDeterminism:
    def test_run_mc_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(FAST_MC))
        assert cli.main(["run-mc", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run-mc", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.csv").read_bytes() == (tmp_path / "b" / "report.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(FAST_MC))
        cli.main(["run-mc", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        cli.main(["run-mc", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "7"])
        assert (tmp_path / "a" / "report.csv").read_bytes() != (tmp_path / "b" / "report.csv").read_bytes()

    def test_reproduce_examples_json_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            cli.main(["reproduce-examples", "--out", str(tmp_path / name), "--format", "json"])
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()


class TestReportShape:
    def test_csv_header_and_config_line(self, tmp_path):
        run_cli(tmp_path, "reproduce-examples")
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "id,closed_form_value,oracle_value,abs_diff"
        assert len(lines) == 6  # header comment + columns + four rows

    def test_csv_floats_carry_17_significant_digits(self, tmp_path):
        import csv as csvmod
        import io

        run_cli(tmp_path, "run-mc", FAST_MC)
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        header, data = next(csvmod.reader(io.StringIO(lines[1]))), next(csvmod.reader(io.StringIO(lines[2])))
        mean = data[header.index("lhs_mean")]
        assert float(mean) == float(format(float(mean), ".17g"))
        assert len(mean.replace(".", "").replace("-", "").lstrip("0")) >= 15

    def test_json_mirrors_columns(self, tmp_path):
        run_cli(tmp_path, "reproduce-examples", None, extra=["--format", "json"])
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["columns"] == cli.EXAMPLE_COLUMNS
        assert len(doc["rows"]) == 4
        ids = [r["id"] for r in doc["rows"]]
        assert ids == list(cli.RUNNERS and ("heterozygosity", "x2y-two-type", "d-type-product", "x2-product-d-type"))

    def test_run_log_written(self, tmp_path):
        run_cli(tmp_path, "check-algebra", {"order": 6, "finite_N": 4})
        log = (tmp_path / "out" / "run.log").read_text()
        assert "command=check-algebra" in log
        assert "config=" in log

    def test_entry_point_script(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "duality_lab.cli", "reproduce-examples", "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0


class TestResolveConfig:
    def test_defaults_used_without_file(self):
        cfg = cli.resolve_config("run-mc", None, None)
        assert cfg == cli.DEFAULTS["run-mc"]

    def test_file_plus_flag_priority(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"seed": 1}))
        cfg = cli.resolve_config("run-mc", str(cfg_path), 99)
        assert cfg["seed"] == 99

    def test_rejects_non_object(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            cli.resolve_config("run-mc", str(cfg_path), None)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FLOAT_TOL = 1e-12


def _float_or_none(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


class TestGoldenReports:
    """Default reports against the CSVs in ``tests/golden``.

    The golden files were written by ``duality-lab <command> --out <dir>``
    at the defaults with the dense-generator code.  The sparse generators
    sum a row's diagonal and the products ``K D`` in another order, so
    residual cells may move by a few ulps: float cells must agree within
    1e-12, every other cell (and the ``passed`` column) exactly.
    """

    @pytest.mark.parametrize("command", ["check-algebra", "check-exact", "check-pointwise", "reproduce-examples"])
    def test_default_report_matches_golden(self, tmp_path, command):
        assert cli.main([command, "--out", str(tmp_path / "out")]) == 0
        got = (tmp_path / "out" / "report.csv").read_text().splitlines()
        want = (GOLDEN / f"{command}.csv").read_text().splitlines()
        assert got[0] == want[0]  # the config comment
        got_rows = list(csv.reader(got[1:]))
        want_rows = list(csv.reader(want[1:]))
        assert got_rows[0] == want_rows[0]
        assert len(got_rows) == len(want_rows)
        passed = want_rows[0].index("passed") if "passed" in want_rows[0] else None
        for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
            assert len(got_row) == len(want_row)
            for col, (g, w) in enumerate(zip(got_row, want_row)):
                gf, wf = _float_or_none(g), _float_or_none(w)
                if col == passed or gf is None or wf is None:
                    assert g == w, (want_row, got_row)
                else:
                    assert abs(gf - wf) <= GOLDEN_FLOAT_TOL, (want_row, got_row)


class TestGoldenRunMcReports:
    """``run-mc`` reports at 2,000 paths against ``tests/golden/run-mc-*.csv``.

    Every path draws from its own stream ``(seed, i)`` and the estimator
    promises the same floats whatever the block layout or loop structure,
    so these files must match byte for byte, with no float tolerance.
    """

    @pytest.mark.parametrize(
        "name, config",
        [
            ("heterozygosity", {"experiment": "heterozygosity", "n_paths": 2000}),
            ("wf-vs-moran", {"experiment": "wf-vs-moran", "n_paths": 2000}),
            ("wf-moment-vs-kingman", {"experiment": "wf-moment-vs-kingman", "n_paths": 2000}),
            (
                "heterozygosity-antithetic",
                {"experiment": "heterozygosity", "n_paths": 2000, "antithetic": True},
            ),
        ],
    )
    def test_report_matches_golden_bytes(self, tmp_path, name, config):
        assert run_cli(tmp_path, "run-mc", config) == 0
        got = (tmp_path / "out" / "report.csv").read_bytes()
        assert got == (GOLDEN / f"run-mc-{name}.csv").read_bytes()
