"""CLI contract: parsing precedence, record formats, exit codes."""

import ast
import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import opindex
from opindex import scattering, toeplitz, witten
from opindex.cli import COMMANDS, ResultRecord, main, parse_config, run
from opindex.constants import HALF_BOUND_TOL


def test_public_names_are_used_by_the_library():
    # an exported name must be used by library code (a def or class statement
    # is not a use), so a route that only tests reach cannot be exported
    package = Path(opindex.__file__).parent
    used = set()
    for module in package.glob("*.py"):
        if module.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(opindex.__all__) - used) == []


def test_every_constant_is_read_by_the_library():
    # the constants table lists the tolerances the library applies, so a
    # value no other module reads, and conventions() does not report, goes
    package = Path(opindex.__file__).parent
    table = ast.parse((package / "constants.py").read_text(encoding="utf-8"))
    assigned = {target.id for node in table.body if isinstance(node, ast.Assign)
                for target in node.targets}
    trees = [ast.parse(module.read_text(encoding="utf-8"))
             for module in package.glob("*.py") if module.name != "constants.py"]
    trees += [node for node in table.body
              if isinstance(node, ast.FunctionDef) and node.name == "conventions"]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    public = {name for name in assigned if not name.startswith("_")}
    assert public and sorted(public - read) == []


def test_tracer_finds_every_wrapped_name():
    # the benchmark's tracer looks each wrapped function up by name, so a
    # renamed or deleted library function breaks its traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.build_tracer(opindex)
    tracer.install()
    try:
        _, code = opindex.cli.run(parse_config(["compose-check", "--points", "256"]))
        _, scan_code = opindex.cli.run(parse_config(["scan", "--depths", "0.5"]))
    finally:
        tracer.uninstall()
    assert code == scan_code == 0
    assert tracer.stats["witten.discretize_dirac.calls"] >= 1
    assert tracer.stats["witten.check_composition.calls"] == 1
    for name in ("transfer_matrices", "scattering_matrix", "find_resonant_depth",
                 "bound_states", "levinson_check", "exp_resample", "corrected_index"):
        assert tracer.stats[f"scattering.{name}.calls"] >= 1, name
    # written by the hook that binds scattering_matrix's and the sweep's v
    assert "scattering.scattering_matrix.refine_rounds" in tracer.stats


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


def test_import_loads_no_heavy_scipy_subpackage():
    # every command pays for what `import opindex.cli` loads, so no scipy
    # subpackage is on the import path; scipy.linalg is loaded by the first
    # eigensolve, which only the heat-trace and suspension commands make
    src = Path(opindex.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    heavy = {"scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.fft",
             "scipy.special"}

    def loaded(runs):
        # one fresh interpreter: run each argv through main, then list modules
        probe = (
            "import os, sys\n"
            "from opindex.cli import main\n"
            f"codes = [main(argv + ['--out', os.devnull]) for argv in {runs!r}]\n"
            "print(*codes)\n"
            "print(*sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        codes, modules = done.stdout.splitlines()
        assert codes.split() == ["0"] * len(runs)
        return heavy & set(modules.split())

    assert sorted(loaded([])) == []
    levinson_side = [["toeplitz-example"], ["toeplitz-winding"], ["levinson"],
                     ["sigma-index"], ["corrected-index"], ["scan"]]
    assert sorted(loaded(levinson_side)) == []
    assert sorted(loaded([["compose-check", "--points", "256"]])) == ["scipy.linalg"]
    # scipy is reached only through linalg.py, and there only inside the
    # kernels that call LAPACK or BLAS
    package = Path(opindex.__file__).parent
    for module in package.glob("*.py"):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        if module.name == "linalg.py":
            assert not any(_imports_scipy(node) for node in tree.body)
        else:
            assert not any(_imports_scipy(node) for node in ast.walk(tree)), module.name


class TestParsing:
    def test_defaults_documented_grid(self):
        config = parse_config(["witten-estimate", "--mu", "1.0"])
        assert config.params["half_width"] == 40.0
        assert config.params["points"] == 1024
        assert config.params["mu"] == 1.0
        assert config.output_format == "table"

    def test_bad_numeric_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["witten-estimate", "--mu", "abc"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["witten-estimate", "--frobnicate", "1"])
        assert excinfo.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["--format", "json"])
        assert excinfo.value.code == 2

    def test_config_file_provides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mu = 0.5\npoints = 512\n")
        config = parse_config(["--config", str(path), "witten-estimate"])
        assert config.params["mu"] == 0.5
        assert config.params["points"] == 512

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mu = 0.5\n")
        config = parse_config(
            ["--config", str(path), "witten-estimate", "--mu", "1.7"]
        )
        assert config.params["mu"] == 1.7

    def test_json_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"mu": 0.25}))
        config = parse_config(["--config", str(path), "witten-estimate"])
        assert config.params["mu"] == 0.25

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("wavelength = 3\n")
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["--config", str(path), "witten-estimate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("line", ["t = ,", "theta-tags = foo",
                                      "theta-tags = erf,erf"])
    def test_bad_list_in_config_file_exits_2(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["--config", str(path), "ptf-check"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command, values", [
        ("ptf-check", {"t": []}),
        ("scan", {"depths": []}),
        ("ptf-check", {"theta_tags": []}),
        ("ptf-check", {"t": [0.5, "x"]}),
    ], ids=["empty-times", "empty-depths", "empty-tags", "bad-time"])
    def test_bad_json_list_exits_2(self, tmp_path, monkeypatch, command, values):
        # JSON lists go through the flags' comma-list checks, before any run
        def runs(*args):
            raise AssertionError("a command ran on a bad config list")

        monkeypatch.setattr(opindex.cli, "run", runs)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(values))
        assert main(["--config", str(path), command]) == 2

    def test_json_list_runs_like_flag(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"theta_tags": ["erf"], "t": [0.5, 1]}))
        grid = ["--nt", "24", "--nx", "24", "--t-half-width", "10",
                "--x-half-width", "8"]
        from_file = parse_config(["--config", str(path), "ptf-check", *grid])
        from_flags = parse_config(
            ["ptf-check", "--theta-tags", "erf", "--t", "0.5,1", *grid]
        )
        assert from_file.params == from_flags.params
        (first, code), (second, flag_code) = run(from_file), run(from_flags)
        assert code == flag_code == 0
        assert first.payload_json() == second.payload_json()

    def test_theta_tags_echoed_as_given(self):
        params = parse_config(["ptf-check", "--theta-tags", "erf, logistic"]).params
        assert params["theta_tags"] == "erf, logistic"
        assert parse_config(["ptf-check"]).params["theta_tags"] == "logistic,erf"

    def test_plain_parses_build_the_tree_once(self, monkeypatch):
        builds = []
        build = opindex.cli._build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(opindex.cli, "_build_parser", counting)
        opindex.cli._shared_parser.cache_clear()
        parse_config(["levinson"])
        parse_config(["scan", "--depths", "1,2"])
        assert len(builds) == 1

    def test_config_defaults_do_not_leak_into_the_next_parse(self, tmp_path):
        # set_defaults changes the tree it is called on, so a config parse
        # must not change the tree that plain parses share
        path = tmp_path / "run.cfg"
        path.write_text("well_depth = 3\n")
        assert parse_config(["--config", str(path), "levinson"]).params["well_depth"] == 3.0
        assert parse_config(["levinson"]).params["well_depth"] == 2.0

    @pytest.mark.parametrize("command, key", [("scan", "depths"), ("ptf-check", "t")])
    def test_list_default_is_not_shared(self, command, key):
        first = parse_config([command]).params[key]
        default = list(first)
        first.append(99.0)
        assert parse_config([command]).params[key] == default

    def test_config_file_is_closed(self, tmp_path, monkeypatch):
        # an unclosed file warns from its finaliser, where the warning cannot
        # propagate; it reaches the unraisable hook instead
        path = tmp_path / "run.cfg"
        path.write_text("mu = 0.5\n")
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            config = parse_config(["--config", str(path), "witten-estimate"])
            gc.collect()
        assert config.params["mu"] == 0.5
        assert [str(u.exc_value) for u in unraisable] == []


def _float_flags() -> list[tuple[str, str]]:
    _, commands = opindex.cli._build_parser()
    finite_types = (opindex.cli._finite_float, opindex.cli._float_list)
    return [(command, action.option_strings[0])
            for command, sub in commands.items() for action in sub._actions
            if action.type in finite_types]


FLOAT_FLAGS = _float_flags()


def test_float_flags_cover_every_command_with_one():
    flagged = {(command, flag) for command, flag in FLOAT_FLAGS}
    assert {("levinson", "--well-depth"), ("scan", "--depths"),
            ("witten-estimate", "--mu"), ("ptf-check", "--t")} <= flagged
    assert {command for command, _ in FLOAT_FLAGS} == set(COMMANDS) - {
        "toeplitz-example", "toeplitz-winding"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS,
                         ids=[f"{c} {f}" for c, f in FLOAT_FLAGS])
def test_non_finite_float_flag_exits_2(monkeypatch, capsys, command, flag, value):
    # refused while parsing: levinson --well-depth inf used to crash with a
    # math domain error
    def runs(*args):
        raise AssertionError("a command ran on a non-finite value")

    monkeypatch.setattr(opindex.cli, "run", runs)
    assert main([command, f"{flag}={value}"]) == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["well_depth = nan", '{"well_depth": Infinity}'])
def test_non_finite_config_value_exits_2(tmp_path, monkeypatch, text):
    def runs(*args):
        raise AssertionError("a command ran on a non-finite value")

    monkeypatch.setattr(opindex.cli, "run", runs)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["--config", str(path), "levinson"]) == 2


def test_every_flag_changes_params():
    # a flag that parses but leaves its parameter where it was does nothing,
    # as a store_true flag whose default is already True did
    for command in COMMANDS:
        for key, default in parse_config([command]).params.items():
            argv = [command, "--" + key.replace("_", "-")]
            if isinstance(default, bool):
                pass
            elif isinstance(default, float):
                argv.append(repr(default + 0.5))
            elif isinstance(default, int):
                argv.append(str(default + 2))
            elif isinstance(default, list):
                argv.append("0.5")
            else:
                assert isinstance(default, str), (command, key, default)
                argv.append("zz")
            try:
                params = parse_config(argv).params
            except SystemExit as exc:
                assert exc.code == 2, argv
                continue
            assert params[key] != default, argv


class TestRecords:
    def test_json_round_trip(self):
        record, _ = run(parse_config(["toeplitz-example", "--n", "16"]))
        clone = ResultRecord.from_json(record.to_json())
        assert clone.payload() == record.payload()

    def test_json_determinism(self):
        first, _ = run(parse_config(["toeplitz-example", "--n", "16"]))
        second, _ = run(parse_config(["toeplitz-example", "--n", "16"]))
        assert first.payload_json() == second.payload_json()

    def test_records_carry_conventions(self):
        record, _ = run(parse_config(["toeplitz-winding", "--k", "1"]))
        assert "levinson_convention" in record.conventions
        assert record.conventions["winding_sign"] == -1

    def test_csv_has_header_and_17_digits(self):
        record, _ = run(parse_config(["sigma-index", "--branch", "antidiagonal"]))
        lines = record.to_csv().splitlines()
        assert lines[0].split(",")[0] == "branch"
        value = [tok for tok in lines[1].split(",")][1]
        assert value == format(0.5, ".17g")

    def test_csv_complex_as_re_im_pair(self):
        record, _ = run(parse_config(["toeplitz-example", "--n", "16"]))
        header = record.to_csv().splitlines()[0].split(",")
        assert "fedosov_value_re" in header
        assert "fedosov_value_im" in header

    def test_table_render(self):
        record, _ = run(parse_config(["toeplitz-winding", "--k", "2"]))
        text = record.to_table()
        assert "winding = 2" in text
        assert "convention" in text


class TestExitCodes:
    def test_toeplitz_example_accepted(self):
        record, code = run(parse_config(["toeplitz-example", "--n", "64"]))
        assert code == 0
        assert record.results["index"] == -1
        assert record.results["defect_identity_1_exact"]
        assert record.results["defect_identity_2_exact"]

    def test_toeplitz_example_at_scale(self, monkeypatch):
        # at n = 4096 the padded window has 24577 sites: one dense complex
        # (2w+1)^2 matrix would take 9.7 GB, an interior (2n+1)^2 block 1.1 GB
        def no_dense(*args):
            raise AssertionError("dense block formed on the toeplitz-example path")

        monkeypatch.setattr(toeplitz.ShiftLatticeOperator, "interior", no_dense)
        tracemalloc.start()
        try:
            record, code = run(parse_config(["toeplitz-example", "--n", "4096"]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert record.results["index"] == -1
        assert record.results["defect_identity_1_exact"]
        assert record.results["defect_identity_2_exact"]
        assert peak < 64 * 2**20

    def test_levinson_accepted(self):
        record, code = run(parse_config(["levinson", "--well-depth", "2"]))
        assert code == 0
        assert record.residuals["levinson"] <= 0.05
        rows = record.curves["scattering"]["rows"]
        # the curve of K_GRID, which corrected-index samples too
        assert rows[0][0] == 1e-3
        assert rows[-1][0] == 2000.0

    def test_levinson_strict_residual_fails_with_1(self):
        _, code = run(parse_config(
            ["levinson", "--well-depth", "2", "--max-residual", "1e-9"]
        ))
        assert code == 1

    def test_inconclusive_exits_3(self):
        # a schedule entirely beyond the grid ceiling cannot converge
        _, code = run(parse_config(
            ["witten-estimate", "--points", "256", "--half-width", "20",
             "--t0", "50", "--t-top", "5000", "--t-count", "9"]
        ))
        assert code == 3

    def test_out_of_range_value_exits_2(self):
        # odd grid sizes are outside the documented admissible range
        record, code = run(parse_config(["witten-estimate", "--points", "257"]))
        assert code == 2
        assert record.results["error_kind"] == "usage"

    def test_integration_error_exits_1(self, monkeypatch):
        # every transfer sweep leaves some rounding drift in det T
        monkeypatch.setattr(scattering, "TRANSFER_DET_TOL", 0.0)
        record, code = run(parse_config(["levinson"]))
        assert code == 1
        assert record.results["error_kind"] == "IntegrationError"
        assert "at k = " in record.results["error"]

    def test_deep_well_levinson_balance_exits_0(self):
        # K_GRID runs to k = 2000, so the c / k tail fit of the winding
        # starts at k = 1000, where V / k^2 = 1e-4 at depth 100
        record, code = run(parse_config(["levinson", "--well-depth", "100"]))
        assert code == 0
        assert record.results["n_bound"] == 7
        assert record.residuals["levinson"] <= 1e-5

    def test_levinson_just_above_threshold_exits_0(self):
        # 2 sqrt(2.5) / pi = 1.007: the second level is bound by almost nothing
        record, code = run(parse_config(["levinson", "--well-depth", "2.5"]))
        assert code == 0
        assert record.results["n_bound"] == 2
        assert record.results["resonance_flag"] == 0

    def test_level_below_curve_resolution_exits_1(self):
        # 4e-5 above the resonance the second level decays like exp(-1e-4 x):
        # counted, and the threshold is generic (psi'/psi = -9.9e-5), but
        # the level's phase step lies at k ~ 1e-4, below the curve's
        # k >= 1e-3, so the winding misses about half of it
        record, code = run(parse_config(["levinson", "--well-depth", "2.4675"]))
        assert code == 1
        assert (record.results["n_bound"], record.results["resonance_flag"]) == (2, 0)
        assert record.results["resonance_evidence"] == pytest.approx(-9.9e-5, rel=0.01)
        assert record.residuals["levinson"] == pytest.approx(0.47, abs=0.01)

    @pytest.mark.parametrize("depth, n_bound", [
        (2.46, 1), (2.475, 2), (9.86, 2), (9.88, 3), (22.2, 3), (22.21, 4), (39.47, 4),
    ])
    def test_threshold_near_resonance_exits_0(self, depth, n_bound):
        # within 1e-2 of the resonances (n pi / 2)^2, n = 1 to 4, the
        # threshold scale |psi'/psi| lies about inside k in [1e-3, 1e-2],
        # where a fit of |t(k)| read a guard band (2.46, 2.475, 9.86, 9.88,
        # 39.47) or a half-bound state (22.2, 22.21); the zero-energy
        # solution reads a generic threshold
        record, code = run(parse_config(["levinson", "--well-depth", str(depth)]))
        assert code == 0
        assert (record.results["n_bound"], record.results["resonance_flag"]) == (n_bound, 0)
        assert 1e-3 < abs(record.results["resonance_evidence"]) < 2e-2

    @pytest.mark.parametrize("depth, n_bound", [
        (2.4674, 1), (2.4674011, 1), (9.8696, 2), (22.2066, 3),
    ])
    def test_virtual_state_below_curve_resolution_exits_1(self, depth, n_bound):
        # just below the resonances (pi / 2)^2, pi^2 and (3 pi / 2)^2 the
        # threshold is generic, a virtual state (psi'/psi > 0), but its
        # scale lies below the curve's k >= 1e-3, where the winding reads a
        # half-bound state (ROADMAP item 11); a fit of |t(k)| on that range
        # read one too, and the balance held
        record, code = run(parse_config(["levinson", "--well-depth", str(depth)]))
        assert code == 1
        assert (record.results["n_bound"], record.results["resonance_flag"]) == (n_bound, 0)
        assert HALF_BOUND_TOL < record.results["resonance_evidence"] < 1e-5
        assert record.residuals["levinson"] == pytest.approx(0.5, abs=0.01)

    def test_scan_virtual_state_below_curve_resolution_exits_1(self):
        # 2.7e-10 below the located resonance: the same unresolved virtual
        # state, on the row before the resonant one
        record, code = run(parse_config(["scan", "--depths", "2.4674011"]))
        assert code == 1
        rows = record.curves["scan"]["rows"]
        assert [row[3] for row in rows] == [0, 1]  # resonance_flag
        assert rows[0][4] == pytest.approx(0.5, abs=0.01)

    def test_scan_narrow_well_exits_0(self):
        # half-width 0.5: depth 10 lies just above the resonance pi^2
        record, code = run(parse_config(["scan", "--well-width", "0.5"]))
        assert code == 0
        rows = record.curves["scan"]["rows"]
        assert [row[1] for row in rows] == [1, 1, 1, 1, 2, 2, 1]  # n_bound
        assert record.residuals["worst_levinson"] <= 1e-4

    def test_scan_resonant_row_is_half_bound(self):
        # at the located resonant depth the second level is a half-bound
        # state: counted by the resonance flag, not as a bound state
        record, code = run(parse_config(["scan", "--depths", "2"]))
        assert code == 0
        depth, n_bound, _, flag = record.curves["scan"]["rows"][-1][:4]
        assert depth == record.results["resonant_depth"]
        assert (n_bound, flag) == (1, 1)

    def test_scan_to_depth_90_exits_0(self):
        record, code = run(parse_config(["scan", "--depths", "0.3,3,40,90"]))
        assert code == 0
        assert record.residuals["worst_levinson"] <= 1e-5

    def test_eigensolver_error_exits_1(self, monkeypatch):
        # the path split's windowed solves compute their vectors by dstein
        dstein = scipy.linalg.lapack.dstein

        def failing(*args):
            z, _ = dstein(*args)
            return z, 1

        monkeypatch.setattr(scipy.linalg.lapack, "dstein", failing)
        record, code = run(parse_config(["compose-check", "--points", "256"]))
        assert code == 1
        assert record.results["error_kind"] == "EigensolverError"
        assert "dstein" in record.results["error"]

    def test_construction_error_exits_1(self, monkeypatch):
        # the antidiagonal branch's index quadrature must land on 0 or 1/2;
        # 0.3 / (2 pi) = 0.048 lands on neither
        monkeypatch.setattr(scattering, "line_integral", lambda f: (0.3, 0.0))
        record, code = run(parse_config(["sigma-index", "--branch", "antidiagonal"]))
        assert code == 1
        assert record.results["error_kind"] == "ConstructionError"
        assert "not within 1e-3 of 0 or 1/2" in record.results["error"]

    @pytest.mark.parametrize("argv, first_allocation", [
        # 160000 suspension rows: 3 dense copies (the Gram matrix and its
        # eigenvectors, rounded up) of 410 GB each
        (["ptf-check", "--nt", "400", "--nx", "400"], "_gram"),
        # a 65536-point plane-wave form alone is a 69 GB dense matrix
        (["compose-check", "--points", "65536"], "_circulant"),
        (["witten-estimate", "--points", "65536"], "_circulant"),
    ], ids=["ptf-check", "compose-check", "witten-estimate"])
    def test_over_memory_budget_exits_2(self, monkeypatch, argv, first_allocation):
        # the guard must refuse before the first dense allocation is reached
        def allocates(*args):
            raise AssertionError(f"{first_allocation} reached past the memory guard")

        monkeypatch.setattr(witten, first_allocation, allocates)
        record, code = run(parse_config(argv))
        assert code == 2
        assert record.results["error_kind"] == "usage"
        assert "budget" in record.results["error"]

    @pytest.mark.parametrize("spare, expected", [(0, 0), (-1, 2)],
                             ids=["at-budget", "one-byte-short"])
    def test_suspension_budget_is_three_dense_copies(self, monkeypatch, spare,
                                                     expected):
        # 576 rows: the run fits a budget of exactly 3 x 576^2 complex
        # entries and is refused one byte below it
        monkeypatch.setattr(witten, "DENSE_BUDGET_BYTES",
                            3 * 576 * 576 * np.dtype(complex).itemsize + spare)
        record, code = run(parse_config(
            ["ptf-check", "--nt", "24", "--nx", "24", "--t-half-width", "10",
             "--x-half-width", "8", "--theta-tags", "logistic", "--t", "1"]
        ))
        assert code == expected
        if expected == 2:
            assert record.results["error_kind"] == "usage"
            assert "3 x 576^2" in record.results["error"]

    def test_toeplitz_bands_over_budget_exit_2(self, monkeypatch):
        # one band of 6 n + 1 complex sites is 8.9 GiB at n = 1e8; the guard
        # must refuse before the first band is allocated
        def allocates(*args, **kwargs):
            raise AssertionError("a band was allocated past the memory guard")

        monkeypatch.setattr(toeplitz.ShiftLatticeOperator, "from_band",
                            classmethod(allocates))
        record, code = run(parse_config(["toeplitz-example", "--n", "100000000"]))
        assert code == 2
        assert record.results["error_kind"] == "usage"
        assert "budget" in record.results["error"]

    @pytest.mark.parametrize("patch, symmetry", [
        ("theta", "theta(-s) = 1 - theta(s)"),
        ("bump", "Phi(-x) = conj Phi(x)"),
    ], ids=["shifted-theta", "k-odd-bump"])
    def test_time_reversal_breaking_input_exits_2(self, monkeypatch, patch, symmetry):
        # the CLI builds only logistic/erf profiles and Lorentzian bumps, so
        # the builders are swapped for a shifted logistic and an odd bump
        if patch == "theta":
            shifted = witten.ThetaProfile(
                evaluator=lambda t: 0.5 * (1.0 + np.tanh(t - 0.5)), tag="shifted"
            )
            monkeypatch.setitem(opindex.cli._THETA_PROFILES, "logistic", lambda: shifted)
        else:
            odd = witten.PerturbationProfile(evaluator=lambda x: x / (1.0 + x * x) ** 2)
            monkeypatch.setattr(witten.PerturbationProfile, "lorentzian",
                                classmethod(lambda cls, mu: odd))
        record, code = run(parse_config(
            ["ptf-check", "--nt", "24", "--nx", "24", "--t-half-width", "10",
             "--x-half-width", "8", "--theta-tags", "logistic"]
        ))
        assert code == 2
        assert record.results["error_kind"] == "usage"
        assert "time reversal" in record.results["error"]
        assert symmetry in record.results["error"]

    def test_main_writes_file(self, tmp_path, capsys):
        out = tmp_path / "record.json"
        code = main(["toeplitz-winding", "--k", "1", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["record"]["results"]["winding"] == 1
        assert capsys.readouterr().out == ""

    def test_main_usage_error(self):
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize("argv", [
        ["ptf-check", "--t", ","],
        ["ptf-check", "--theta-tags", ","],
        ["ptf-check", "--theta-tags", "foo"],
        ["ptf-check", "--theta-tags", "logistic,logistic"],
        ["scan", "--depths", ","],
    ], ids=["empty-times", "empty-tags", "unknown-tag", "repeated-tag", "empty-depths"])
    def test_bad_comma_list_exits_2(self, monkeypatch, argv):
        # refused while parsing, before any command runs
        def runs(*args):
            raise AssertionError("a command ran on a bad comma list")

        monkeypatch.setattr(opindex.cli, "run", runs)
        assert main(argv) == 2

    def test_scan_zero_width_exits_2(self):
        # the resonance bracket (pi / 4a)^2 would divide by the width
        record, code = run(parse_config(["scan", "--well-width", "0"]))
        assert code == 2
        assert record.results["error"] == "support radius must be positive"


class TestCommandResults:
    def test_sigma_index_general_branch(self):
        record, code = run(parse_config(
            ["sigma-index", "--branch", "general", "--theta-angle", "1.0"]
        ))
        assert code == 0
        assert record.results["sigma_index"] == pytest.approx(0.0, abs=1e-6)

    def test_witten_estimate_csv_curve(self):
        record, code = run(parse_config(
            ["witten-estimate", "--mu", "1.0", "--points", "256",
             "--half-width", "20", "--t-top", "8", "--format", "csv"]
        ))
        assert code == 0
        lines = record.to_csv().splitlines()
        assert "heat_trace.t" in lines[0]
        assert len(lines) >= 9  # header + schedule rows
        closed = record.results["closed_form"]
        assert closed == pytest.approx(0.5, abs=1e-8)
        # small grid biases the plateau to 2 arctan(20)/(2 pi)
        assert record.results["plateau"] == pytest.approx(0.484, abs=2e-3)

    @pytest.mark.parametrize("command, calls", [("scan", 7), ("corrected-index", 1)])
    def test_one_curve_per_well(self, command, calls, monkeypatch):
        # scan's six default depths and the resonance are seven wells; the
        # Levinson balance and the corrected index read each well's one curve
        sampled = []
        sample = scattering.scattering_matrix

        def spy(v, *args, **kwargs):
            sampled.append(v)
            return sample(v, *args, **kwargs)

        monkeypatch.setattr(scattering, "scattering_matrix", spy)
        _, code = run(parse_config([command]))
        assert code == 0
        assert len(sampled) == calls

    def test_corrected_index_command(self):
        record, code = run(parse_config(["corrected-index", "--well-depth", "2"]))
        assert code == 0
        assert record.results["fredholm_index"] == record.results["n_bound"] == 1
        assert record.results["w_sigma"] == pytest.approx(0.5, abs=1e-6)

    def test_ptf_check_small_grid(self):
        record, code = run(parse_config(
            ["ptf-check", "--nt", "24", "--nx", "24", "--t-half-width", "10",
             "--x-half-width", "8", "--t", "0.5,1"]
        ))
        assert code == 0
        assert record.residuals["ptf_relative"] <= 0.1
        assert record.residuals["theta_spread"] <= 0.02
        assert len(record.curves["ptf"]["rows"]) == 2

    def test_compose_check_small_grid(self):
        record, code = run(parse_config(
            ["compose-check", "--points", "256", "--half-width", "20",
             "--max-residual", "0.05"]
        ))
        assert code == 0
        assert record.residuals["closed_form"] <= 1e-12
        assert record.residuals["path_splitting"] <= 1e-6

    @pytest.mark.parametrize("command", ["compose-check", "witten-estimate"])
    def test_heat_trace_solves_are_real(self, command, monkeypatch):
        # the Dirac operator and the Lorentzian bumps commute with
        # (Kf)_j = conj f_{-j}, so every solve on these paths is real symmetric:
        # full spectra through eigh, windows through the tridiagonal reduction
        dtypes, reductions = [], []
        eigh = scipy.linalg.eigh

        def spy(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return eigh(a, *args, **kwargs)

        def reduction_spy(name):
            routine = getattr(scipy.linalg.lapack, name)

            def reduce(*args, **kwargs):
                reductions.append(name)
                return routine(*args, **kwargs)

            return reduce

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        for name in ("dsytrd", "zhetrd"):
            monkeypatch.setattr(scipy.linalg.lapack, name, reduction_spy(name))
        record, code = run(parse_config([command, "--points", "256"]))
        assert code == 0
        assert dtypes and all(dtype == np.float64 for dtype in dtypes)
        assert "zhetrd" not in reductions
        assert ("dsytrd" in reductions) == (command == "compose-check")

    def test_scan_finds_first_resonance_of_wide_well(self):
        # the resonance of a well of half-width 1.5 is at (pi / 3)^2, below
        # the depths [2, 3] that a fixed search bracket would cover
        record, code = run(parse_config(["scan", "--well-width", "1.5", "--depths", "0.5"]))
        assert code == 0
        assert record.results["resonant_depth"] == pytest.approx((np.pi / 3.0) ** 2, rel=1e-13)
        assert record.curves["scan"]["rows"][-1][3] == 1  # resonance_flag

    def test_scan_single_depth(self):
        record, code = run(parse_config(["scan", "--depths", "2"]))
        assert code == 0
        rows = record.curves["scan"]["rows"]
        assert len(rows) == 2  # requested depth plus the located resonance
        assert record.results["resonant_depth"] == pytest.approx(
            (np.pi / 2.0) ** 2, abs=1e-6
        )
