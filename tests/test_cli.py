import json
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from rtkrylov import cli, presets
from rtkrylov.cli import main


def load_schema():
    with resources.files("rtkrylov").joinpath("schemas/report.schema.json").open() as fh:
        return json.load(fh)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_report(path):
    """report.json parsed as strict JSON: NaN and Infinity are rejected."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestSolve:
    def test_mono_solve_writes_artifacts(self, tmp_path):
        code = main(["solve", "--preset", "mono", "--ns", "50", "--nomega", "12",
                     "--rhs-one", "--tol", "1e-12", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "solution.csv")
        assert header == ["t", "mu", "nu", "I"]
        assert len(rows) == 50 * 12
        report = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(report, load_schema())
        assert report["converged"] is True
        assert report["kind"] == "solve"

    def test_surface_branches_split_at_mu_zero(self, tmp_path):
        # qualitative shape: the emergent (mu > 0) surface intensities differ
        # from the inflow-side (mu < 0) ones, which stay pinned at b
        code = main(["solve", "--preset", "mono", "--ns", "200", "--nomega", "12",
                     "--rhs-one", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "solution.csv")
        surface = [r for r in rows if float(r[0]) == 0.0]
        down = [float(r[3]) for r in surface if float(r[1]) < 0]
        up = [float(r[3]) for r in surface if float(r[1]) > 0]
        assert down == pytest.approx([1.0] * len(down))  # unit rows of A
        assert min(up) > 1.02

    def test_gamma_zero_single_iteration(self, tmp_path):
        code = main(["solve", "--preset", "mono", "--ns", "20", "--nomega", "4",
                     "--gamma-scale", "0", "--rhs-one", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["iterations"] == 1
        header, rows = read_csv(tmp_path / "solution.csv")
        values = [float(r[3]) for r in rows]
        assert values == pytest.approx([1.0] * len(values), rel=1e-14)

    def test_deterministic_reruns(self, tmp_path):
        args = ["solve", "--preset", "coherent", "--ns", "15", "--nomega", "4",
                "--nnu", "5", "--rhs-one"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a/solution.csv").read_bytes() == \
            (tmp_path / "b/solution.csv").read_bytes()
        assert (tmp_path / "a/report.json").read_bytes() == \
            (tmp_path / "b/report.json").read_bytes()

    def test_solve_2d_preset(self, tmp_path):
        code = main(["solve", "--preset", "aniso2d", "--nx", "6", "--ny", "6",
                     "--nomega", "8", "--rhs-one", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "solution.csv")
        assert header == ["x", "y", "mu", "nu", "I"]
        assert len(rows) == 36 * 8

    def test_nonconvergence_exit_code(self, tmp_path):
        code = main(["solve", "--preset", "mono", "--ns", "60", "--nomega", "12",
                     "--rhs-one", "--max-iter", "2", "--out", str(tmp_path)])
        assert code == 2

    def test_invalid_config_exit_code(self, tmp_path):
        assert main(["solve", "--preset", "mono", "--ns", "10,20",
                     "--out", str(tmp_path)]) == 1
        assert main(["solve", "--preset", "mono", "--nomega", "7",
                     "--out", str(tmp_path)]) == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"preset": "mono", "ns": "25", "nomega": "4", "rhs_one": True}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(cfg_path), "--ns", "30",
                     "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == 30 * 4  # flag wins over config file

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("solver", ["gmres", "bicgstab"])
    def test_overflowing_map_stops_as_breakdown(self, tmp_path, solver):
        # the first A apply overflows: both solvers stop at once with the zero
        # guess instead of iterating on nan to the limit
        code = main(["solve", "--preset", "mono", "--ns", "20", "--nomega", "8",
                     "--gamma-scale", "1e308", "--solver", solver, "--out", str(tmp_path)])
        assert code == 2
        report = read_report(tmp_path / "report.json")
        jsonschema.validate(report, load_schema())
        assert report["breakdown"] is True and report["converged"] is False
        assert report["iterations"] <= 1
        assert report["residual_history"] == [1.0]
        header, rows = read_csv(tmp_path / "solution.csv")
        assert {float(r[3]) for r in rows} == {0.0}

    @pytest.mark.filterwarnings("ignore")
    def test_non_finite_true_residual_written_as_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "apply_A", lambda problem, v: v * np.nan)
        code = main(["solve", "--preset", "mono", "--ns", "10", "--nomega", "4",
                     "--out", str(tmp_path)])
        assert code == 2
        report = read_report(tmp_path / "report.json")
        jsonschema.validate(report, load_schema())
        assert report["true_residual"] is None
        assert report["breakdown"] is True

    def test_non_finite_strength_exit_code(self, tmp_path):
        assert main(["solve", "--preset", "mono", "--ns", "10", "--nomega", "4",
                     "--gamma-scale", "nan", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_exit_code(self, tmp_path, tol):
        assert main(["solve", "--preset", "mono", "--ns", "10", "--nomega", "4",
                     "--tol", tol, "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flags", [["--threads", "2"], ["--solver", "foo"],
                                       ["--nx", "eight"]])
    def test_usage_error_exit_code(self, tmp_path, capsys, flags):
        assert main(["solve", "--preset", "mono", "--ns", "10", "--nomega", "4",
                     "--out", str(tmp_path)] + flags) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--dense-cap" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [{"tol": "x"}, {"nx": "eight"}, {"dense_cap": [50]},
                                     {"max_iter": 2.5}, {"nx": True}, {"nomega": [[4]]},
                                     {"nomega": [4.5]}, [1]])
    def test_wrong_config_value_type_exit_code(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        code = main(["solve", "--config", str(cfg_path), "--preset", "aniso2d",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_config_values_typed_like_flags(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"tol": 1, "nx": "6", "ny": 5, "restart": None}))
        assert main(["solve", "--config", str(cfg_path), "--preset", "aniso2d",
                     "--nomega", "4", "--rhs-one", "--out", str(tmp_path)]) == 0
        echo = json.loads((tmp_path / "report.json").read_text())["config"]
        assert echo["tol"] == 1.0 and echo["nx"] == 6 and echo["restart"] is None
        _, rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == 6 * 5 * 4

    @pytest.mark.parametrize("value", ["false", "no", 0, 1])
    def test_rhs_one_config_needs_boolean(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"rhs_one": value}))
        code = main(["solve", "--config", str(cfg_path), "--ns", "5", "--nomega", "4",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value, surface_intensity", [(False, 0.0), (None, 0.0), (True, 1.0)])
    def test_rhs_one_config_boolean(self, tmp_path, value, surface_intensity):
        # the first row is a downward ray at the surface, where the solution equals b
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"rhs_one": value}))
        assert main(["solve", "--config", str(cfg_path), "--ns", "5", "--nomega", "4",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "solution.csv")
        assert float(rows[0][3]) == pytest.approx(surface_intensity, abs=1e-10)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"nsx": 3}))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def savetxt_solution(path, problem, solution):
    """The np.savetxt writer that _write_solution replaced, kept as its reference."""
    grid = problem.grid
    if hasattr(grid, "node_xy"):  # 2D
        header, nodes = "x,y,mu,nu,I", grid.node_xy
    else:
        header, nodes = "t,mu,nu,I", grid.t_nodes[:, None]
    table = np.column_stack([
        np.repeat(nodes, grid.n_rays, axis=0),
        np.tile(grid.ray_mu, grid.n_space),
        np.tile(grid.ray_nu, grid.n_space),
        solution,
    ])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


class TestSolutionWriter:
    @pytest.mark.parametrize("preset, params", [
        ("mono", {"n_space": 7, "n_angles": 6}),
        ("coherent", {"n_space": 5, "n_angles": 4, "n_freq": 5}),
        ("crd", {"n_space": 5, "n_angles": 4, "n_freq": 5}),
        ("aniso2d", {"n_x": 3, "n_y": 4, "n_angles": 6}),
    ])
    def test_bytes_match_savetxt(self, tmp_path, preset, params):
        problem = presets.build(preset, **params)
        rng = np.random.default_rng(3)
        solution = rng.standard_normal(problem.n_total) * 10.0 ** rng.integers(-300, 300, problem.n_total)
        solution[:6] = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0 / 3.0]
        cli._write_solution(tmp_path / "new.csv", problem, solution)
        savetxt_solution(tmp_path / "ref.csv", problem, solution)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_intensities_round_trip_bit_for_bit(self, tmp_path, monkeypatch):
        reports, cli_solve = [], cli.solve_system

        def recording_solve(*args, **kwargs):
            reports.append(cli_solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "solve_system", recording_solve)
        assert main(["solve", "--preset", "crd", "--ns", "6", "--nomega", "4", "--nnu", "5",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "solution.csv")
        written = np.array([float(r[3]) for r in rows])
        assert written.tobytes() == reports[0].solution.tobytes()


class TestSpectrum:
    def test_mono_spectrum_artifacts(self, tmp_path):
        code = main(["spectrum", "--preset", "mono", "--ns", "10", "--nomega", "12",
                     "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "eigenvalues.csv")
        assert header == ["re", "im", "modulus"]
        assert len(rows) == 120
        report = json.loads((tmp_path / "spectrum.json").read_text())
        jsonschema.validate(report, load_schema())
        assert report["reduced_dim"] == 10 * 8  # n_space times the kernel rank
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(dict(report, reduced_dim=80.5), load_schema())
        assert report["min_modulus"] > 0.82
        assert report["cluster_fraction_symmetric"] * 100 == pytest.approx(68.3, abs=3.0)

    def test_eigensolver_failure_exit_code(self, tmp_path, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert main(["spectrum", "--preset", "mono", "--ns", "4", "--nomega", "4",
                     "--out", str(tmp_path)]) == 2

    def test_over_cap_is_config_error(self, tmp_path):
        code = main(["spectrum", "--preset", "mono", "--ns", "100", "--nomega", "12",
                     "--dense-cap", "500", "--out", str(tmp_path)])
        assert code == 1

    def test_core_path_caps_the_core_not_n(self, tmp_path):
        # N = 24000 is over the default cap of 20000, the coherent core is 1000 x 1000
        code = main(["spectrum", "--preset", "coherent", "--ns", "50", "--nomega", "24",
                     "--nnu", "20", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "spectrum.json").read_text())
        assert (report["n_total"], report["reduced_dim"]) == (24000, 1000)


class TestTable:
    def test_mono_grid_rows(self, tmp_path):
        code = main(["table", "--preset", "mono", "--ns", "5,10", "--nomega", "4,8",
                     "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "table.csv")
        assert header == ["N_s", "N_Omega", "N_nu", "N",
                          "cluster_fraction_paper_interval",
                          "cluster_fraction_symmetric", "min_modulus"]
        assert len(rows) == 4
        assert [r[0] for r in rows] == ["5", "5", "10", "10"]

    def test_over_cap_cells_skipped(self, tmp_path, capsys):
        code = main(["table", "--preset", "mono", "--ns", "5,40", "--nomega", "4",
                     "--dense-cap", "100", "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "table.csv")
        assert len(rows) == 1

    def test_core_cells_skipped_by_core_size(self, tmp_path, capsys, monkeypatch):
        # N = 960 and 9600, both over 500; coherent cores are 80 and 800 wide
        built = []
        build = presets.build
        monkeypatch.setattr(presets, "build",
                            lambda preset, **kw: built.append(kw) or build(preset, **kw))
        code = main(["table", "--preset", "coherent", "--ns", "10", "--nomega", "12",
                     "--nnu", "8,80", "--dense-cap", "500", "--out", str(tmp_path)])
        assert [kw["n_freq"] for kw in built] == [8]  # the skipped cell is never built
        assert code == 0
        _, rows = read_csv(tmp_path / "table.csv")
        assert [r[2] for r in rows] == ["8"]
        assert "nnu=80" in capsys.readouterr().err



class TestConvergence:
    def test_identity_histories_have_length_one(self, tmp_path):
        code = main(["convergence", "--preset", "mono", "--ns", "10,20",
                     "--nomega", "4", "--gamma-scale", "0", "--rhs-one",
                     "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        # both methods, two rungs, one history entry each
        assert len(rows) == 4
        assert all(r[2] == "1" for r in rows)

    def test_ladder_with_selected_solver(self, tmp_path):
        code = main(["convergence", "--preset", "coherent", "--ns", "5,8",
                     "--nnu", "5,8", "--nomega", "4", "--solver", "gmres",
                     "--rhs-one", "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert {r[1] for r in rows} == {"gmres"}
        sizes = {r[0] for r in rows}
        assert sizes == {"ns5_nomega4_nnu5", "ns8_nomega4_nnu8"}
        assert all(r[4] == "1" for r in rows)

    def test_solver_from_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"solver": "bicgstab"}))
        code = main(["convergence", "--config", str(cfg_path), "--preset", "mono",
                     "--ns", "5,8", "--nomega", "4", "--rhs-one", "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert {r[1] for r in rows} == {"bicgstab"}

    def test_mismatched_ladder_rejected(self, tmp_path):
        assert main(["convergence", "--preset", "coherent", "--ns", "5,8,11",
                     "--nnu", "5,8", "--nomega", "4", "--out", str(tmp_path)]) == 1
