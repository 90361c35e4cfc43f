import argparse
import hashlib
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest

import levelform as lf
from levelform import benchmarks, cli, pushforward
from levelform.cli import entry, main
from levelform.config import parse_kv_text, phase_from_config
from levelform.sampling import sample_blocks

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def read_report(path):
    with open(path) as fh:
        report = json.load(fh)
    assert report["schema"] == 1
    digest = hashlib.sha256(json.dumps(report["payload"], sort_keys=True)
                            .encode()).hexdigest()
    assert report["metadata"]["payload_sha256"] == digest
    # timestamp must parse back
    import datetime
    datetime.datetime.fromisoformat(report["metadata"]["timestamp"])
    return report


def test_density_command_writes_csv_and_json(tmp_path, capsys):
    out_json = tmp_path / "density.json"
    out_csv = tmp_path / "density.csv"
    rc = main(["density", "--preset", "linear", "--bins", "32",
               "--json", str(out_json), "--csv", str(out_csv)])
    assert rc == 0
    report = read_report(out_json)
    assert report["command"] == "density"
    assert len(report["payload"]["values"]) == 32
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "t_lo,t_hi,value,stderr,method"
    assert len(rows) == 33
    assert float(rows[1].split(",")[0]) == report["payload"]["grid"]["t_min"]
    # every CSV value parses back to the reported float exactly
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    assert vals == report["payload"]["values"]
    assert "mass=" in capsys.readouterr().out


# one report per command, and one density report per route
REPORTS = {
    "density closed_form": ["density", "--bins", "16"],
    "density coarea": ["density", "--method", "coarea", "--bins", "16", "--fiber-nodes", "64"],
    "density monte_carlo": ["density", "--method", "monte_carlo", "--bins", "16",
                            "--samples", "4000"],
    "reduce": ["reduce", "--samples", "20000", "--bins", "64"],
    "sparse": ["sparse", "--cells", "256", "--depth", "6"],
    "regime": ["regime", "--bins", "64"],
}


@pytest.mark.parametrize("argv", REPORTS.values(), ids=REPORTS.keys())
def test_every_report_round_trips_through_json(argv, tmp_path, monkeypatch):
    written = []
    real = cli.write_report

    def keep(*args, **kwargs):
        written.append(real(*args, **kwargs))
        return written[-1]

    monkeypatch.setattr(cli, "write_report", keep)
    path = tmp_path / "report.json"
    assert main([*argv, "--json", str(path)]) == 0
    # the same keys, types and float bits as the report the command built
    assert (json.dumps(read_report(path), sort_keys=True)
            == json.dumps(written[0], sort_keys=True))


@pytest.mark.parametrize("method", pushforward.METHODS)
def test_density_estimate_round_trips_through_json(method):
    route = {"sample_count": 5000, "seed": 3} if method == lf.MONTE_CARLO else {}
    est = lf.density_on_grid(lf.radial_power_phase(lf.ball(2), 4.0),
                             lf.LevelGrid(0.05, 0.95, 24), method, **route)
    back = json.loads(json.dumps(est.to_json_dict()))
    assert back == est.to_json_dict()
    assert lf.LevelGrid(**back["grid"]) == est.grid
    assert np.array(back["values"]).tobytes() == est.values.tobytes()
    if est.stderr is not None:
        assert np.array(back["stderr"]).tobytes() == est.stderr.tobytes()


def test_density_explicit_window(tmp_path):
    out_json = tmp_path / "d.json"
    rc = main(["density", "--preset", "radial-power4", "--bins", "16",
               "--t-lo", "0.5", "--t-hi", "1.0", "--json", str(out_json)])
    assert rc == 0
    payload = read_report(out_json)["payload"]
    assert payload["grid"]["t_min"] == 0.5
    assert payload["grid"]["t_max"] == 1.0


def test_reduce_command_passes(tmp_path, capsys):
    out_json = tmp_path / "reduce.json"
    rc = main(["reduce", "--preset", "linear", "--eps", "0.25",
               "--samples", "100000", "--bins", "128",
               "--json", str(out_json)])
    assert rc == 0
    report = read_report(out_json)
    assert report["payload"]["passed"] is True
    assert report["payload"]["discrepancy"] <= report["payload"]["tolerance"]
    assert " ok" in capsys.readouterr().out


def test_reduce_radial_preset(tmp_path):
    out_json = tmp_path / "r2.json"
    rc = main(["reduce", "--preset", "radial2", "--eps", "0.125",
               "--samples", "100000", "--bins", "128",
               "--json", str(out_json)])
    assert rc == 0
    assert read_report(out_json)["payload"]["passed"] is True


def test_sparse_command(tmp_path, capsys):
    out_json = tmp_path / "sparse.json"
    out_csv = tmp_path / "sparse.csv"
    rc = main(["sparse", "--cells", "256", "--depth", "6", "--seed", "5",
               "--json", str(out_json), "--csv", str(out_csv)])
    assert rc == 0
    report = read_report(out_json)
    payload = report["payload"]
    num, den = payload["eta"]
    assert num * 2 >= den
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "epsilon,lhs,sparse_value,ratio,seed"
    assert len(rows) == 1 + 5  # ladder 2..6
    # the family in the payload loads back and verifies
    fam = lf.family_from_json_dict(
        {k: v for k, v in payload.items() if k != "ratios"})
    assert lf.verify_sparsity(fam) == fam.eta
    assert "eta=" in capsys.readouterr().out


def test_sparse_command_reproduces_benchmark_pair(tmp_path, capsys):
    # --seed p draws the signals of domination_benchmark's pair p
    out_json = tmp_path / "sparse.json"
    rc = main(["sparse", "--cells", "1024", "--depth", "8", "--eps-max", "8", "--seed", "1",
               "--json", str(out_json)])
    assert rc == 0
    payload = read_report(out_json)["payload"]
    bench = benchmarks.domination_benchmark()
    assert [row["ratio"] for row in payload["ratios"]] == list(bench.ratios[1])
    assert len(payload["members"]) > 1
    assert "members=1 " not in capsys.readouterr().out


def test_regime_command_power(tmp_path, capsys):
    out_json = tmp_path / "regime.json"
    rc = main(["regime", "--preset", "radial-power4", "--bins", "64",
               "--json", str(out_json)])
    assert rc == 0
    payload = read_report(out_json)["payload"]
    assert payload["regime"] == lf.POWER_REGIME
    assert payload["beta"] == pytest.approx(0.5, abs=1e-6)
    assert payload["window"][0] == pytest.approx(1.5)
    assert payload["window"][1] == pytest.approx(3.0)
    assert "beta=0.5000" in capsys.readouterr().out


def test_regime_monte_carlo_draws_one_stream(tmp_path, monkeypatch):
    calls = []

    def counted(domain, count, seed, **kwargs):
        calls.append(count)
        return sample_blocks(domain, count, seed, **kwargs)

    monkeypatch.setattr(pushforward, "sample_blocks", counted)
    rc = main(["regime", "--method", "monte_carlo", "--samples", "20000", "--bins", "64",
               "--json", str(tmp_path / "regime.json")])
    assert rc == 0
    assert calls == [20000]


def test_regime_judges_atoms_on_the_fitted_window(tmp_path):
    # r^50 puts three quarters of the disk below level 5e-4, outside [1e-3, 1e-1]
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("phase.kind = radial-power\nphase.gamma = 50\n")
    out_json = tmp_path / "regime.json"
    rc = main(["regime", "--config", str(cfg), "--method", "monte_carlo", "--bins", "2048",
               "--json", str(out_json)])
    assert rc == 0
    assert read_report(out_json)["payload"]["regime"] == lf.POWER_REGIME


# the closed-form asymptotics of each preset near level 0: bounded densities
# read uniform, r^gamma on the disk a power with beta = 1 - n/gamma, the saddle a log
PRESET_REGIMES = {"linear": (lf.UNIFORM_REGIME, 0.0), "radial2": (lf.UNIFORM_REGIME, 0.0),
                  "radial-power4": (lf.POWER_REGIME, 0.5),
                  "radial-power8": (lf.POWER_REGIME, 0.75), "saddle": (lf.LOG_REGIME, 0.0)}


@pytest.mark.parametrize("method", pushforward.METHODS)
@pytest.mark.parametrize("preset", cli.PRESETS)
def test_regime_of_every_preset_on_every_route(preset, method, tmp_path):
    out_json = tmp_path / "regime.json"
    assert main(["regime", "--preset", preset, "--method", method,
                 "--json", str(out_json)]) == 0
    payload = read_report(out_json)["payload"]
    regime, beta = PRESET_REGIMES[preset]
    assert payload["regime"] == regime
    if regime == lf.POWER_REGIME:
        assert payload["beta"] == pytest.approx(beta, abs=0.01 if method == lf.MONTE_CARLO
                                                else 1e-9)
    else:
        # beta exactly 0, so the window is (1, inf), its upper end serialized as null
        assert (payload["beta"], payload["window"]) == (0.0, [1.0, None])


def test_density_monte_carlo_json_carries_sampling_provenance(tmp_path):
    out_json = tmp_path / "mc.json"
    rc = main(["density", "--method", "monte_carlo", "--samples", "2000", "--seed", "3",
               "--bins", "16", "--json", str(out_json)])
    assert rc == 0
    payload = read_report(out_json)["payload"]
    assert len(payload["stderr"]) == 16
    assert payload["sample_count"] == 2000
    assert payload["seed"] == 3


def test_density_without_outputs_prints_the_report(capsys):
    assert main(["density", "--bins", "8"]) == 0
    summary, _, body = capsys.readouterr().out.partition("\n")
    assert summary.startswith("density[") and "mass=" in summary
    report = json.loads(body)
    assert report["command"] == "density"
    assert len(report["payload"]["values"]) == 8


def test_regime_command_saddle_inf_window(tmp_path, capsys):
    out_json = tmp_path / "saddle.json"
    rc = main(["regime", "--preset", "saddle", "--bins", "64",
               "--t-lo", "1e-6", "--t-hi", "1e-3", "--json", str(out_json)])
    assert rc == 0
    payload = read_report(out_json)["payload"]
    assert payload["regime"] == lf.LOG_REGIME
    assert payload["beta"] == 0.0
    # infinite upper endpoint serializes as null, prints as inf
    assert payload["window"][1] is None
    assert "inf" in capsys.readouterr().out


def test_out_dir_redirection(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVELFORM_OUT", str(tmp_path))
    rc = main(["density", "--preset", "linear", "--bins", "8",
               "--json", "rel.json"])
    assert rc == 0
    assert (tmp_path / "rel.json").exists()


def test_out_dir_keeps_absolute_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVELFORM_OUT", str(tmp_path / "unused"))
    target = tmp_path / "abs.json"
    rc = main(["density", "--preset", "linear", "--bins", "8",
               "--json", str(target)])
    assert rc == 0
    assert target.exists()


def test_config_file_phase(tmp_path):
    cfg = tmp_path / "phase.cfg"
    cfg.write_text("phase.kind = radial-power\ndomain.n = 2\n"
                   "domain.R = 1.0\nphase.gamma = 4.0\n")
    out_json = tmp_path / "cfg.json"
    rc = main(["density", "--config", str(cfg), "--bins", "16",
               "--t-lo", "0.5", "--t-hi", "1.0", "--json", str(out_json)])
    assert rc == 0
    payload = read_report(out_json)["payload"]
    assert "radial-power" in payload["phase"]


def test_config_parsing_helpers():
    cfg = parse_kv_text("phase.kind = linear\ndomain.n = 3\n"
                        "domain.R = 2.0\n# comment\n")
    phase = phase_from_config(cfg)
    assert phase.domain.n == 3
    assert phase.domain.radius == 2.0


def test_config_box_domain():
    phase = phase_from_config(parse_kv_text(
        "domain.shape = box\ndomain.bounds = 0:2;-1:1\nphase.kind = linear\nphase.axis = 1\n"))
    assert phase == lf.linear_phase(lf.box([(0.0, 2.0), (-1.0, 1.0)]), axis=1)


def test_config_oscillatory_phase():
    phase = phase_from_config(parse_kv_text("phase.kind = oscillatory\nphase.a = 0.25\n"
                                            "phase.N = 3\n"))
    assert phase == lf.oscillatory_phase(lf.ball(2), 0.25, 3.0)


BOX = "domain.shape = box\nphase.kind = linear\n"
CONFIG_ERRORS = {
    "no equals sign": "phase.kind linear",
    "empty key": "= linear",
    "empty value": "phase.kind =",
    "duplicate key": "phase.kind = linear\nphase.kind = saddle",
    "unknown domain key": "domain.size = 2\nphase.kind = linear",
    "unknown phase key": "phase.kind = linear\nphase.tilt = 1",
    "missing phase.kind": "domain.n = 2",
    "unknown phase.kind": "phase.kind = cubic",
    "unknown shape": "domain.shape = torus\nphase.kind = linear",
    "box without bounds": BOX,
    "bad bounds chunk": BOX + "domain.bounds = 0:1:2;0:1",
    "wrong number of pairs": BOX + "domain.bounds = 0:1",
    "non-numeric bound": BOX + "domain.bounds = 0:x;0:1",
    "non-numeric dimension": "domain.n = two\nphase.kind = linear",
    "non-numeric radius": "domain.R = wide\nphase.kind = linear",
    "non-numeric exponent": "phase.kind = radial-power\nphase.gamma = steep",
    # a key whose field the kind or shape does not read
    "linear with phase.gamma": "phase.kind = linear\nphase.gamma = 3",
    "saddle with phase.axis": "phase.kind = saddle\nphase.axis = 1",
    "radial-power with phase.a": "phase.kind = radial-power\nphase.a = 0.5",
    "radial-quadratic with phase.gamma = 3": "phase.kind = radial-quadratic\nphase.gamma = 3",
    "ball with domain.bounds": "domain.bounds = 0:1;0:1\nphase.kind = linear",
    "box with domain.R": BOX + "domain.bounds = 0:1;0:1\ndomain.R = 2",
}


@pytest.mark.parametrize("text", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_errors_are_config_errors(text):
    with pytest.raises(lf.ConfigError):
        phase_from_config(parse_kv_text(text))


@pytest.mark.parametrize("kind", ["custom", "boundary-reparam"])
def test_config_refuses_a_kind_no_key_can_fill(kind):
    # a custom fn and a boundary-reparam profile are functions and tables
    with pytest.raises(lf.ConfigError, match=f"a config file cannot describe a {kind} phase"):
        phase_from_config(parse_kv_text(f"phase.kind = {kind}"))


def test_entry_exit_code_on_config_error(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("phase.kind = nonsense\n")
    monkeypatch.setattr("sys.argv",
                        ["levelform", "density", "--config", str(cfg)])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip() != ""


def test_entry_refuses_a_phase_whose_image_overflows(tmp_path):
    # 2.0 ** 2000 is past the float range: the phase is refused where it is built
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("phase.kind = radial-power\nphase.gamma = 2000\ndomain.R = 2\n")
    src = str(pathlib.Path(lf.__file__).resolve().parents[1])
    env = dict(os.environ, LEVELFORM_OUT=str(tmp_path),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "levelform", "density", "--config", str(cfg)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "image end must be a finite real number" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["density", "--method", "monte_carlo", "--samples", "0"],
    ["reduce", "--samples", "0"],
])
def test_module_entry_exit_code_on_zero_samples(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["levelform", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("levelform", run_name="__main__")
    assert exc.value.code == 2
    assert "sample_count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["density", "--subdivide", "0"],
    ["density", "--method", "coarea", "--fiber-nodes", "0"],
])
def test_module_entry_exit_code_on_empty_quadrature(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["levelform", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("levelform", run_name="__main__")
    assert exc.value.code == 2
    assert ">= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sparse", "--cells", "64", "--depth", "4", "--seed", "-1"],
    ["density", "--method", "monte_carlo", "--samples", "100", "--seed", "-1"],
])
def test_module_entry_exit_code_on_negative_seed(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["levelform", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("levelform", run_name="__main__")
    assert exc.value.code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["reduce", "--eps", "inf"], "truncation radius"),
    (["sparse", "--lam", "nan"], "stopping factor"),
    (["sparse", "--cells", "0"], "cell count"),
    (["reduce", "--eps", "100"], "both sides vanish"),
    (["sparse", "--depth", str(2 ** 64)], "do not refine to depth"),
    (["sparse", "--eps-max", "1075"], "dyadic exponent must be <= 1074"),
    (["density", "--method=monte_carlo", "--t-lo=-1e308", "--t-hi=1e308", "--samples=1000"],
     "level grid length must be a finite real number, got inf"),
    # 711 PiB exceeds any user address space, so nothing is allocated
    (["density", "--bins", str(10 ** 17)], "cannot allocate: Unable to allocate 711. PiB"),
])
def test_module_entry_exit_code_on_non_finite_or_empty_input(argv, message, tmp_path,
                                                             monkeypatch, capsys):
    monkeypatch.setenv("LEVELFORM_OUT", str(tmp_path))
    monkeypatch.setattr("sys.argv", ["levelform", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("levelform", run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["density", "--json", "d.json"],
    ["density", "--csv", "d.csv"],
    ["sparse", "--cells", "256", "--depth", "6", "--csv", "s.csv"],
    ["regime", "--config", "missing.kv"],
    ["reduce", "--bins", "16", "--samples", "2000", "--json", "{directory}"],
])
def test_module_entry_exit_code_on_bad_paths(argv, tmp_path, monkeypatch, capsys):
    # LEVELFORM_OUT names a directory that does not exist
    monkeypatch.setenv("LEVELFORM_OUT", str(tmp_path / "missing"))
    monkeypatch.chdir(tmp_path)
    argv = [a.format(directory=tmp_path) for a in argv]
    monkeypatch.setattr("sys.argv", ["levelform", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("levelform", run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot use file" in err and "Traceback" not in err


def test_cold_start_loads_no_scipy(tmp_path):
    # a fresh interpreter: importing the package, running these commands and
    # taking a coarea density of a designed boundary-reparametrized phase
    # must not pull in any scipy module
    script = """
import sys
import levelform
from levelform import cli
codes = [cli.main(argv) for argv in (
    ["density", "--bins", "16"],
    ["regime", "--bins", "32"],
    ["sparse", "--cells", "256", "--depth", "6"],
)]
table = levelform.design_reparametrization(levelform.GammaProfile(lambda t: t, 0.5, 10.0),
                                           lambda s: 1.0, 1.0, (0.0, 1.0), step=1e-2)
phase = levelform.boundary_reparam_phase(levelform.ball(2), table)
levelform.weighted_density_coarea(phase, None, 2.0)
print(codes, sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    src = str(pathlib.Path(lf.__file__).resolve().parents[1])
    env = dict(os.environ, LEVELFORM_OUT=str(tmp_path),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0] []"


def test_experiment_script_runs_in_process(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEVELFORM_OUT", raising=False)
    script = runpy.run_path(str(SCRIPTS / "run_experiments.py"))
    assert script["run"]("density", "--preset", "linear", "--bins", "16",
                         "--json", "d.json") == 0
    assert (tmp_path / "d.json").exists()
    assert script["run"]("density", "--method", "monte_carlo", "--samples", "0") == 2


def test_method_choices_are_the_density_routes():
    from levelform import cli, pushforward
    assert cli.METHODS is pushforward.METHODS
    for method in pushforward.METHODS:
        assert cli.build_parser().parse_args(["density", "--method", method]).method == method
    with pytest.raises(SystemExit) as exc:
        main(["density", "--method", "bogus"])
    assert exc.value.code == 2


def test_unknown_preset_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["density", "--preset", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name,build", [
    ("linear", lf.linear_phase),
    ("radial2", lf.radial_quadratic_phase),
    ("radial-power4", lambda dom: lf.radial_power_phase(dom, 4.0)),
    ("radial-power8", lambda dom: lf.radial_power_phase(dom, 8.0)),
    ("saddle", lf.saddle_phase),
])
def test_preset_configs_build_the_catalog_phases(name, build):
    assert phase_from_config(cli.PRESETS[name]) == build(lf.ball(2))


def test_every_parsed_option_is_read(tmp_path, monkeypatch):
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    build = cli.build_parser
    parsed = []

    def recording_parser():
        parser = build()
        parse = parser.parse_args

        def parse_args(argv):
            parsed.append(parse(argv, namespace=Recording()))
            # parsing probes every dest; count only what main and the handler read
            reads.clear()
            return parsed[-1]

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    unread = {}
    for argv in (["density", "--bins", "8"],
                 ["reduce", "--samples", "2000", "--bins", "16", "--method", "coarea",
                  "--fiber-nodes", "64"],
                 ["sparse", "--cells", "256", "--depth", "4"],
                 ["regime", "--bins", "32"]):
        argv += ["--json", str(tmp_path / f"{argv[0]}.json")]
        main(argv)
        unread[argv[0]] = set(vars(parsed[-1])) - reads - {"func", "command"}
    assert unread == {"density": set(), "reduce": set(), "sparse": set(), "regime": set()}


@pytest.mark.parametrize("argv", [["reduce", "--config", "f.kv"],
                                  ["regime", "--subdivide", "2"]])
def test_options_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["density", "--subdivide", "7"],
    ["density", "--fiber-nodes", "70"],
    ["reduce", "--subdivide", "7"],
    ["reduce", "--fiber-nodes", "70"],
    ["regime", "--fiber-nodes", "70"],
    ["density", "--subdivide", "3"],
])
def test_quadrature_flags_are_rejected_with_monte_carlo(argv, tmp_path, monkeypatch, capsys):
    # the Monte Carlo route reads neither flag; naming one, even at its
    # default, is a usage error
    monkeypatch.setenv("LEVELFORM_OUT", str(tmp_path))
    monkeypatch.setattr("sys.argv", ["levelform", *argv, "--method", "monte_carlo",
                                     "--samples", "2000", "--bins", "16"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("levelform", run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no effect with --method monte_carlo" in err and "Traceback" not in err


def test_quadrature_defaults_are_echoed(tmp_path):
    for method, flag, value in (("monte_carlo", "--samples", "2000"),
                                ("coarea", "--fiber-nodes", "64")):
        out = tmp_path / f"{method}.json"
        assert main(["density", "--method", method, flag, value, "--bins", "16",
                     "--json", str(out)]) == 0
        config = read_report(out)["metadata"]["config"]
        # a flag the route does not read echoes null
        assert (config["fiber_nodes"], config["subdivide"], config["samples"]) == (
            (None, None, 2000) if method == "monte_carlo" else (64, 3, None))


# the density routes that read each route flag; reduce reads --samples on
# every route, for its sampled left side
FLAG_READERS = {"--fiber-nodes": {"coarea"}, "--subdivide": {"closed_form", "coarea"},
                "--samples": {"monte_carlo"}}
ROUTE_FLAG_CASES = [(command, method, flag)
                    for command in ("density", "reduce", "regime")
                    for method in pushforward.METHODS for flag in FLAG_READERS
                    if (command, flag) != ("regime", "--subdivide")]


@pytest.mark.parametrize("command,method,flag", ROUTE_FLAG_CASES)
def test_route_flags_are_read_or_rejected(command, method, flag, tmp_path):
    value = {"--fiber-nodes": "64", "--subdivide": "2", "--samples": "20000"}[flag]
    out = tmp_path / "r.json"
    argv = [command, "--method", method, flag, value, "--bins", "16", "--json", str(out)]
    if method in FLAG_READERS[flag] or (command, flag) == ("reduce", "--samples"):
        main(argv)
        config = read_report(out)["metadata"]["config"]
        assert config[flag[2:].replace("-", "_")] == int(value)
    else:
        with pytest.raises(lf.ConfigError, match=f"{flag} has no effect with --method {method}"):
            main(argv)
        assert not out.exists()


def test_all_presets_run_small(tmp_path):
    for preset in ["linear", "radial2", "radial-power4", "radial-power8",
                   "saddle"]:
        kwargs = ["density", "--preset", preset, "--bins", "16",
                  "--json", str(tmp_path / f"{preset}.json")]
        if preset == "radial-power4":
            kwargs += ["--t-lo", "0.3", "--t-hi", "0.9"]
        if preset == "radial-power8":
            kwargs += ["--t-lo", "0.3", "--t-hi", "0.9"]
        assert main(kwargs) == 0


def test_report_is_json_clean(tmp_path):
    out_json = tmp_path / "clean.json"
    main(["regime", "--preset", "saddle", "--bins", "64",
          "--t-lo", "1e-6", "--t-hi", "1e-3", "--json", str(out_json)])
    text = out_json.read_text()
    assert "Infinity" not in text and "NaN" not in text
