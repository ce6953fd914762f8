"""End-to-end checks for the command-line driver.

Runs `cli.main` in process for speed; one subprocess test confirms the
installed console script. Covers exit codes (0 success, 1 validation,
2 usage), header conventions, byte determinism, and atomic writes.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from phasequant import cli, repalg


def run_cli(*argv):
    return cli.main(list(argv))


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli("definitely-not-a-subcommand") == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, capsys):
        assert run_cli("repr", "--k", "0.5") == 2
        assert "--dim" in capsys.readouterr().err

    def test_negative_k_rejected_at_parse_time(self, capsys):
        assert run_cli("repr", "--k", "-1", "--dim", "4") == 2
        assert "positive real" in capsys.readouterr().err

    def test_zero_dim_rejected(self, capsys):
        assert run_cli("repr", "--k", "0.5", "--dim", "0") == 2
        capsys.readouterr()

    def test_version_exits_0(self, capsys):
        assert run_cli("--version") == 0
        assert "phasequant" in capsys.readouterr().out

    def test_bad_thread_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PHASEQUANT_THREADS", "zero")
        assert run_cli("repr", "--k", "0.5", "--dim", "2") == 2
        assert "PHASEQUANT_THREADS" in capsys.readouterr().err

    def test_nonpositive_thread_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PHASEQUANT_THREADS", "0")
        assert run_cli("repr", "--k", "0.5", "--dim", "2") == 2
        capsys.readouterr()

    def test_valid_thread_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("PHASEQUANT_THREADS", "2")
        assert run_cli("repr", "--k", "0.5", "--dim", "2") == 0
        capsys.readouterr()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_thread_cap_limits_threads(self):
        # the pools start when numpy loads, so the cap must already be set then
        env = {key: value for key, value in os.environ.items()
               if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PHASEQUANT_THREADS"] = "1"
        result = subprocess.run(
            [sys.executable, "-c",
             "import os, phasequant.cli; print(len(os.listdir('/proc/self/task')))"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_thread_cap_covers_late_scipy(self):
        # scipy.linalg loads only inside phase_spectrum, after the cap was set
        env = {key: value for key, value in os.environ.items()
               if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PHASEQUANT_THREADS"] = "1"
        code = (
            "import os, sys, phasequant.cli\n"
            "import numpy as np\n"
            "from phasequant import phaseops, repalg\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "phaseops.phase_spectrum(phaseops.build_phase_ops(repalg.RepLabel(k=1.0), 64))\n"
            "import scipy.linalg\n"
            "a = np.random.default_rng(0).standard_normal((200, 200))\n"
            "scipy.linalg.eigh(a + a.T)\n"
            "print(len(os.listdir('/proc/self/task')))\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) == 1

    def test_import_leaves_scipy_unloaded(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, phasequant.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_quadrature_paths_leave_scipy_integrate_unloaded(self):
        # completeness needs numpy alone; nothing, the verify battery with its
        # bisected containment checks included, loads any scipy module
        code = (
            "import sys, tempfile, os\n"
            "from phasequant import bgstates, cli, specfun, verify\n"
            "def scipy_mods():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "out = os.path.join(tempfile.mkdtemp(), 'comp.csv')\n"
            "assert cli.main(['completeness', '--k', '0.5', '--n', '2', '--out', out]) == 0\n"
            "assert scipy_mods() == [], scipy_mods()\n"
            "bgstates.g_k(0.25, 1.02)\n"
            "specfun.bessel_k(2.3, 0.7)\n"
            "verify.run_all()\n"
            "assert scipy_mods() == [], scipy_mods()\n"
            "print('ok')\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "ok"


# the phasequant modules each subcommand may load: its own and what they import
_BASE = {"cli", "errors", "repalg", "specfun"}
_LOADS = {
    "repr": (["repr", "--k", "0.5", "--dim", "8"], _BASE),
    "phase-spectrum": (["phase-spectrum", "--k", "1", "--dim", "20"], _BASE | {"phaseops"}),
    "ground-variance": (["ground-variance", "--k", "0.5"], _BASE | {"phaseops"}),
    "kbound-scan": (["kbound-scan", "--k-min", "1", "--k-max", "1", "--k-step", "1",
                     "--rho-min", "1", "--rho-max", "2", "--rho-points", "2"],
                    _BASE | {"phaseops", "bgstates"}),
    "coherent": (["coherent", "--k", "1", "--rho", "1"], _BASE | {"phaseops", "bgstates"}),
    "completeness": (["completeness", "--k", "1", "--n", "1"],
                     _BASE | {"phaseops", "bgstates"}),
    "oscillator": (["oscillator", "--k", "1", "--points", "5"], _BASE | {"phaseops", "fockreal"}),
    "two-mode": (["two-mode", "--dim-per-mode", "3"], _BASE | {"phaseops", "fockreal"}),
    "nfm-sim": (["nfm-sim", "--kind", "number", "--n", "2"],
                _BASE | {"phaseops", "bgstates", "nfm"}),
    "verify-all": (["verify-all", "--module", "specfun"],
                   _BASE | {"phaseops", "bgstates", "fockreal", "nfm", "verify"}),
}


class TestImports:
    def test_every_subcommand_is_covered(self):
        assert set(_LOADS) == set(cli.build_parser()._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize("name", sorted(_LOADS))
    def test_subcommand_loads_only_what_it_runs(self, name):
        argv, modules = _LOADS[name]
        code = (
            "import sys\n"
            "from phasequant import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(sorted(m.split('.')[1] for m in sys.modules if m.startswith('phasequant.')))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded, scipy = result.stdout.strip().splitlines()[-2:]
        assert loaded == repr(sorted(modules))
        assert (scipy != "[]") == (name == "phase-spectrum")


class TestValidationErrors:
    def test_domain_error_exits_1(self, capsys):
        # quadrature moments need k >= 1/2; flags parse fine, computation refuses
        assert run_cli("completeness", "--k", "0.25", "--n", "0") == 1
        assert "error:" in capsys.readouterr().err

    def test_partial_k_grid_exits_1(self, capsys):
        assert run_cli("kbound-scan", "--k-min", "0.5") == 1
        assert "k-min" in capsys.readouterr().err

    def test_partial_rho_grid_exits_1(self, capsys):
        assert run_cli("kbound-scan", "--rho-min", "0.5", "--rho-max", "10") == 1
        capsys.readouterr()

    def test_number_kind_requires_n(self, capsys):
        assert run_cli("nfm-sim", "--kind", "number", "--k", "0.5") == 1
        assert "--n" in capsys.readouterr().err

    def test_bg_kind_requires_rho(self, capsys):
        assert run_cli("nfm-sim", "--kind", "bg", "--k", "0.5") == 1
        assert "--rho" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert run_cli("nfm-sim", "--config", missing) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("field, value", [("n", 2.7), ("n", True),
                                              ("trials", 2.5), ("seed", 7.5)])
    def test_config_integers_must_be_integral(self, capsys, tmp_path, field, value):
        state = {"kind": "number", "k": 1.0, "n": 2}
        config = {"state": state, "trials": 2, "seed": 7}
        (state if field == "n" else config)[field] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert run_cli("nfm-sim", "--config", str(path)) == 1
        assert f"{field} must be an integer" in capsys.readouterr().err

    def test_coherent_near_order_minus_one(self, capsys):
        # the Bessel order 2k - 1 = -0.98 at 2 rho = 1e-323 once overflowed
        assert run_cli("coherent", "--k", "0.01", "--rho", "5e-324", "--phi", "0.3") in (0, 1)
        capsys.readouterr()

    def test_failed_run_leaves_no_output_file(self, capsys, tmp_path):
        target = tmp_path / "never.csv"
        code = run_cli("completeness", "--k", "0.25", "--n", "0",
                       "--out", str(target))
        capsys.readouterr()
        assert code == 1
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestReprOutput:
    def test_csv_matches_library_serialization(self, capsys, tmp_path):
        target = tmp_path / "kp.csv"
        assert run_cli("repr", "--k", "0.5", "--dim", "4", "--name", "kplus",
                       "--out", str(target)) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        assert lines[0].startswith("# phasequant v")
        assert ", repr," in lines[0]
        assert "k=0.5" in lines[0] and "name=kplus" in lines[0]
        op = repalg.build_kplus(repalg.RepLabel(k=0.5), 4)
        assert lines[1:] == repalg.csv_lines(op)

    def test_json_payload_has_meta_and_entries(self, capsys, tmp_path):
        target = tmp_path / "k3.json"
        assert run_cli("repr", "--k", "1.0", "--dim", "3", "--format", "json",
                       "--out", str(target)) == 0
        capsys.readouterr()
        data = json.loads(target.read_text())
        assert data["_meta"].startswith("phasequant v")
        assert data["dim"] == 3
        assert data["entries"][0][0] == [1.0, 0.0]

    def test_stdout_summary_without_out(self, capsys):
        assert run_cli("repr", "--k", "2.0", "--dim", "8") == 0
        out = capsys.readouterr().out
        assert "k3" in out and "dim=8" in out


class TestAnalysisCommands:
    def test_phase_spectrum_rows_and_verdict(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        assert run_cli("phase-spectrum", "--k", "1.0", "--dim", "32",
                       "--out", str(target)) == 0
        out = capsys.readouterr().out
        assert "BOUNDED" in out
        lines = target.read_text().splitlines()
        assert lines[1] == "index,eigenvalue"
        assert len(lines) == 2 + 32
        eigs = [float(line.split(",")[1]) for line in lines[2:]]
        assert eigs == sorted(eigs)

    def test_ground_variance_repeatable_k(self, capsys, tmp_path):
        target = tmp_path / "gsv.csv"
        assert run_cli("ground-variance", "--k", "0.5", "--k", "1.0",
                       "--out", str(target)) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        assert len(lines) == 4
        first = lines[2].split(",")
        assert float(first[1]) == pytest.approx(4.0 / 9.0, abs=1e-15)
        second = lines[3].split(",")
        assert float(second[1]) == pytest.approx(9.0 / 32.0, abs=1e-15)

    def test_kbound_scan_files(self, capsys, tmp_path):
        grid = tmp_path / "scan.csv"
        summary = tmp_path / "scan.json"
        assert run_cli("kbound-scan", "--k-min", "0.25", "--k-max", "1.0",
                       "--k-step", "0.25", "--rho-min", "0.1", "--rho-max", "50",
                       "--rho-points", "30", "--out", str(grid),
                       "--summary", str(summary)) == 0
        out = capsys.readouterr().out
        assert "BOUNDED" in out and "EXCEEDS" in out
        lines = grid.read_text().splitlines()
        assert lines[1] == "k,rho,ratio,verdict"
        assert len(lines) == 2 + 4 * 30
        data = json.loads(summary.read_text())
        verdicts = {row["k"]: row["verdict"] for row in data["rows"]}
        assert verdicts[0.25] == "EXCEEDS"
        assert verdicts[1.0] == "BOUNDED"

    def test_coherent_json_and_nan_handling(self, capsys, tmp_path):
        target = tmp_path / "coh.json"
        assert run_cli("coherent", "--k", "1.0", "--rho", "0.0",
                       "--format", "json", "--out", str(target)) == 0
        capsys.readouterr()
        data = json.loads(target.read_text())
        # ratio of two vanishing means carries no information at rho = 0
        assert data["tan_ratio"] is None
        assert data["k3_mean"] == pytest.approx(1.0, abs=1e-12)

    def test_coherent_at_small_rho(self, capsys, tmp_path):
        # a dim-1 state: the phase routes differ by the dropped coupling
        target = tmp_path / "coh.json"
        assert run_cli("coherent", "--k", "1", "--rho", "1e-8", "--phi", "0.3",
                       "--format", "json", "--out", str(target)) == 0
        capsys.readouterr()
        data = json.loads(target.read_text())
        assert data["dim"] == 1
        assert data["cos_mean"] == pytest.approx(7.1650236684420464e-09, rel=1e-12)

    @pytest.mark.parametrize("k", ["1e-5", "1e-6"])
    def test_phase_routes_agree_at_small_k(self, capsys, k):
        # phase entries near sqrt(2/k)/4 ~ 112 .. 354: the route check is relative
        assert run_cli("coherent", "--k", k, "--rho", "1e-300", "--phi", "0.3") == 0
        assert run_cli("ground-variance", "--k", k) == 0
        capsys.readouterr()

    def test_coherent_moments_match_library(self, capsys, tmp_path):
        import phasequant.bgstates as bgstates
        target = tmp_path / "coh.json"
        assert run_cli("coherent", "--k", "0.5", "--rho", "3.0", "--phi", "0.7",
                       "--format", "json", "--out", str(target)) == 0
        capsys.readouterr()
        data = json.loads(target.read_text())
        state = bgstates.make_bg_state(0.5, 3.0 * complex(math.cos(0.7), math.sin(0.7)))
        m3 = bgstates.k3_moments(state)
        assert data["k3_mean"] == m3.mean
        assert data["var_k1"] == pytest.approx(0.5 * m3.mean, rel=1e-12)

    def test_completeness_row(self, capsys, tmp_path):
        target = tmp_path / "comp.csv"
        assert run_cli("completeness", "--k", "1.0", "--n", "3",
                       "--out", str(target)) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        fields = lines[2].split(",")
        assert float(fields[2]) == pytest.approx(1.0, abs=1e-6)
        assert float(fields[5]) < 1e-8

    def test_completeness_computes_the_moment_once(self, capsys, tmp_path, monkeypatch):
        import phasequant.bgstates as bgstates
        calls = []
        moment = bgstates.moment_integral

        def counted(*args, **kwargs):
            calls.append(args)
            return moment(*args, **kwargs)

        monkeypatch.setattr(bgstates, "moment_integral", counted)
        target = tmp_path / "comp.json"
        assert run_cli("completeness", "--k", "1.5", "--n", "4", "--rho-max", "50",
                       "--format", "json", "--out", str(target)) == 0
        capsys.readouterr()
        assert len(calls) == 1
        data = json.loads(target.read_text())
        monkeypatch.undo()
        assert data["completeness"] == bgstates.completeness_check(1.5, 4, 50.0)
        assert data["moment"] == bgstates.moment_integral(1.5, 4, 50.0)

    def test_oscillator_profile(self, capsys, tmp_path):
        target = tmp_path / "osc.csv"
        assert run_cli("oscillator", "--k", "0.5", "--r-max", "10",
                       "--points", "21", "--out", str(target)) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        assert lines[1] == "r,h2"
        assert len(lines) == 2 + 21
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert values[0] == 0.0
        assert max(values) <= 1.0 + 1e-12

    def test_two_mode_table(self, capsys, tmp_path):
        target = tmp_path / "tm.csv"
        assert run_cli("two-mode", "--dim-per-mode", "4",
                       "--out", str(target)) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        assert lines[1] == "n1,n2,sector,irrep_k,irrep_n"
        assert len(lines) == 2 + 16


class TestNfmSim:
    def test_inline_number_state(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        assert run_cli("nfm-sim", "--kind", "number", "--k", "0.5", "--n", "3",
                       "--summary", str(summary)) == 0
        capsys.readouterr()
        data = json.loads(summary.read_text())
        assert data["state"] == {"kind": "number", "k": 0.5, "n": 3}
        assert data["flat_count"] == 1

    def test_config_file_route(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "state": {"kind": "bg", "k": 1.0, "rho": 2.0, "phi": 0.3},
            "noise": 0.0, "trials": 3, "seed": 11,
        }))
        out = tmp_path / "trials.csv"
        assert run_cli("nfm-sim", "--config", str(config),
                       "--out", str(out)) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[1] == "trial,recovered_rho,recovered_phi,err_k1,err_k2"
        assert len(lines) == 2 + 3
        row = lines[2].split(",")
        assert float(row[1]) == pytest.approx(2.0, abs=1e-12)
        assert float(row[2]) == pytest.approx(0.3, abs=1e-12)

    def test_noisy_run_reports_spread(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        assert run_cli("nfm-sim", "--kind", "bg", "--k", "1.0", "--rho", "5.0",
                       "--noise", "0.01", "--trials", "20", "--seed", "3",
                       "--summary", str(summary)) == 0
        capsys.readouterr()
        data = json.loads(summary.read_text())
        assert data["rho_mean"] == pytest.approx(5.0, rel=0.05)
        assert 0.0 < data["rho_std"] < 1.0


class TestDeterminism:
    def test_same_flags_same_bytes(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        flags = ("nfm-sim", "--kind", "bg", "--k", "1.0", "--rho", "3.0",
                 "--noise", "0.02", "--trials", "6", "--seed", "9")
        assert run_cli(*flags, "--out", str(first)) == 0
        assert run_cli(*flags, "--out", str(second)) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_different_bytes(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli("nfm-sim", "--kind", "bg", "--k", "1.0", "--rho", "3.0",
                       "--noise", "0.02", "--trials", "6", "--seed", "9",
                       "--out", str(first)) == 0
        assert run_cli("nfm-sim", "--kind", "bg", "--k", "1.0", "--rho", "3.0",
                       "--noise", "0.02", "--trials", "6", "--seed", "10",
                       "--out", str(second)) == 0
        capsys.readouterr()
        assert first.read_bytes() != second.read_bytes()

    def test_deterministic_spectrum_bytes(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli("phase-spectrum", "--k", "0.5", "--dim", "48",
                       "--out", str(first)) == 0
        assert run_cli("phase-spectrum", "--k", "0.5", "--dim", "48",
                       "--out", str(second)) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_mode_follows_umask(self, capsys, tmp_path, umask, mode):
        target = tmp_path / "x.csv"
        old = os.umask(umask)
        try:
            assert run_cli("repr", "--k", "0.5", "--dim", "4", "--out", str(target)) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        assert target.stat().st_mode & 0o777 == mode

    def test_no_leftover_temp_files(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        assert run_cli("repr", "--k", "0.5", "--dim", "4",
                       "--out", str(target)) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


class TestVerifyAll:
    def test_module_filter_passes(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = run_cli("verify-all", "--module", "specfun",
                       "--out", str(report))
        out = capsys.readouterr().out
        assert code == 0
        assert "specfun: PASS" in out
        data = json.loads(report.read_text())
        assert all(check["passed"] for check in data["checks"])
        assert {check["module"] for check in data["checks"]} == {"specfun"}

    def test_unknown_module_exits_2(self, capsys):
        assert run_cli("verify-all", "--module", "not-a-module") == 2
        capsys.readouterr()

    def test_full_battery_reports_known_failure(self, capsys):
        # the half-integer lowest label has a containment counterexample;
        # the battery must surface it and exit nonzero rather than hide it
        code = run_cli("verify-all")
        out = capsys.readouterr().out
        assert code == 1
        failing = [line for line in out.splitlines() if line.startswith("  FAIL")]
        assert len(failing) == 1
        assert "containment claim k=0.5" in failing[0]


class TestConsoleScript:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "phasequant.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("phasequant ")

    def test_script_version(self):
        result = subprocess.run(
            ["phasequant", "--version"], capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("phasequant ")

    def test_script_usage_error(self):
        result = subprocess.run(
            ["phasequant", "no-such-command"], capture_output=True, text=True,
        )
        assert result.returncode == 2
