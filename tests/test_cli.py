"""End-to-end checks for the command-line driver.

Runs `cli.main` in process for speed; one subprocess test confirms the
installed console script. Covers exit codes (0 success, 1 validation,
2 usage), header conventions, byte determinism, and atomic writes.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

from phasequant import cli, nfm, repalg
from phasequant.errors import check_domain


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

    def test_unparsable_value_names_the_expected_kind(self, capsys):
        assert run_cli("repr", "--k", "0.5", "--dim", "2.5") == 2
        assert "invalid positive integer value: '2.5'" in capsys.readouterr().err
        assert run_cli("coherent", "--k", "x", "--rho", "1") == 2
        assert "invalid positive real value: 'x'" in capsys.readouterr().err

    def test_help_states_every_typed_flags_domain(self):
        # each typed flag's entry ends with the domain its type checks, read
        # from the type's own name
        parser = cli.build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        typed = 0
        for name, sub in subs.choices.items():
            text = " ".join(sub.format_help().split())
            for action in sub._actions:
                if action.type is None:
                    continue
                domain = action.type.__name__
                check_domain("flag", 1, domain)  # a domain the check knows
                formatter = sub.formatter_class(prog=sub.prog)
                formatter.add_argument(action)
                entry = " ".join(formatter.format_help().split())
                assert entry.endswith(f"a {domain}") and entry in text, (name, entry)
                typed += 1
        assert typed == 29

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
        # scipy's BLAS loads only inside phase_spectrum, after the cap was set,
        # and a later import of scipy.linalg reuses the LAPACK module it loaded
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

    def test_phase_spectrum_loads_one_compiled_lapack_module(self):
        # the solve takes scipy's compiled LAPACK module, not the scipy.linalg
        # package, and a later import of the package reuses that module
        code = (
            "import sys\n"
            "from phasequant import cli\n"
            "assert cli.main(['phase-spectrum', '--k', '1', '--dim', '20']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
            "loaded = sys.modules['scipy.linalg._flapack']\n"
            "import scipy.linalg.lapack\n"
            "print(scipy.linalg.lapack._flapack is loaded)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-2:] == ["['scipy.linalg._flapack']", "True"]


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

    @pytest.mark.parametrize("k, rho, named", [
        # a subnormal k: the message gives k and the smallest accepted k
        ("1e-310", "1e-300", ("k=1e-310", "k >= 2.2250738585072014e-308")),
    ])
    def test_coherent_out_of_range_is_one_error_line(self, capsys, k, rho, named):
        assert run_cli("coherent", "--k", k, "--rho", rho, "--phi", "0.3") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert all(text in err for text in named)

    @pytest.mark.parametrize("k, rho", [
        # the K- c = z c rows once disagreed by 5.493e-12 against 4.0e-12 and
        # 2.109e-11 against 2.0e-12: ln I and ln Gamma(2k+n) cancelled
        ("1e4", "3"), ("1e6", "1"),
        # once refused: "k < 7.9394e+15 where a = 2k", where ln Gamma(2k)
        # rounded the series cut away
        ("8e15", "1"), ("1e100", "1"),
    ])
    def test_coherent_at_large_k(self, capsys, k, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("coherent", "--k", k, "--rho", rho) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("k, rho", [
        # I_{2k-1}(2 rho) underflows to 0: once exit 1, "underflows"
        ("123.456", "2.5"), ("300", "1"), ("1e4", "0.5"),
        # e^{-2 rho} I_2k(2 rho) subnormal: once exit 1 blaming the K3
        # variance, or exit 0 with b_k off by 5.0e-6
        ("51", "0.0275"), ("39.88159296635607", "0.003073835879535938"),
    ])
    def test_coherent_where_a_bessel_value_is_not_normal(self, capsys, tmp_path, k, rho):
        target = tmp_path / "coh.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("coherent", "--k", k, "--rho", rho, "--format", "json",
                           "--out", str(target)) == 0
        capsys.readouterr()
        mpmath.mp.dps = 30
        kk, rr = mpmath.mpf(k), mpmath.mpf(rho)
        want = mpmath.besseli(2 * kk, 2 * rr) / mpmath.besseli(2 * kk - 1, 2 * rr)
        assert abs(json.loads(target.read_text())["b_k"] - want) <= 1e-13 * want

    @pytest.mark.parametrize("k, rho", [
        # the asymptotic I_99(1400) does not converge and the series leaves
        # double range: once exit 1, "I_nu(x) cannot be formed"
        ("50", "700"),
        # the closed K3 variance cancels terms near 9e4 to 106: the Bessel
        # quotient's 2.8e-13 once failed its route check, exit 1
        ("300", "300"),
    ])
    def test_coherent_where_the_bessel_quotient_failed(self, capsys, tmp_path, k, rho):
        target = tmp_path / "coh.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("coherent", "--k", k, "--rho", rho, "--format", "json",
                           "--out", str(target)) == 0
        capsys.readouterr()
        got = json.loads(target.read_text())
        mpmath.mp.dps = 40
        kk, rr = mpmath.mpf(k), mpmath.mpf(rho)
        b = mpmath.besseli(2 * kk, 2 * rr) / mpmath.besseli(2 * kk - 1, 2 * rr)
        assert abs(got["b_k"] - b) <= 1e-13 * b
        assert abs(got["k3_mean"] - (kk + rr * b)) <= 1e-13 * (kk + rr * b)
        # README's bound: b_k's 1e-13 carried through the terms that cancel
        variance = rr * rr * (1 - b * b) + (1 - 2 * kk) * rr * b
        terms = 2 * rr * rr * b * b + abs(1 - 2 * kk) * rr * b
        assert abs(got["k3_variance"] - variance) <= 1e-13 * terms

    @pytest.mark.parametrize("argv, named", [
        # (2k+1)^2 overflows a double: once an uncaught OverflowError
        (("ground-variance", "--k", "1e300"), "k <= 1e102"),
        # 2k overflows: once exit 0 with nan/inf cells and a RuntimeWarning
        (("oscillator", "--k", "1e308"), "finite 2k"),
        # (2k - 1)^2 overflowed in the series cut: once an uncaught
        # OverflowError; then every series in a = 2k was refused from
        # k = 7.9394e15 on, where ln Gamma(2k) no longer resolved the cut.
        # The cut now reaches every k, and k^2 in the K3 second moment ends
        (("coherent", "--k", "1e200", "--rho", "1"), "overflows past k = 1.3407807929942596e+154"),
        (("coherent", "--k", "1e300", "--rho", "1"), "overflows past k = 1.3407807929942596e+154"),
        # 2k itself overflows: once "cannot convert float NaN to integer"
        (("coherent", "--k", "1e308", "--rho", "1"), "2k must be finite"),
        # math.lgamma(2k) overflows: once an uncaught OverflowError in the series cut
        (("coherent", "--k", "3e305", "--rho", "1"), "overflows past k = 1.3407807929942596e+154"),
        # the term peak lies past n = 1e5; a ratio cut that forms
        # n (2k + n - 1) as one product overflows here
        (("nfm-sim", "--kind", "bg", "--k", "1.98e306", "--rho", "4.87e257"),
         "c_0 underflows at k=1.98e+306, rho=4.87e+257: ln|c_0| < -17328.7"),
        # k^2 overflows in the K3 second moment: once a RuntimeWarning, then
        # "disagree by nan (tolerance inf)"
        (("coherent", "--k", "1e200", "--rho", "0"), "overflows past k = 1.3407807929942596e+154"),
        # (n + k)^2 in the closed sum of squares: once an uncaught OverflowError
        # from k = 1.35e154 on, and 0.0 for 9.1e154 at k = 1.3e154; then
        # "n3n4_sumsq must be finite", naming a field, not the limit on k.
        # The first <K3> = k + n past it, and two further
        (("nfm-sim", "--kind", "number", "--k", "6.703903964971299e153", "--n", "3"),
         "requires <K3> <= 6.703903964971298e+153"),
        (("nfm-sim", "--kind", "number", "--k", "1.3e154", "--n", "3"),
         "requires <K3> <= 6.703903964971298e+153"),
        (("nfm-sim", "--kind", "number", "--k", "1e200", "--n", "3"),
         "requires <K3> <= 6.703903964971298e+153"),
        (("nfm-sim", "--kind", "number", "--k", "1e308", "--n", "3"), "w3 must be finite"),
    ])
    def test_overflowing_k_is_one_error_line(self, capsys, tmp_path, argv, named):
        target = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--out", str(target)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and named in err
        assert not target.exists()

    @pytest.mark.parametrize("argv, named", [
        # 1/k overflows: once exit 0 with inf/NaN cells, or a Sturm-count
        # message that blamed the route for an overflowing band
        (("ground-variance", "--k", "5e-324"), "ground_state_variance requires k >= "),
        (("kbound-scan", "--k-min", "5e-324", "--k-max", "5e-324", "--k-step", "1",
          "--rho-min", "0.5", "--rho-max", "2", "--rho-points", "3"), "kbound_scan requires k >= "),
        (("oscillator", "--k", "5e-324", "--r-max", "1", "--points", "3"), "h2_curve requires k >= "),
        (("phase-spectrum", "--k", "5e-324", "--dim", "4"), "every cos entry <= 6.7039"),
    ])
    def test_subnormal_k_is_one_error_line(self, capsys, tmp_path, argv, named):
        target = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--out", str(target)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not target.exists()

    @pytest.mark.parametrize("argv, named", [
        # K_15 overflows at the rule's node nearest 0, x = 3.23e-21: once
        # "K quadrature step halvings disagree by inf (tolerance nan)"
        (("completeness", "--k", "8", "--n", "0"),
         "K_nu(x) is out of the quadrature's range at nu=15.0, x=3.2270949548362303e-21"),
        # once also "RuntimeWarning: overflow encountered in exp" from the power factor
        (("completeness", "--k", "80", "--n", "20", "--rho-max", "400"),
         "K_nu(x) is out of the quadrature's range at nu=159.0, "),
        # once ConvergenceError "series in w = e^27.631, a = 2.0 not cut within 200000 terms";
        # past the window's reach at k = 1, rho = 1.98e8
        (("kbound-scan", "--k-min", "1", "--k-max", "1", "--k-step", "1", "--rho-min", "1",
          "--rho-max", "1e9", "--rho-points", "3"),
         "not cut within 200000 terms at k=1.0, rho=1000000000.0: rho <= 34392557.93 is cut at "
         "every k"),
    ], ids=["completeness-k8", "completeness-k80", "kbound-scan-rho1e9"])
    def test_a_series_or_quadrature_out_of_range_is_one_error_line(self, capsys, tmp_path, argv,
                                                                   named):
        target = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--out", str(target)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not target.exists()

    def test_coherent_at_the_smallest_accepted_k(self, capsys):
        # dim 1: the phase tolerance forms k + (dim - 1), not (k + dim) - 1
        assert run_cli("coherent", "--k", "2.775557561562892e-17", "--rho", "1e-300",
                       "--phi", "0.3") == 0
        assert "dim=1" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, out_name", [
        (("kbound-scan", "--k-min", "0.5", "--k-max", "0.6", "--k-step", "0.1"), "scan.csv"),
        (("nfm-sim", "--kind", "bg", "--k", "1", "--rho", "3"), "t.csv"),
    ])
    def test_a_failed_summary_leaves_no_output(self, capsys, tmp_path, argv, out_name):
        # the summary's directory cannot be made: a regular file holds its name
        (tmp_path / "blocker").write_text("")
        assert run_cli(*argv, "--out", str(tmp_path / out_name),
                       "--summary", str(tmp_path / "blocker" / "s.json")) == 1
        assert capsys.readouterr().err.startswith("error: ")
        # neither output, and no temp file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    @pytest.mark.parametrize("argv", [
        ("kbound-scan", "--k-min", "0.5", "--k-max", "0.6", "--k-step", "0.1"),
        ("nfm-sim", "--kind", "bg", "--k", "1", "--rho", "3", "--trials", "3"),
    ])
    def test_out_and_summary_naming_one_file_exit_1(self, capsys, tmp_path, argv):
        # once exit 0, the summary overwriting the CSV without a word
        assert run_cli(*argv, "--out", str(tmp_path / "same.out"),
                       "--summary", f"{tmp_path}/./same.out") == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "--out and --summary" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (("kbound-scan", "--out", ""), "--out"),
        (("repr", "--k", "1", "--dim", "3", "--out", ""), "--out"),
        (("verify-all", "--module", "nfm", "--out", ""), "--out"),
        (("kbound-scan", "--out", "s.csv", "--summary", ""), "--summary"),
    ])
    def test_an_empty_output_path_is_refused_before_computing(self, capsys, tmp_path,
                                                              monkeypatch, argv, flag):
        # the temp file was once made in the parent of the working directory,
        # after the run had computed in full
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        handler = cli.build_parser().parse_args(list(argv)).func.__name__
        monkeypatch.setattr(cli, handler, lambda args: pytest.fail(f"{handler} ran"))
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {flag} names no file\n")
        assert list(work.iterdir()) == [] and list(tmp_path.iterdir()) == [work]

    @pytest.mark.parametrize("argv, flag", [
        (("kbound-scan", "--k-min", "0.5", "--k-max", "0.6", "--k-step", "0.1",
          "--out", "s.csv", "--summary", "d"), "--summary"),
        (("kbound-scan", "--out", "d", "--summary", "s.json"), "--out"),
        (("repr", "--k", "1", "--dim", "3", "--out", "d"), "--out"),
    ])
    def test_a_directory_output_path_is_refused_before_computing(self, capsys, tmp_path,
                                                                 monkeypatch, argv, flag):
        # the run once computed, renamed s.csv into place and then failed on
        # the directory, leaving s.csv behind
        (tmp_path / "d").mkdir()
        monkeypatch.chdir(tmp_path)
        handler = cli.build_parser().parse_args(list(argv)).func.__name__
        monkeypatch.setattr(cli, handler, lambda args: pytest.fail(f"{handler} ran"))
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {flag} names a directory: d\n")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_unallocatable_grid_is_one_error_line(self, capsys, tmp_path):
        # 1e18 points (6.94 EiB) exceed any address space, so numpy refuses
        # before mapping anything; it was a MemoryError traceback
        target = tmp_path / "s.csv"
        assert run_cli("kbound-scan", "--rho-min", "0.1", "--rho-max", "10",
                       "--rho-points", str(10 ** 18), "--out", str(target)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: Unable to allocate")
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_rename_leaves_no_output(self, capsys, tmp_path, monkeypatch):
        # the CSV was renamed into place before the summary's rename failed,
        # and stayed there
        replace, calls = os.replace, []

        def second_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(f"cannot rename onto {dst}")
            replace(src, dst)
        monkeypatch.setattr(os, "replace", second_fails)
        monkeypatch.chdir(tmp_path)
        assert run_cli("kbound-scan", "--out", "s.csv", "--summary", "s.json") == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: cannot rename onto s.json\n")
        assert calls == ["s.csv", "s.json"]
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("fmt, unused", [("csv", ["json_envelope"]),
                                             ("json", ["csv_lines"]),
                                             (None, ["csv_lines", "json_envelope"])])
    def test_serializes_only_what_it_writes(self, capsys, tmp_path, monkeypatch, fmt, unused):
        def refuse(op):
            raise AssertionError("serialized a format that is not written")

        for name in unused:
            monkeypatch.setattr(repalg, name, refuse)
        flags = [] if fmt is None else ["--format", fmt, "--out", str(tmp_path / f"op.{fmt}")]
        assert run_cli("repr", "--k", "0.5", "--dim", "4", *flags) == 0
        capsys.readouterr()

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

    def test_kbound_scan_past_the_former_k_limit(self, capsys, tmp_path):
        # once "k < 7.9394e+15 where a = 2k", on the default rho grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("kbound-scan", "--k-min", "8e15", "--k-max", "8e15", "--k-step", "1",
                           "--out", str(tmp_path / "scan.csv")) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("k, step", [("5e15", "1"), ("1e8", "1e-8"), ("0.5", "0.1")])
    def test_kbound_scan_equal_k_bounds_are_one_row(self, capsys, tmp_path, k, step):
        # once "kbound_scan requires nonempty grids" where k_max + k_step/2
        # rounds to k_max, as at 5e15 and at 1e8 with a step of 1e-8
        grid = tmp_path / "scan.csv"
        assert run_cli("kbound-scan", "--k-min", k, "--k-max", k, "--k-step", step,
                       "--rho-min", "0.1", "--rho-max", "10", "--rho-points", "3",
                       "--out", str(grid)) == 0
        capsys.readouterr()
        rows = grid.read_text().splitlines()[2:]
        assert len(rows) == 3 and {row.split(",")[0] for row in rows} == {repr(float(k))}

    def test_kbound_scan_k_grid_keeps_its_bits(self, capsys, tmp_path):
        grid = tmp_path / "scan.csv"
        assert run_cli("kbound-scan", "--k-min", "0.1", "--k-max", "0.3", "--k-step", "0.1",
                       "--rho-min", "0.1", "--rho-max", "10", "--rho-points", "2",
                       "--out", str(grid)) == 0
        capsys.readouterr()
        ks = [row.split(",")[0] for row in grid.read_text().splitlines()[2::2]]
        assert ks == ["0.1", "0.2", "0.30000000000000004"]

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

    @pytest.mark.parametrize("k", ["1e-5", "1e-6", "1e-7", "1e-8", "1e-20"])
    def test_phase_routes_agree_at_small_k(self, capsys, k):
        # phase entries near sqrt(2/k)/4 ~ 112 .. 3.5e9: the route check is
        # relative, and the n = 1 coupling keeps k against n - 1 = 0
        assert run_cli("ground-variance", "--k", k) == 0
        assert run_cli("phase-spectrum", "--k", k, "--dim", "6") == 0
        # below ~2.8e-17 the Bessel order 2k - 1 of a coherent state rounds to -1
        # and coherent refuses the k (TestValidationErrors)
        if float(k) > 1e-16:
            assert run_cli("coherent", "--k", k, "--rho", "1e-300", "--phi", "0.3") == 0
        capsys.readouterr()

    def test_ground_variance_at_tiny_k_is_finite_and_quiet(self, capsys, tmp_path):
        target = tmp_path / "gsv.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("ground-variance", "--k", "1e-20", "--format", "json",
                           "--out", str(target)) == 0
        assert "matrix gap 0.00e+00" in capsys.readouterr().out
        row = json.loads(target.read_text())["rows"][0]
        assert math.isfinite(row["matrix_diag0"]) and row["abs_gap"] == 0.0

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

    def test_completeness_takes_the_library_weight(self, capsys, tmp_path, monkeypatch):
        import phasequant.bgstates as bgstates
        calls = []
        weight = bgstates._completeness_weight

        def counted(*args):
            calls.append(args)
            return weight(*args)

        monkeypatch.setattr(bgstates, "_completeness_weight", counted)
        target = tmp_path / "comp.json"
        assert run_cli("completeness", "--k", "1.0", "--n", "2",
                       "--format", "json", "--out", str(target)) == 0
        capsys.readouterr()
        data = json.loads(target.read_text())
        assert calls == [(1.0, 2, data["moment"])]
        assert data["completeness"] == weight(1.0, 2, data["moment"])

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

    def test_oscillator_prints_the_last_grid_radius(self, capsys):
        # one point is the grid [0.0]: the line once read "h2(1.0) = 0.0"
        assert run_cli("oscillator", "--k", "1", "--r-max", "1", "--points", "1") == 0
        assert capsys.readouterr().out == "max h2 = 0.0, h2(0.0) = 0.0\n"

    def test_two_mode_table(self, capsys, tmp_path):
        target = tmp_path / "tm.csv"
        assert run_cli("two-mode", "--dim-per-mode", "4",
                       "--out", str(target)) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        assert lines[1] == "n1,n2,sector,irrep_k,irrep_n"
        assert len(lines) == 2 + 16


class TestNfmSim:
    # 6.703903964971298e153 is the largest k + n whose summed channels'
    # second moment is a double
    @pytest.mark.parametrize("k", [2e16, 5e16, 1e20, 1e50, 1e100, 6.703903964971298e153])
    def test_number_state_at_large_k(self, capsys, tmp_path, k):
        # k + n rounds to a multiple of 4 from k = 2e16 on, and the smaller
        # root half_sum - sqrt(disc) cancelled: once exit 1 with "observed
        # variances and the nearest integer level disagree by 2.857e-01"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("nfm-sim", "--kind", "number", "--k", repr(k), "--n", "3",
                           "--out", str(tmp_path / "out.csv")) == 0
            rec = nfm.simulate_and_reconstruct(nfm.NumberStateSpec(k=k, n=3)).reconstruction
        capsys.readouterr()
        assert rec.n_estimate == 3 and math.isclose(rec.k_estimate, k, rel_tol=1e-15)

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


def _frozen_scan_csv_lines(result):
    # the per-module writers the CLI's one cell rule replaced, frozen here so
    # the files stay byte for byte what they were
    lines = ["k,rho,ratio,verdict"]
    for i, k in enumerate(result.k_values):
        v = result.verdicts[i]
        for j, rho in enumerate(result.rho_values):
            lines.append(f"{float(k)!r},{float(rho)!r},{float(result.ratio[i, j])!r},{v}")
    return lines


def _frozen_trials_csv_lines(summary):
    lines = ["trial,recovered_rho,recovered_phi,err_k1,err_k2"]
    for r in summary.rows:
        lines.append(
            f"{r.trial},{float(r.recovered_rho)!r},{float(r.recovered_phi)!r},"
            f"{float(r.err_k1)!r},{float(r.err_k2)!r}"
        )
    return lines


def _frozen_sector_table_csv_lines(ops):
    lines = ["n1,n2,sector,irrep_k,irrep_n"]
    for e in ops.sector_table:
        lines.append(f"{e.n1},{e.n2},{e.sector},{e.irrep_k!r},{e.irrep_n}")
    return lines


def _body(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# phasequant v")
    return lines[1:]


# every subcommand at a small size, once per output format it offers
_BOTH = ("--format csv --out out.csv", "--format json --out out.json")
_FORMAT_RUNS = [
    ("repr --k 0.75 --dim 5 --name k1 --omega imaginary_unit", _BOTH),
    ("phase-spectrum --k 0.5 --dim 12", _BOTH),
    ("ground-variance --k 0.5 --k 2.0 --dim 8", _BOTH),
    ("coherent --k 1.0 --rho 0.0", _BOTH),
    ("coherent --k 0.5 --rho 2.0 --phi 0.4", _BOTH),
    ("completeness --k 1.0 --n 2", _BOTH),
    ("oscillator --k 0.5 --r-max 5 --points 11", _BOTH),
    ("two-mode --dim-per-mode 3", _BOTH),
    ("kbound-scan --k-min 0.25 --k-max 1.0 --k-step 0.25 --rho-min 0.1 --rho-max 20"
     " --rho-points 7", ("--out out.csv --summary out.json",)),
    ("nfm-sim --kind bg --k 1.0 --rho 2.0 --noise 0.01 --trials 4 --seed 2",
     ("--out out.csv --summary out.json",)),
    ("nfm-sim --kind number --k 0.5 --n 2 --trials 2", ("--out out.csv --summary out.json",)),
    ("verify-all --module repalg", ("--out out.json",)),
]


def _plain_cell(cell):
    # an integer, a label, or a float written as the repr of its double
    if cell.isidentifier():
        return True
    try:
        return cell == str(int(cell))
    except ValueError:
        return cell == repr(float(cell))


def _no_constants(token):
    raise AssertionError(f"nonstandard JSON constant {token}")


class TestOutputFormat:
    def test_every_subcommand_is_covered(self):
        runs = {command.split()[0] for command, _ in _FORMAT_RUNS}
        assert runs == set(cli.build_parser()._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize("command, outputs", _FORMAT_RUNS,
                             ids=[c.split()[0] for c, _ in _FORMAT_RUNS])
    def test_cells_and_json_values_are_plain(self, capsys, tmp_path, command, outputs):
        names = set()
        for flags in outputs:
            words = flags.split()
            names.update(w for w in words if w.startswith("out."))
            paths = [str(tmp_path / w) if w.startswith("out.") else w for w in words]
            assert run_cli(*command.split(), *paths) == 0
        capsys.readouterr()
        assert {path.name for path in tmp_path.iterdir()} == names
        for name in names:
            path = tmp_path / name
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_no_constants)
                continue
            header, *rows = _body(path)
            assert all(field.isidentifier() for field in header.split(","))
            bad = [cell for row in rows for cell in row.split(",") if not _plain_cell(cell)]
            assert rows and not bad

    @pytest.mark.parametrize("command, outputs", _FORMAT_RUNS,
                             ids=[c.split()[0] for c, _ in _FORMAT_RUNS])
    def test_handlers_neither_print_nor_write(self, capsys, tmp_path, monkeypatch,
                                              command, outputs):
        # a handler returns its stdout text, CSV rows and JSON payload; main
        # alone prints the text and writes the files
        monkeypatch.chdir(tmp_path)
        args = cli.build_parser().parse_args([*command.split(), *outputs[0].split()])
        code, text, rows, payload = args.func(args)
        assert capsys.readouterr().out == "" and list(tmp_path.iterdir()) == []
        assert code == 0 and isinstance(text, str) and isinstance(payload, dict)
        assert (rows is None) == (args.subcommand == "verify-all")

    def test_scan_summary_alone_formats_no_grid_row(self, capsys, tmp_path, monkeypatch):
        cells = []
        cell = cli._cell
        monkeypatch.setattr(cli, "_cell", lambda value: cells.append(value) or cell(value))
        assert run_cli("kbound-scan", "--k-min", "0.25", "--k-max", "0.5", "--k-step", "0.25",
                       "--rho-min", "0.1", "--rho-max", "20", "--rho-points", "7",
                       "--summary", str(tmp_path / "s.json")) == 0
        capsys.readouterr()
        # every grid row ends in its verdict; only the header's flags are cells
        assert cells and not {"BOUNDED", "EXCEEDS"} & set(cells)

    def test_scan_rows_match_the_frozen_writer(self, capsys, tmp_path):
        from phasequant import bgstates
        target = tmp_path / "scan.csv"
        assert run_cli("kbound-scan", "--out", str(target)) == 0
        capsys.readouterr()
        lines = _body(target)
        assert lines[0] == "k,rho,ratio,verdict"
        assert len(lines) == 1 + 39 * 200
        first = lines[1].split(",")
        assert float(first[0]) == 0.1 and float(first[1]) == 0.01
        assert first[3] in ("BOUNDED", "EXCEEDS")
        assert lines == _frozen_scan_csv_lines(bgstates.kbound_scan())

    def test_scan_grid_keeps_the_cell_rule_without_a_cell_call(self, capsys, tmp_path,
                                                                monkeypatch):
        # the grid is rendered column by column; the file is byte for byte what
        # the one cell rule writes for the same rows
        from phasequant import bgstates
        cells = []
        cell = cli._cell
        monkeypatch.setattr(cli, "_cell", lambda value: cells.append(value) or cell(value))
        argv = ["kbound-scan", "--out", str(tmp_path / "scan.csv")]
        assert run_cli(*argv) == 0
        capsys.readouterr()
        assert cells == []
        scan = bgstates.kbound_scan()
        records = ((k, rho, scan.ratio[i, j], scan.verdicts[i])
                   for i, k in enumerate(scan.k_values) for j, rho in enumerate(scan.rho_values))
        expected = cli._csv_text(cli.build_parser().parse_args(argv),
                                 cli._csv_rows(("k", "rho", "ratio", "verdict"), records))
        assert (tmp_path / "scan.csv").read_bytes() == expected.encode()

    def test_trial_rows_match_the_frozen_writer(self, capsys, tmp_path):
        from phasequant import nfm
        target = tmp_path / "trials.csv"
        assert run_cli("nfm-sim", "--kind", "bg", "--k", "1.0", "--rho", "2.0",
                       "--noise", "0.005", "--trials", "10", "--seed", "1",
                       "--out", str(target)) == 0
        capsys.readouterr()
        lines = _body(target)
        assert lines[0] == "trial,recovered_rho,recovered_phi,err_k1,err_k2"
        assert len(lines) == 11
        assert lines[1].split(",")[0] == "0"
        spec = nfm.parse_state_spec({"kind": "bg", "k": 1.0, "rho": 2.0, "phi": 0.0})
        summary = nfm.run_trials(spec, noise=0.005, trials=10, seed=1)
        assert lines == _frozen_trials_csv_lines(summary)

    def test_sector_rows_match_the_frozen_writer(self, capsys, tmp_path):
        from phasequant import fockreal
        target = tmp_path / "sectors.csv"
        assert run_cli("two-mode", "--dim-per-mode", "16", "--out", str(target)) == 0
        capsys.readouterr()
        lines = _body(target)
        assert lines[0] == "n1,n2,sector,irrep_k,irrep_n"
        assert len(lines) == 1 + 16 * 16
        assert lines[1 + 2 * 16] == "2,0,2,1.5,0"
        assert lines == _frozen_sector_table_csv_lines(fockreal.two_mode(16))

    def test_cell_rule(self):
        assert cli._cell(0.1) == "0.1"
        assert cli._cell(np.float64(0.1)) == "0.1"
        assert cli._cell(np.float32(0.5)) == "0.5"
        assert cli._cell(np.longdouble(1.5)) == "1.5"
        assert cli._cell(-0.0) == "-0.0" and cli._cell(float("nan")) == "nan"
        assert cli._cell(3) == "3" and cli._cell(np.int64(3)) == "3"
        assert cli._cell("BOUNDED") == "BOUNDED"

    def test_plain_payload_is_written_without_a_second_walk(self, capsys, tmp_path,
                                                            monkeypatch):
        # a 256-state operator's cells are already plain: json.dumps writes them
        def walked(value):
            raise AssertionError("plain payload walked")
        monkeypatch.setattr(cli, "_jsonable", walked)
        target = tmp_path / "k1.json"
        assert run_cli("repr", "--k", "0.5", "--dim", "256", "--name", "k1",
                       "--format", "json", "--out", str(target)) == 0
        capsys.readouterr()
        op = repalg.build_k1(repalg.RepLabel(k=0.5), 256)
        assert json.loads(target.read_text())["entries"] == json.loads(
            json.dumps(repalg.json_envelope(op)["entries"]))

    def test_nan_payload_is_walked_to_null(self):
        args = cli.build_parser().parse_args(["coherent", "--k", "1", "--rho", "0"])
        text = cli._json_text(args, {"a": np.float64("nan"), "b": (0.5, math.inf),
                                     "c": np.array([np.nan, -0.0])})
        assert json.loads(text) == {"_meta": cli._meta(args), "a": None,
                                    "b": [0.5, math.inf], "c": [None, -0.0]}
        assert '"b": [\n    0.5,\n    Infinity\n  ]' in text

    def test_jsonable_unwraps_numpy(self):
        value = cli._jsonable({"a": np.array([0.5, np.nan]), "b": np.longdouble(0.25),
                               "c": np.int64(7), "d": (np.float64(1.0), None)})
        assert value == {"a": [0.5, None], "b": 0.25, "c": 7, "d": [1.0, None]}
        assert type(value["b"]) is float and type(value["c"]) is int


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

    def test_a_module_named_twice_is_counted_once(self, capsys, tmp_path):
        assert run_cli("verify-all", "--module", "specfun", "--module", "specfun",
                       "--out", str(tmp_path / "report.json")) == 0
        assert "specfun: PASS (4/4 checks)" in capsys.readouterr().out

    def test_a_failed_report_prints_nothing(self, capsys, tmp_path):
        # the per-module lines were printed before the report was written
        (tmp_path / "blocker").write_text("")
        assert run_cli("verify-all", "--module", "specfun",
                       "--out", str(tmp_path / "blocker" / "report.json")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

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


_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_block(section, language):
    # the first fenced block of the language under the README section
    text = open(_README, encoding="utf-8").read()
    start = text.index(f"```{language}\n", text.index(f"\n## {section}\n")) + len(language) + 4
    return text[start:text.index("```", start)]


def _readme_commands():
    # the sh block's commands, `\` continuations joined, comments dropped
    joined = _readme_block("Command line", "sh").replace("\\\n", " ")
    lines = [line.strip() for line in joined.splitlines()]
    return [line.split()[1:] for line in lines if line and not line.startswith("#")]


def test_readme_command_block_runs(capsys, tmp_path, monkeypatch):
    # verify-all exits 1 for the documented k = 1/2 containment failure
    commands = _readme_commands()
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in commands} == set(choices)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run_config.json").write_text(_readme_block("Command line", "json"))
    for argv in commands:
        expected = 1 if argv[0] == "verify-all" else 0
        assert run_cli(*argv) == expected, argv
        outputs = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--summary")]
        assert outputs and all((tmp_path / name).is_file() for name in outputs), argv
    capsys.readouterr()
