import io
import json
import math
import os
import signal
import subprocess
import sys

import pytest

from delpezzo import cli


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "delpezzo.cli", *args],
        capture_output=True, text=True,
    )
    return proc


class TestParsing:
    def test_count_defaults(self):
        cfg = cli.parse_args(["count", "--bmax", "10"])
        assert cfg.command == "count" and cfg.bmax == 10
        assert cfg.method == "torsor"

    def test_densities_primes(self):
        cfg = cli.parse_args(["densities", "--p", "2,3,5", "--rmax", "4"])
        assert cfg.primes == [2, 3, 5] and cfg.rmax == 4

    def test_negative_bmax_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["count", "--bmax", "-1"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["count", "--bmax", "1", "--nope"])

    def test_threads_env(self, monkeypatch):
        monkeypatch.setenv("DELPEZZO_THREADS", "3")
        cfg = cli.parse_args(["count", "--bmax", "10"])
        assert cfg.threads == 3
        cfg = cli.parse_args(["count", "--bmax", "10", "--threads", "2"])
        assert cfg.threads == 2  # flag wins

    @pytest.mark.parametrize("argv, expected", [
        (["verify"], {"suite": "all", "bmax": 1000}),
        (["constants"], {"prime_cutoff": 10**6, "beta_cutoff": 100}),
        (["densities"], {"primes": [2, 3, 5, 7], "rmax": 2, "mode": "tables"}),
        (["zeta"], {"s": 2.0, "primes": [2, 3, 5], "prime_cutoff": 10**5}),
        (["decompose"], {"grid": [1000, 10000, 100000], "beta_cutoff": 100}),
    ])
    def test_command_defaults(self, argv, expected):
        cfg = cli.parse_args(argv)
        assert cfg.command == argv[0] and cfg.format == "json" and cfg.out is None
        assert {k: getattr(cfg, k) for k in expected} == expected

    def test_lists_parsed(self):
        cfg = cli.parse_args(["decompose", "--grid", "100,10,,1000"])
        assert cfg.grid == [10, 100, 1000]
        assert cli.parse_args(["decompose", "--grid="]).grid == []
        assert cli.parse_args(["densities", "--p="]).primes == []

    def test_threads_default_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("DELPEZZO_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli.parse_args(["count", "--bmax", "10"]).threads == 3
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli.parse_args(["count", "--bmax", "10"]).threads == 64

    def test_threads_cap(self, monkeypatch):
        monkeypatch.delenv("DELPEZZO_THREADS", raising=False)
        assert cli.parse_args(["count", "--bmax", "10", "--threads", "256"]).threads == 256
        monkeypatch.setenv("DELPEZZO_THREADS", str(cli.MAX_THREADS))
        assert cli.parse_args(["count", "--bmax", "10"]).threads == cli.MAX_THREADS
        # the default is capped like the flag, whatever the machine
        monkeypatch.delenv("DELPEZZO_THREADS")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1000)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(300)),
                            raising=False)
        assert cli.parse_args(["count", "--bmax", "10"]).threads == cli.MAX_THREADS
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli.parse_args(["count", "--bmax", "10"]).threads == cli.MAX_THREADS

    def test_threads_env_malformed(self, monkeypatch):
        monkeypatch.setenv("DELPEZZO_THREADS", "two")
        with pytest.raises(cli.UsageError):
            cli.parse_args(["count", "--bmax", "10"])


class TestDefaultCutoffs:
    def test_defaults_reach_the_library(self, monkeypatch, capsys):
        # the library sets no default cutoffs; the CLI's reach it unchanged
        from delpezzo import constants, zeta

        calls = {}

        def spy(module, name):
            real = getattr(module, name)

            def record(*args, **kwargs):
                calls[name] = args, kwargs
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, record)

        spy(constants, "constant_bundle")
        spy(zeta, "residual_product_at_zero")
        spy(zeta, "count_decomposition")
        for argv in (["constants"], ["zeta"], ["decompose", "--grid="]):
            assert cli.main([*argv, "--no-timestamp"]) == 0, argv
        assert calls["constant_bundle"] == ((10**6, 100), {})
        assert calls["residual_product_at_zero"] == ((10**5,), {})
        assert calls["count_decomposition"][1]["beta_cutoff"] == 100


class TestExitCodes:
    def test_success(self):
        assert run_cli(["count", "--bmax", "100", "--no-timestamp"]).returncode == 0

    def test_usage(self):
        assert run_cli(["count", "--bmax", "-5"]).returncode == 1

    def test_cap(self):
        assert run_cli(["count", "--bmax", "100", "--method", "naive"]).returncode == 3

    def test_densities_cap(self):
        # the table count's cap is p^r <= 2^160: the largest prime below 2^80
        # passes it at r = 2 and not at r = 3
        p = str(2**80 - 65)
        assert run_cli(["densities", "--p", p, "--rmax", "2", "--no-timestamp"]).returncode == 0
        assert run_cli(["densities", "--p", p, "--rmax", "3"]).returncode == 3

    @pytest.mark.parametrize("args", [
        ["constants", "--prime-cutoff", "1000", "--beta-cutoff", "401"],
        ["constants", "--prime-cutoff", "100000001"],
        ["zeta", "--prime-cutoff", "100000001"],
        ["decompose", "--beta-cutoff", "401"],
    ])
    def test_cutoff_caps(self, args):
        # one past the cap of the beta box (400) or of an Euler product (10^8)
        proc = run_cli([*args, "--no-timestamp"])
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("resource cap:") and "Traceback" not in proc.stderr

    def test_help(self):
        proc = run_cli(["--help"])
        assert proc.returncode == 0 and "usage" in proc.stdout.lower()

    @pytest.mark.parametrize("args", [
        ["densities", "--p", "4", "--rmax", "1"],
        ["densities", "--p", "0"],
        ["constants", "--prime-cutoff", "50"],
        ["constants", "--beta-cutoff", "0"],
        ["zeta", "--prime-cutoff", "50"],
        ["zeta", "--p", "2,9"],
        ["zeta", "--s", "-1"],
        ["zeta", "--s", "nan"],
        ["constants", "--quad-tol", "1e-10"],  # not an option of constants
        ["decompose", "--prime-cutoff", "1000"],  # not an option of decompose
        ["decompose", "--beta-cutoff", "0"],
        ["decompose", "--grid", "0"],
        ["count", "--bmax", "10", "--threads", "0"],
        ["count", "--bmax", "10", "--threads", "-2"],
        ["count", "--bmax", "10", "--threads", "257"],  # one past MAX_THREADS
        ["count", "--bmax", "10", "--threads", "100000"],
        ["zeta", "--p", str(2**1279 - 1)],  # a prime past the proof limit
        ["densities", "--p", str(2**1279 - 1)],
        ["densities", "--mode", "auto"],  # the table count, now its default
        ["count", "--bmax", "0"],
        ["densities", "--rmax", "0"],
        ["zeta", "--s", "inf"],
    ])
    def test_domain_errors_are_usage_errors(self, args, capsys):
        assert cli.main(args) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("env", ["0", "-1", "257"])
    def test_threads_env_domain_errors_are_usage_errors(self, env, monkeypatch, capsys):
        # the environment variable is checked like the flag it stands for
        monkeypatch.setenv("DELPEZZO_THREADS", env)
        assert cli.main(["count", "--bmax", "10"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")

    def test_verify_past_the_oracle_cap(self, monkeypatch, capsys):
        # both counts are taken at the oracle's cap, lowered here to keep it quick
        from delpezzo import surface

        monkeypatch.setattr(surface, "ORACLE_CAP", 500)
        assert cli.main(["verify", "--suite", "bijection", "--bmax", "20000",
                         "--threads", "1", "--no-timestamp"]) == cli.EXIT_OK
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["B"] == 500 and row["torsor"] == row["oracle"] == 1005

    def test_count_past_the_former_degenerate_cap(self, monkeypatch, capsys):
        # the degenerate count accepts every B the torsor counter accepts;
        # the torsor count is stubbed out to keep it quick
        from delpezzo import torsor

        calls = []
        monkeypatch.setattr(torsor, "count_torsor", lambda B, workers=None: calls.append(B) or 0)
        assert cli.main(["count", "--bmax", "200000000", "--threads", "1",
                         "--no-timestamp"]) == cli.EXIT_OK
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert calls == [200000000] and row["n_uh"] == 243193837

    @pytest.mark.parametrize("out", ["missing/r.json", "file/r.json", "."])
    def test_bad_out_is_a_usage_error_before_any_work(self, out, tmp_path, monkeypatch, capsys):
        # a missing directory, a file in place of one, a directory in place of a file
        from delpezzo import torsor

        def count_torsor(B, workers=None):
            pytest.fail("the count ran before --out was checked")

        monkeypatch.setattr(torsor, "count_torsor", count_torsor)
        (tmp_path / "file").write_text("")
        assert cli.main(["count", "--bmax", "10", "--out", str(tmp_path / out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--out" in err

    def test_killed_counting_child(self, monkeypatch, capsys):
        # a child killed from outside sends no count: a package error, exit 2
        from delpezzo import torsor

        caller, count_groups = os.getpid(), torsor._count_groups

        def count_or_die(B, groups):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return count_groups(B, groups)

        monkeypatch.setattr(torsor, "_count_groups", count_or_die)
        assert cli.main(["count", "--bmax", "100000", "--threads", "2",
                         "--no-timestamp"]) == cli.EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a counting process failed: no count")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("method", ["naive", "oracle", "torsor"])
    def test_count_methods_agree(self, method, capsys):
        # "--out -" is stdout
        assert cli.main(["count", "--bmax", "20", "--method", method, "--threads", "1",
                         "--out", "-", "--no-timestamp"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["rows"][0]["N_pos"] == 16

    def test_verify_reports_a_failed_round_trip(self, monkeypatch, capsys):
        from delpezzo import torsor

        monkeypatch.setattr(torsor, "from_surface", lambda p: None)
        assert cli.main(["verify", "--suite", "all", "--bmax", "20", "--threads", "1",
                         "--no-timestamp"]) == cli.EXIT_VERIFY
        rows = {r["check"]: r["pass"] for r in json.loads(capsys.readouterr().out)["rows"]}
        assert rows == {"count_equality": True, "round_trip": False, "sign_identities": True}

    def test_largest_proven_prime(self, capsys):
        # is_prime is a proof below psi_13 = 3317044064679887385961981, the
        # least strong pseudoprime to its 13 bases, and answers nothing from it on
        from delpezzo.arith import _PRIME_PROOF_LIMIT, is_prime

        p = _PRIME_PROOF_LIMIT - 1
        while not is_prime(p):
            p -= 1
        assert cli.main(["zeta", "--p", str(p), "--prime-cutoff", "100",
                         "--no-timestamp"]) == cli.EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {r["name"]: r["value"] for r in rows}[f"euler_factor_p{p}"] == 1.0
        assert cli.main(["zeta", "--p", str(_PRIME_PROOF_LIMIT), "--no-timestamp"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_out_is_checked_on_the_file_itself_when_it_exists(self, tmp_path, monkeypatch, capsys):
        # an existing file is written whatever its directory allows, and is
        # refused when the file itself is not writable
        out, access = tmp_path / "r.json", os.access
        out.write_text("")
        args = ["count", "--bmax", "1000", "--threads", "1", "--no-timestamp", "--out", str(out)]
        monkeypatch.setattr(os, "access", lambda path, mode: str(path) != str(tmp_path)
                            and access(path, mode))
        assert cli.main(args) == cli.EXIT_OK
        assert json.loads(out.read_text())["rows"][0]["N_pos"] == 2214
        monkeypatch.setattr(os, "access", lambda path, mode: str(path) != str(out)
                            and access(path, mode))
        assert cli.main(args) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    def test_report_to_a_full_device(self, capsys):
        # a failed write is a package error, exit 2, with one error line
        assert cli.main(["count", "--bmax", "10", "--out", "/dev/full"]) == cli.EXIT_VERIFY
        assert capsys.readouterr().err.startswith("error: cannot write the report:")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_stdout_to_a_full_device(self, unbuffered):
        # buffered (the default off a terminal) stdout keeps the failed bytes,
        # which the flush at interpreter exit must not try again
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "delpezzo.cli", "count", "--bmax", "10"],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == cli.EXIT_VERIFY
        assert proc.stderr == (
            "error: cannot write the report: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_report_to_a_failing_stdout(self, failing, monkeypatch, capsys):
        # the report is flushed before main returns, so a small one fails there too
        class Full(io.StringIO):
            pass

        def fail(*args):
            raise OSError(28, "No space left on device")

        setattr(Full, failing, fail)
        monkeypatch.setattr(sys, "stdout", Full())
        assert cli.main(["count", "--bmax", "10", "--no-timestamp"]) == cli.EXIT_VERIFY
        assert capsys.readouterr().err == (
            "error: cannot write the report: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("s", ["58", "1000", "1e300"])
    def test_zeta_at_large_s(self, s):
        # p^x and 4^s overflow a double past x = 1024; every value tends to 1
        proc = run_cli(["zeta", "--s", s, "--prime-cutoff", "1000", "--no-timestamp"])
        assert proc.returncode == 0 and proc.stderr == ""
        rows = json.loads(proc.stdout)["rows"]
        assert all(math.isfinite(r["value"]) and math.isfinite(r["error"]) for r in rows)
        assert all(r["value"] == 1.0 for r in rows if r["argument"] == float(s))

    def test_verify_passes(self):
        assert run_cli(["verify", "--suite", "all", "--bmax", "200",
                        "--no-timestamp"]).returncode == 0


class TestReports:
    def test_count_json_schema(self):
        proc = run_cli(["count", "--bmax", "1000", "--method", "torsor",
                        "--format", "json", "--no-timestamp"])
        doc = json.loads(proc.stdout)
        row = doc["rows"][0]
        assert row["B"] == 1000 and row["N_pos"] == 2214

    def test_densities_csv_header(self):
        proc = run_cli(["densities", "--p", "2", "--rmax", "1", "--format",
                        "csv", "--no-timestamp"])
        lines = proc.stdout.splitlines()
        assert lines[0] == "p,r,estimate,closed_form,abs_error"

    def test_decompose_csv_header(self):
        proc = run_cli(["decompose", "--grid", "100", "--beta-cutoff", "5",
                        "--format", "csv", "--no-timestamp"])
        assert proc.stdout.splitlines()[0] == \
            "B,n_uh,main_delta,main_linear,residual,residual_scaled"

    def test_empty_rows_header_only(self):
        text = cli.render_report([], "csv", None,
                                 cli._SCHEMAS["decompose"])
        assert text == "B,n_uh,main_delta,main_linear,residual,residual_scaled\n"

    def test_csv_timestamp_line(self):
        assert cli.render_report([{"a": 1}], "csv", "T") == "# generated T\na\n1\n"

    def test_timestamp_line_suppressed(self):
        with_ts = run_cli(["count", "--bmax", "50"]).stdout
        without = run_cli(["count", "--bmax", "50", "--no-timestamp"]).stdout
        assert "generated_at" in with_ts and "generated_at" not in without

    def test_determinism_across_threads(self):
        a = run_cli(["count", "--bmax", "2000", "--threads", "1",
                     "--no-timestamp"]).stdout
        b = run_cli(["count", "--bmax", "2000", "--threads", "2",
                     "--no-timestamp"]).stdout
        assert a == b

    def test_big_int_as_string(self):
        text = cli.render_report([{"n": 2**60}], "json", None)
        assert json.loads(text)["rows"][0]["n"] == str(2**60)

    def test_csv_written_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = run_cli(["densities", "--p", "2,3", "--rmax", "1", "--format",
                        "csv", "--no-timestamp", "--out", str(out)])
        assert proc.returncode == 0
        content = out.read_bytes()
        assert content.startswith(b"p,r,") and b"\r" not in content

    def test_constants_json_fields(self):
        proc = run_cli(["constants", "--prime-cutoff", "1000", "--beta-cutoff",
                        "5", "--no-timestamp"])
        assert proc.returncode == 0
        row = json.loads(proc.stdout)["rows"][0]
        assert row["alpha"] == "1/288"
        for key in ("c", "c_error", "omega_inf", "tau", "tau_tail", "beta",
                    "beta_tail", "tau_H", "peyre", "peyre_error", "leading_coeff"):
            assert key in row
        assert abs(row["leading_coeff"] - row["peyre"]) < 1e-9


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
class TestBlasThreads:
    # importing the CLI before numpy leaves OpenBLAS with no helper thread,
    # unless the user chose a number of BLAS threads
    PROBE = (
        "import os, delpezzo.cli, numpy\n"
        "threads = [line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('Threads:')]\n"
        "print(threads[0], os.environ['OPENBLAS_NUM_THREADS'])\n"
    )

    def probe(self, monkeypatch, preset):
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        proc = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_one_thread(self, monkeypatch):
        assert self.probe(monkeypatch, None) == ["1", "1"]

    def test_a_preset_value_wins(self, monkeypatch):
        assert self.probe(monkeypatch, "3")[1] == "3"


class TestLazyImports:
    # the package loads a submodule on first access, so a command loads only
    # the modules it calls; run in a fresh interpreter, after the command
    PROBE = (
        "import contextlib, io, json, sys\n"
        "from delpezzo import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )

    def loaded(self, argv):
        proc = subprocess.run([sys.executable, "-c", self.PROBE, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0
        return set(modules)

    def test_constants_loads_no_counter(self):
        loaded = self.loaded(["constants", "--prime-cutoff", "1000", "--beta-cutoff", "2",
                              "--no-timestamp"])
        assert "delpezzo.constants" in loaded
        assert not loaded & {"delpezzo.torsor", "delpezzo.surface", "delpezzo.zeta"}

    def test_count_loads_no_constants(self):
        loaded = self.loaded(["count", "--bmax", "1000", "--no-timestamp"])
        assert "delpezzo.torsor" in loaded
        assert not loaded & {"delpezzo.constants", "delpezzo.zeta"}

    def test_no_numpy_ma_or_polynomial(self):
        # np.unique imports numpy.ma and leggauss numpy.polynomial (about
        # 2 MB of RSS between them); no command needs either
        for argv in (["constants", "--prime-cutoff", "1000", "--beta-cutoff", "10"],
                     ["count", "--bmax", "10000", "--threads", "2"]):
            extra = self.loaded([*argv, "--no-timestamp"]) & {"numpy.ma", "numpy.polynomial"}
            assert not extra, (argv, extra)

    @pytest.mark.parametrize("argv, built", [
        pytest.param(["count", "--bmax", "10000", "--threads", "2"], False, id="count"),
        pytest.param(["constants", "--prime-cutoff", "1000", "--beta-cutoff", "10"], True,
                     id="constants"),
    ])
    def test_tail_coefficients_built_on_first_use(self, argv, built):
        # count imports arith but never evaluates dint, so it must not pay for
        # the endpoint expansion's tail coefficients; constants (moduli up to
        # 1000, past the crossover) builds them
        probe = (
            "import contextlib, io, json, sys\n"
            "from delpezzo import arith, cli\n"
            "assert arith._tail_coefficients.cache_info().currsize == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, arith._tail_coefficients.cache_info().currsize == 1]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps([*argv, "--no-timestamp"])],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, built]

    def test_reexported_names(self):
        import delpezzo
        from delpezzo import torsor

        assert delpezzo.count_torsor is torsor.count_torsor
        assert delpezzo.constant_bundle is delpezzo.constants.constant_bundle
        with pytest.raises(AttributeError):
            delpezzo.no_such_name
