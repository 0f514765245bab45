import errno
import functools
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from qgr import cli
from qgr.spectrum import DegenerateSpectrum


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMul:
    def test_s1_squared(self, capsys):
        code, out, _ = run(capsys, "mul", "--k", "2", "--n", "4",
                           "--a", "1", "--b", "1")
        assert code == 0 and out.strip() == "(2) + (1,1)"

    def test_point_squared_is_unit(self, capsys):
        code, out, _ = run(capsys, "mul", "--k", "2", "--n", "4",
                           "--a", "2,2", "--b", "2,2")
        assert code == 0 and out.strip() == "1"

    def test_unit_factor(self, capsys):
        code, out, _ = run(capsys, "mul", "--k", "2", "--n", "4",
                           "--a", "", "--b", "2,1")
        assert code == 0 and out.strip() == "(2,1)"

    def test_many_rows(self, capsys):
        code, out, _ = run(capsys, "mul", "--k", "1", "--n", "1000",
                           "--a", "1", "--b", "1")
        assert code == 0 and out.strip() == "(1,1)"

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "mul", "--k", "2", "--n", "4",
                           "--a", "1", "--b", "1", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"k": 2, "n": 4,
                       "terms": [{"p": [2], "c": 1}, {"p": [1, 1], "c": 1}]}

    def test_malformed_partition(self, capsys):
        code, _, err = run(capsys, "mul", "--k", "2", "--n", "4",
                           "--a", "1,2", "--b", "1")
        assert code == 2 and "weakly decreasing" in err

    def test_out_of_box(self, capsys):
        code, _, err = run(capsys, "mul", "--k", "2", "--n", "4",
                           "--a", "3", "--b", "1")
        assert code == 2 and "column bound k=2" in err


class TestUnaryCommands:
    def test_bar(self, capsys):
        code, out, _ = run(capsys, "bar", "--k", "2", "--n", "4",
                           "--class", "1")
        assert code == 0 and out.strip() == "(2,1)"

    def test_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "--k", "2", "--n", "4",
                           "--class", "2,1")
        assert code == 0 and out.strip() == "(1)"

    def test_cshift(self, capsys):
        code, out, _ = run(capsys, "cshift", "--k", "2", "--n", "4",
                           "--class", "", "--j", "1")
        assert code == 0 and out.strip() == "(1,1)"

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "bar", "--k", "2", "--n", "4",
                             "--class", "2")
        _, json_out, _ = run(capsys, "bar", "--k", "2", "--n", "4",
                             "--class", "2", "--output", "json")
        assert text_out.strip() == "(1,1)"
        assert json.loads(json_out)["terms"] == [{"p": [1, 1], "c": 1}]


class TestGW:
    def test_hook_hook_row(self, capsys):
        code, out, _ = run(capsys, "gw", "--k", "2", "--n", "4",
                           "--a", "2,1", "--b", "2,1", "--c", "2")
        assert code == 0 and out.strip() == "value 1, d 1"

    def test_degree_obstruction(self, capsys):
        code, out, _ = run(capsys, "gw", "--k", "2", "--n", "4",
                           "--a", "1", "--b", "1", "--c", "1")
        assert code == 0 and out.strip() == "value 0 (degree obstruction)"

    def test_point_pairing(self, capsys):
        code, out, _ = run(capsys, "gw", "--k", "2", "--n", "4",
                           "--a", "", "--b", "", "--c", "2,2")
        assert code == 0 and out.strip() == "value 1, d 0"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gw", "--k", "2", "--n", "4",
                           "--a", "1", "--b", "1", "--c", "1",
                           "--output", "json")
        assert code == 0 and json.loads(out) == {"value": 0, "d": None}


class TestVerify:
    def test_invalid_k(self, capsys):
        code, _, err = run(capsys, "verify", "--k", "0", "--n", "4")
        assert code == 2 and "1 <= k < n" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--k", "2", "--n", "4",
                           "--suite", "everything")
        assert code == 2 and "unknown suite" in err

    def test_bad_tolerance(self, capsys):
        code, _, err = run(capsys, "verify", "--k", "2", "--n", "4",
                           "--tol", "0")
        assert code == 2 and "tolerance" in err

    @pytest.mark.parametrize("suite", ["spectrum", "all"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_tolerance_not_finite(self, capsys, suite, tol):
        # nan would fail every float gate and inf would pass every one
        code, out, err = run(capsys, "verify", "--k", "2", "--n", "4",
                             "--suite", suite, f"--tol={tol}")
        assert code == 2 and out == ""
        assert "tolerance must be finite and positive" in err

    def test_all_suites_g24(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "2", "--n", "4",
                           "--suite", "all")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0
        suites = {s["suite"]: s for s in doc["suites"]}
        assert suites["commutativity"]["checked"] == 21
        for s in doc["suites"]:
            assert set(s) >= {"suite", "ctx", "checked", "failures"}
            assert s["ctx"] == {"k": 2, "n": 4}
            assert s["failures"] == []

    def test_involution_suite_g25_counts(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "2", "--n", "5",
                           "--suite", "involution")
        assert code == 0
        doc = json.loads(out)
        suites = {s["suite"]: s for s in doc["suites"]}
        assert suites["product_automorphism"]["checked"] == 55

    def test_spectrum_size_limit_checked_first(self, capsys, monkeypatch):
        def refuse(ctx):
            raise AssertionError("work started before the size check")

        monkeypatch.setattr(cli.quantum, "build_table", refuse)
        for suite in ("spectrum", "all"):
            code, out, err = run(capsys, "verify", "--k", "7", "--n", "14",
                                 "--suite", suite)
            assert code == 2 and out == "" and "dimension 3432" in err

    def test_failure_maps_to_exit_one(self, capsys, monkeypatch):
        from qgr.reports import VerifyReport

        def fake(ctx, **kwargs):
            return VerifyReport("commutativity", ctx.k, ctx.n, 1,
                                [{"pair": "made up"}])

        monkeypatch.setattr(cli.quantum, "verify_commutativity", fake)
        code, out, _ = run(capsys, "verify", "--k", "2", "--n", "4",
                           "--suite", "ring")
        assert code == 1
        assert json.loads(out)["failures"] == 1


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the spectrum worker is forked")


RING_SUITES = ("verify_commutativity", "verify_associativity",
               "verify_grading", "verify_pieri_consistency",
               "verify_giambelli", "verify_cyclic")
INVOLUTION_SUITES = ("verify_involution_factorization",
                     "verify_product_automorphism",
                     "verify_duality_identities",
                     "verify_dual_product_identity")
SPECTRUM_SUITES = ("verify_conjugation", "verify_point_conjugation",
                   "verify_positivity", "verify_vanishing")


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
class TestSpectrumWorker:
    def verify_all(self, capsys, monkeypatch, k, n, worker, *extra):
        monkeypatch.setattr(cli, "_spare_cpu", lambda: worker)
        return run(capsys, "verify", "--k", str(k), "--n", str(n),
                   "--suite", "all", *extra)

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 7), (4, 9)])
    def test_worker_prints_the_same_bytes(self, capsys, monkeypatch, k, n):
        here = self.verify_all(capsys, monkeypatch, k, n, False, "--stats")
        there = self.verify_all(capsys, monkeypatch, k, n, True, "--stats")
        assert here[0] == there[0] == 0
        assert here[1] == there[1]
        assert " worker" not in here[2]
        assert "verify_positivity" in there[2] and " worker\n" in there[2]
        # the worker measures its own peak and sends it back
        assert re.search(r"^stats: peak RSS [0-9.]+ MB worker$", there[2],
                         re.M)
        assert there[2].splitlines()[-1].endswith(" MB main")
        no_children_left()

    def test_involution_suites_run_in_the_worker(self, capsys, monkeypatch):
        code, _, err = self.verify_all(capsys, monkeypatch, 3, 7, True,
                                       "--stats")
        assert code == 0
        for name in INVOLUTION_SUITES + SPECTRUM_SUITES:
            assert re.search(rf"^stats: {name} [0-9.]+ s worker$", err, re.M)
        for name in RING_SUITES:
            assert re.search(rf"^stats: {name} [0-9.]+ s main$", err, re.M)
        no_children_left()

    @pytest.mark.parametrize("how", ["raise", "kill"])
    def test_failed_involution_suite_reruns_here(self, capsys, monkeypatch,
                                                 how):
        test_pid = os.getpid()
        dual_product = cli.involution.verify_dual_product_identity

        @functools.wraps(dual_product)  # --stats names the suite
        def failing(ctx, **kwargs):
            if os.getpid() != test_pid:  # only the worker
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError("worker fault")
            return dual_product(ctx, **kwargs)

        here = self.verify_all(capsys, monkeypatch, 3, 7, False)
        monkeypatch.setattr(cli.involution, "verify_dual_product_identity",
                            failing)
        there = self.verify_all(capsys, monkeypatch, 3, 7, True, "--stats")
        assert here[0] == there[0] == 0 and here[1] == there[1]
        status = "signal SIGKILL" if how == "kill" else "exit status 1"
        assert f"worker gave no result ({status})" in there[2]
        lines = there[2].splitlines()
        assert not any(line.endswith(" worker") for line in lines)
        for name in INVOLUTION_SUITES + SPECTRUM_SUITES:
            assert re.search(rf"^stats: {name} [0-9.]+ s main$", there[2],
                             re.M)
        no_children_left()

    def test_failed_fork_runs_every_suite_here(self, capsys, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        here = self.verify_all(capsys, monkeypatch, 3, 7, False)
        fds = sorted(os.listdir("/dev/fd"))
        monkeypatch.setattr(cli.os, "fork", no_fork)
        there = self.verify_all(capsys, monkeypatch, 3, 7, True, "--stats")
        assert here[0] == there[0] == 0 and here[1] == there[1]
        assert " worker" not in there[2] and "verify_positivity" in there[2]
        assert sorted(os.listdir("/dev/fd")) == fds  # the pipe was closed

    def test_other_suites_run_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_spare_cpu", lambda: True)
        for suite in ("ring", "involution", "spectrum"):
            code, _, err = run(capsys, "verify", "--k", "2", "--n", "4",
                               "--suite", suite, "--stats")
            assert code == 0 and " worker" not in err

    def test_degenerate_spectrum_exits_three(self, capsys, monkeypatch):
        def fake(ctx, **kwargs):
            raise DegenerateSpectrum("forced for the test")

        monkeypatch.setattr(cli.spectrum, "joint_eigenbasis", fake)
        for worker in (True, False):
            code, out, err = self.verify_all(capsys, monkeypatch, 2, 4, worker)
            assert code == 3 and out == ""
            assert err == "degenerate spectrum: forced for the test\n"
        no_children_left()

    def test_worker_error_carries_its_traceback(self, monkeypatch):
        def broken_positivity(ctx, classes, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "_spare_cpu", lambda: True)
        monkeypatch.setattr(cli.spectrum, "verify_positivity",
                            broken_positivity)
        fds = sorted(os.listdir("/dev/fd"))
        with pytest.raises(ValueError, match="internal fault") as info:
            cli.main(["verify", "--k", "2", "--n", "4", "--suite", "all"])
        # the worker gave no result, so this process ran the suite again
        # and raised from its own frames
        names = [entry.name for entry in info.traceback]
        assert names[-2:] == ["_timed", "broken_positivity"]
        assert "_run_suites" in names and "_spectrum_suites" in names
        assert "_worker" not in names and info.value.__cause__ is None
        assert sorted(os.listdir("/dev/fd")) == fds
        no_children_left()

    def test_killed_worker_names_the_signal(self, capsys, monkeypatch):
        test_pid = os.getpid()
        positivity = cli.spectrum.verify_positivity

        def killed(ctx, classes, **kwargs):
            if os.getpid() != test_pid:  # only the worker
                os.kill(os.getpid(), signal.SIGKILL)
            return positivity(ctx, classes, **kwargs)

        here = self.verify_all(capsys, monkeypatch, 2, 4, False)
        monkeypatch.setattr(cli.spectrum, "verify_positivity", killed)
        there = self.verify_all(capsys, monkeypatch, 2, 4, True, "--stats")
        assert here[0] == there[0] == 0 and here[1] == there[1]
        assert ("stats: worker gave no result (signal SIGKILL); the "
                "involution and spectrum suites ran in main\n") in there[2]
        assert re.search(r"^stats: verify_vanishing [0-9.]+ s main$",
                         there[2], re.M)
        no_children_left()

    def test_unpicklable_report_reruns_here(self, capsys, monkeypatch):
        from qgr.reports import VerifyReport

        class Label(str):  # a class local to the test does not pickle
            pass

        def failing(ctx, classes, **kwargs):
            return VerifyReport("positivity", ctx.k, ctx.n, 1,
                                [{"class": Label("x")}])

        monkeypatch.setattr(cli.spectrum, "verify_positivity", failing)
        here = self.verify_all(capsys, monkeypatch, 2, 4, False)
        there = self.verify_all(capsys, monkeypatch, 2, 4, True, "--stats")
        assert here[0] == there[0] == 1 and here[1] == there[1]
        assert "gave no result (exit status 1)" in there[2]
        no_children_left()

    def test_long_failure_list_passes_the_pipe(self, capsys, monkeypatch):
        from qgr.reports import VerifyReport

        # far more than a pipe buffer holds, read before the worker exits
        def failing(ctx, classes, **kwargs):
            return VerifyReport("positivity", ctx.k, ctx.n, 1,
                                [{"class": "x" * 100, "i": i}
                                 for i in range(5000)])

        monkeypatch.setattr(cli.spectrum, "verify_positivity", failing)
        here = self.verify_all(capsys, monkeypatch, 2, 4, False)
        there = self.verify_all(capsys, monkeypatch, 2, 4, True)
        assert here[0] == there[0] == 1 and here[1] == there[1]
        assert json.loads(there[1])["failures"] == 5000
        no_children_left()

    def test_ring_error_kills_the_running_worker(self, monkeypatch):
        def broken(ctx, **kwargs):
            raise ValueError("ring fault")

        def slow(ctx, **kwargs):
            time.sleep(60)

        monkeypatch.setattr(cli, "_spare_cpu", lambda: True)
        monkeypatch.setattr(cli.quantum, "verify_commutativity", broken)
        monkeypatch.setattr(cli.spectrum, "joint_eigenbasis", slow)
        start = time.monotonic()
        with pytest.raises(ValueError, match="ring fault"):
            cli.main(["verify", "--k", "2", "--n", "4", "--suite", "all"])
        assert time.monotonic() - start < 30
        no_children_left()


class TestSpareCpu:
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.mark.parametrize("cpus,env,spare", [
        (2, {}, False),  # the BLAS pool takes every CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (2, {"OMP_NUM_THREADS": "1"}, True),
        (2, {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        (2, {"OPENBLAS_NUM_THREADS": "8"}, False),
        (2, {"OPENBLAS_NUM_THREADS": "0"}, False),  # unset to BLAS
        (2, {"OPENBLAS_NUM_THREADS": "two"}, False),
        (4, {"OMP_NUM_THREADS": "3"}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
    ])
    def test_spare_cpu_needs_a_cpu_beyond_blas(self, monkeypatch, cpus, env,
                                               spare):
        for var in self.BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert cli._spare_cpu() is (spare and hasattr(os, "fork"))


class TestVerifyStats:
    def test_stdout_unchanged_and_stats_on_stderr(self, capsys, monkeypatch,
                                                  table_of):
        monkeypatch.setattr(cli, "_spare_cpu", lambda: False)
        plain = run(capsys, "verify", "--k", "3", "--n", "6")
        stats = run(capsys, "verify", "--k", "3", "--n", "6", "--stats")
        assert plain[0] == stats[0] == 0
        assert plain[1] == stats[1] and plain[2] == ""
        lines = stats[2].splitlines()
        assert all(line.startswith("stats: ") for line in lines)
        assert f"stats: table terms {len(table_of(3, 6).coeff)}" in lines
        names = [line.split()[1] for line in lines]
        assert names[0] == "build_table" and "verify_vanishing" in names
        assert lines[-1].startswith("stats: peak RSS ")
        assert lines[-1].endswith(" MB main")


    def test_commutativity_blocks_and_cache_entries(self, capsys):
        plain = run(capsys, "verify", "--k", "4", "--n", "9", "--suite",
                    "ring")
        code, out, err = run(capsys, "verify", "--k", "4", "--n", "9",
                             "--suite", "ring", "--stats")
        assert code == plain[0] == 0 and out == plain[1]
        lines = err.splitlines()
        # dim 126: a block of 64 columns and one of 62
        assert ("stats: commutativity blocks 2 x 64 columns, peak 18 live "
                "prefixes (1.1 MB)") in lines
        ring = len(cli.quantum._RING_CACHE[(4, 9)])
        assert ring and lines[-2] == f"stats: cache entries ring {ring} main"


def test_cli_imports_no_multiprocessing():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, qgr.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


class TestSpectrumCommand:
    def test_projective_line_coords(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--k", "1", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1 and doc["n"] == 2 and len(doc["points"]) == 2
        coords = sorted(p["coords"][0][0] for p in doc["points"])
        assert abs(coords[0] + 1) < 1e-8 and abs(coords[1] - 1) < 1e-8
        assert all(abs(p["coords"][0][1]) < 1e-8 for p in doc["points"])

    def test_g24_point_count(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--k", "2", "--n", "4")
        assert code == 0 and len(json.loads(out)["points"]) == 6

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "spectrum", "--k", "2", "--n", "4")
        _, out2, _ = run(capsys, "spectrum", "--k", "2", "--n", "4")
        assert out1 == out2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_bad_tolerance(self, capsys, tol):
        code, out, err = run(capsys, "spectrum", "--k", "2", "--n", "4",
                             f"--tol={tol}")
        assert code == 2 and out == ""
        assert "tolerance must be finite and positive" in err

    def test_size_limit_exits_two(self, capsys):
        code, out, err = run(capsys, "spectrum", "--k", "7", "--n", "14")
        assert code == 2 and out == "" and "dimension 3432" in err

    def test_builds_no_table(self, capsys, monkeypatch):
        def refuse(ctx):
            raise AssertionError("spectrum built a structure table")

        # the spectrum module can reach a table only through quantum
        assert not hasattr(cli.spectrum, "build_table")
        monkeypatch.setattr(cli.quantum, "build_table", refuse)
        code, out, _ = run(capsys, "spectrum", "--k", "3", "--n", "6")
        assert code == 0 and len(json.loads(out)["points"]) == 20

    def test_seed_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["spectrum", "--k", "2", "--n", "4", "--seed", "1"])
        assert info.value.code == 2

    def test_degenerate_maps_to_exit_three(self, capsys, monkeypatch):
        def fake(ctx, **kwargs):
            raise DegenerateSpectrum("forced for the test")

        monkeypatch.setattr(cli.spectrum, "joint_eigenbasis", fake)
        code, _, err = run(capsys, "spectrum", "--k", "2", "--n", "4")
        assert code == 3 and "degenerate spectrum" in err


class TestArgparseBehavior:
    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["mul", "--k", "2", "--n", "4", "--a", "1"])
        assert info.value.code == 2

    def test_cache_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["mul", "--k", "2", "--n", "4", "--a", "1", "--b", "1",
                      "--cache"])
        assert info.value.code == 2

    def test_internal_value_error_is_not_bad_input(self, monkeypatch):
        def broken(a, b):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli.quantum, "quantum_product", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["mul", "--k", "2", "--n", "4", "--a", "1", "--b", "1"])

    def test_console_entry_point(self):
        assert callable(cli.entry)
