"""Command line behavior: grammar, renderers, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loophom import analysis, cli
from loophom.analysis import VerificationReport, betti_table, check_dichotomy
from loophom.cli import EXIT_CONFIG, EXIT_CUTOFF, EXIT_FAIL, EXIT_IO, EXIT_OK, main
from loophom.errors import LoophomError

GOLDEN_JSON = (
    '{"space":"hol","n":1,"field":"Q","grading":"ordinary","cutoff":10,'
    '"components":{"3":{"0":1,"3":1}}}\n'
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute ------------------------------------------------------------------


def test_compute_json_golden(capsys):
    code, out, err = run(
        ["compute", "--space", "hol", "--n", "1", "--field", "q",
         "--component", "3", "--cutoff", "10", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK and err == ""
    assert out == GOLDEN_JSON


def test_compute_csv(capsys):
    code, out, _ = run(
        ["compute", "--space", "hol", "--n", "1", "--field", "q",
         "--components", "0..1", "--cutoff", "6", "--format", "csv"],
        capsys,
    )
    assert code == EXIT_OK
    assert out == "component,degree,dimension\n0,0,1\n0,2,1\n1,0,1\n1,3,1\n"


def test_compute_text(capsys):
    code, out, _ = run(
        ["compute", "--space", "loop", "--n", "2", "--field", "q",
         "--component", "1", "--cutoff", "8"],
        capsys,
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "space=loop n=2 field=Q grading=ordinary cutoff=8"
    assert "component 1:" in out
    assert "  degree 0: 1" in out


def test_compute_negative_range_unquoted(capsys):
    code, out, _ = run(
        ["compute", "--space", "loop", "--n", "1", "--field", "q",
         "--components", "-2..2", "--cutoff", "6", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert sorted(payload["components"]) == ["-1", "-2", "0", "1", "2"]


def test_compute_regraded_shift(capsys):
    common = ["compute", "--space", "loop", "--n", "2", "--field", "q",
              "--component", "1", "--cutoff", "8", "--format", "json"]
    _, ordinary, _ = run(common, capsys)
    _, regraded, _ = run(common + ["--grading", "regraded"], capsys)
    o = json.loads(ordinary)["components"]["1"]
    r = json.loads(regraded)["components"]["1"]
    assert {str(int(d) - 4): v for d, v in o.items()} == r


def test_compute_makes_one_betti_table_call(monkeypatch, capsys):
    calls = []
    real = analysis.betti_table

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "betti_table", counting)
    code, _, _ = run(
        ["compute", "--space", "loop", "--n", "2", "--field", "f3",
         "--components", "-3..3", "--cutoff", "10"],
        capsys,
    )
    assert code == EXIT_OK and len(calls) == 1


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("spec", ["q", "f2", "f3"])
@pytest.mark.parametrize("components", [range(-2, 3)], ids=["all-found"])
def test_compute_equals_per_component_library_columns(fmt, spec, components, capsys):
    space = cli.SpaceSpec("loop", 2, cli.make_field(spec))
    columns = {
        k: analysis.betti_table(space, [k], 9, "regraded").column(k) for k in components
    }
    assert all(columns.values())  # every component has its degree-0 class
    code, out, err = run(
        ["compute", "--space", "loop", "--n", "2", "--field", spec,
         "--components", f"{components[0]}..{components[-1]}",
         "--cutoff", "9", "--grading", "regraded", "--format", fmt],
        capsys,
    )
    assert code == EXIT_OK and err == ""
    if fmt == "text":
        assert out == cli._render_text(space, 9, "regraded", columns)
    elif fmt == "json":
        assert out == cli._render_json(space, 9, "regraded", columns)
    else:
        assert out == cli._render_csv(columns)


# -- compute --output ---------------------------------------------------------


def test_export_byte_stable(tmp_path, capsys):
    argv = lambda name: [
        "compute", "--space", "hol", "--n", "1", "--field", "q",
        "--component", "3", "--cutoff", "10", "--format", "json",
        "--output", str(tmp_path / name),
    ]
    assert run(argv("a.json"), capsys)[0] == EXIT_OK
    assert run(argv("b.json"), capsys)[0] == EXIT_OK
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b == GOLDEN_JSON.encode()


def test_export_csv_file(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(
        ["compute", "--space", "loop", "--n", "1", "--field", "f3",
         "--components", "0..1", "--cutoff", "8", "--format", "csv",
         "--output", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "component,degree,dimension"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_export_unwritable_path(tmp_path, capsys):
    code, _, err = run(
        ["compute", "--space", "hol", "--n", "1", "--field", "q",
         "--component", "0", "--cutoff", "6", "--format", "json",
         "--output", str(tmp_path / "missing" / "out.json")],
        capsys,
    )
    assert code == EXIT_IO and "io error" in err


# -- verify -------------------------------------------------------------------


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(
        ["verify", "--check", "collapse", "--n", "2", "--field", "f3",
         "--components", "-2..2", "--cutoff", "16"],
        capsys,
    )
    assert code == EXIT_OK
    assert out.strip().endswith("Pass")


def test_verify_all_runs_every_applicable_check(capsys):
    code, out, _ = run(
        ["verify", "--check", "all", "--n", "2", "--field", "f2",
         "--components", "0..2", "--cutoff", "14", "--k", "2"],
        capsys,
    )
    assert code == EXIT_OK
    names = [line.split(" ")[0] for line in out.strip().splitlines()]
    assert names == ["collapse", "periodicity", "dichotomy", "unit", "oracle"]


def test_verify_all_rational_skips_prime_checks(capsys):
    code, out, _ = run(
        ["verify", "--check", "all", "--n", "1", "--field", "q",
         "--components", "0..1", "--cutoff", "10"],
        capsys,
    )
    assert code == EXIT_OK
    names = [line.split(" ")[0] for line in out.strip().splitlines()]
    assert names == ["dichotomy", "oracle"]


@pytest.mark.parametrize(
    "name,function", [row[:2] for row in analysis.CHECKS], ids=[row[0] for row in analysis.CHECKS]
)
def test_verify_fail_exits_one(name, function, capsys, monkeypatch):
    # each check's function is looked up on `analysis` when the CLI calls it
    forced = VerificationReport(name, {"n": 2}, "Fail", ["forced"])
    monkeypatch.setattr(cli.analysis, function, lambda *a, **k: forced)
    code, out, _ = run(
        ["verify", "--check", name, "--n", "2", "--field", "f2",
         "--component", "0", "--cutoff", "10", "--k", "2"],
        capsys,
    )
    assert code == EXIT_FAIL
    assert out == f"{name} [n=2]: Fail witness=['forced']\n"


def test_verify_check_choices_are_the_table(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    names = [row[0] for row in analysis.CHECKS]
    assert f"--check {{{','.join(names)},all}}" in capsys.readouterr().out
    assert cli.CHECKS == (*names, "all")


def test_verify_prints_the_golden_transcript(capsys):
    # each "$ loophom ..." line of the file is followed by what it prints
    transcript = (Path(__file__).parent / "verify_all_golden.txt").read_text()
    blocks = transcript.split("$ loophom ")[1:]
    assert len(blocks) == 2
    for block in blocks:
        command, _, expected = block.partition("\n")
        assert run(command.split(), capsys) == (EXIT_OK, expected, "")


def test_verify_cutoff_too_tight_exits_three(capsys):
    code, _, err = run(
        ["verify", "--check", "unit", "--n", "2", "--field", "f3",
         "--k", "1", "--cutoff", "3"],
        capsys,
    )
    assert code == EXIT_CUTOFF and "cutoff error" in err


def test_verify_noclaim_is_success(capsys):
    code, out, _ = run(
        ["verify", "--check", "periodicity", "--n", "1", "--field", "f3",
         "--k", "1", "--components", "0..1", "--cutoff", "10"],
        capsys,
    )
    assert code == EXIT_OK and "NoClaim" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--check", "oracle", "--n", "2", "--field", "f3",
         "--components", "0..1"],
        ["verify", "--check", "oracle", "--n", "1", "--field", "f2",
         "--components", "0..1"],
        ["verify", "--check", "oracle", "--n", "1", "--field", "f3",
         "--components", "-3..3", "--cutoff", "20"],
        ["verify", "--check", "oracle", "--n", "2", "--field", "q",
         "--components", "-3..3", "--cutoff", "20"],
    ],
)
def test_verify_oracle_any_field_and_n(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert out.startswith("oracle [") and out.strip().endswith("Pass")


# -- config errors ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["compute", "--space", "hol", "--n", "1", "--field", "f4",
          "--component", "0"], "not prime"),
        (["compute", "--space", "hol", "--n", "1", "--field", "r",
          "--component", "0"], "field spec"),
        (["compute", "--space", "hol", "--n", "0", "--field", "q",
          "--component", "0"], "positive"),
        (["compute", "--space", "hol", "--n", "1", "--field", "q",
          "--component", "-1"], "nonnegative"),
        (["compute", "--space", "loop", "--n", "1", "--field", "q",
          "--component", "0", "--components", "0..1"], "not both"),
        (["compute", "--space", "loop", "--n", "1", "--field", "q"],
         "selection is required"),
        (["compute", "--space", "loop", "--n", "1", "--field", "q",
          "--components", "3..1"], "empty component range"),
        (["compute", "--space", "loop", "--n", "1", "--field", "q",
          "--components", "a..b"], "bad component range"),
        (["compute", "--space", "loop", "--n", "1", "--field", "q",
          "--component", "0", "--cutoff", "-1"], "cutoff"),
        (["verify", "--check", "periodicity", "--n", "1", "--field", "f2",
          "--components", "0..1"], "needs --k"),
        (["verify", "--check", "unit", "--n", "1", "--field", "f2",
          "--k", "-1"], "positive integer"),
        (["verify", "--check", "oracle", "--n", "0", "--field", "f2",
          "--components", "0..1"], "positive"),
        (["verify", "--check", "oracle", "--n", "2", "--field", "f2"],
         "selection is required"),
        (["verify", "--check", "collapse", "--n", "2", "--field", "q",
          "--components", "0..1"], "prime field"),
    ],
)
def test_config_errors_exit_two(argv, needle, capsys):
    code, _, err = run(argv, capsys)
    assert code == EXIT_CONFIG
    assert needle in err


def test_verify_negative_cutoff_exits_two(capsys):
    code, out, err = run(
        ["verify", "--check", "all", "--n", "2", "--field", "f2",
         "--components", "0..1", "--k", "2", "--cutoff", "-3"],
        capsys,
    )
    assert code == EXIT_CONFIG and out == ""
    assert "cutoff must be nonnegative, got -3" in err


def _compute_argv(spec):
    return ["compute", "--space", "loop", "--n", "1", "--field", spec,
            "--component", "1", "--cutoff", "4"]


@pytest.mark.parametrize(
    "spec", ["q", "Q", " q ", "rational", "f2", "F3", "f5", "f101", "f0"]
)
def test_library_and_cli_read_a_field_spec_alike(spec, capsys):
    code, out, err = run(_compute_argv(spec), capsys)
    assert code == EXIT_OK and err == ""
    space = cli.SpaceSpec("loop", 1, cli.make_field(spec))
    column = betti_table(space, [1], 4).column(1)
    assert out == cli._render_text(space, 4, "ordinary", {1: column})


@pytest.mark.parametrize("spec", ["f4", "f1", "r", "gf(3)", "3", "f", "f-3", "f 3", "f\u0663"])
def test_library_and_cli_refuse_a_field_spec_alike(spec, capsys):
    with pytest.raises(LoophomError) as info:
        cli.make_field(spec)
    assert isinstance(info.value, ValueError)
    code, out, err = run(_compute_argv(spec), capsys)
    assert code == EXIT_CONFIG and out == ""
    assert str(info.value) in err


def test_checks_take_the_cli_field_grammar():
    report = check_dichotomy(2, "f3", [0, 1], cutoff=6)
    assert report.params["field"] == cli.make_field(3)


def test_argparse_rejects_unknown_choice():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--space", "disk", "--n", "1", "--field", "q",
              "--component", "0"])
    assert exc.value.code == 2


# -- as a process -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,code,stdout,stderr_needle",
    [
        (["compute", "--space", "hol", "--n", "1", "--field", "q",
          "--component", "3", "--cutoff", "10", "--format", "json"],
         EXIT_OK, GOLDEN_JSON, ""),
        (["compute", "--space", "hol", "--n", "1", "--field", "f4",
          "--component", "0"], EXIT_CONFIG, "", "not prime"),
        (["verify", "--check", "unit", "--n", "2", "--field", "f3",
          "--k", "1", "--cutoff", "3"], EXIT_CUTOFF, "", "cutoff error"),
    ],
    ids=["golden-json", "composite-field", "cutoff-too-tight"],
)
def test_module_runs_as_a_process(argv, code, stdout, stderr_needle):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == code, result.stderr
    assert result.stdout == stdout
    assert stderr_needle in result.stderr


def as_process(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_calls_in_one_process_print_what_each_prints_alone():
    # the parser is built once per process and shared by every call
    compute = ["compute", "--space", "loop", "--n", "2", "--field", "f3",
               "--components", "-1..1", "--cutoff", "8", "--format", "csv"]
    verify = ["verify", "--check", "dichotomy", "--n", "2", "--field", "f3",
              "--components", "0..2", "--cutoff", "8"]
    alone = [as_process(["-m", "loophom.cli", *argv]) for argv in (compute, verify)]
    assert [r.returncode for r in alone] == [EXIT_OK, EXIT_OK]
    script = (
        "import sys\n"
        "from loophom.cli import _parser, main\n"
        f"codes = [main({compute!r}), main({verify!r})]\n"
        "try:\n"
        f"    main({compute + ['--bogus']!r})\n"
        "except SystemExit as exc:\n"
        "    codes.append(exc.code)\n"
        "print(codes, _parser.cache_info().misses, file=sys.stderr)\n"
    )
    together = as_process(["-c", script])
    assert together.stdout == alone[0].stdout + alone[1].stdout
    assert together.stderr.splitlines()[-1] == "[0, 0, 2] 1"
    assert "unrecognized arguments: --bogus" in together.stderr
