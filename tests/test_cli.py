import subprocess
import sys

import pytest

import mutations
from modelgen import doubling_smdl
from smd2cpn import cli, statemachine
from smd2cpn.net import UNIT_TOKEN, PlaceDef
from smd2cpn.translator import translate


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cd_path(models_dir):
    return str(models_dir / "cdplayer.smdl")


def test_translate_writes_files_and_reports(tmp_path, capsys, cd_path):
    out = tmp_path / "cd.cpn"
    dot = tmp_path / "cd.dot"
    code, stdout, stderr = run_cli(capsys, "translate", cd_path,
                                   "-o", str(out), "--dot", str(dot))
    assert code == 0
    assert stderr == ""
    assert "places=20" in stdout and "transitions=28" in stdout
    assert "arcs=102" in stdout and "time_ms=" in stdout
    assert out.read_text(encoding="utf-8").startswith("<?xml")
    assert dot.read_text(encoding="utf-8").startswith("digraph")


def test_translate_is_idempotent_on_disk(tmp_path, capsys, cd_path):
    out = tmp_path / "cd.cpn"
    run_cli(capsys, "translate", cd_path, "-o", str(out))
    first = out.read_bytes()
    run_cli(capsys, "translate", cd_path, "-o", str(out))
    assert out.read_bytes() == first


def test_check_accepts_good_model(capsys, cd_path):
    code, stdout, stderr = run_cli(capsys, "check", cd_path)
    assert code == 0 and stdout.strip() == "ok" and stderr == ""


def test_check_rejects_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.smdl"
    bad.write_text("machine M { state A initial ; state A ; }", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert stdout == ""  # diagnostics stay off the data stream
    assert "duplicate-name" in stderr


def test_check_rejects_what_translate_cannot_write(tmp_path, capsys):
    # the label id of state X's place, P_X_type, is the place id of state X_type
    clash = tmp_path / "clash.smdl"
    clash.write_text("machine M { state X initial ; state X_type ; trans t : X -> X_type ; }",
                     encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "check", str(clash))
    assert (code, stdout) == (2, "")
    assert stderr == "error: repeated XML ids ['P_X_type']\n"


def test_check_rejects_syntax_error_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.smdl"
    bad.write_text("machine M { state S initial ;", encoding="utf-8")
    code, _, stderr = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "line 1" in stderr


def test_check_rejects_deep_guard_with_position(tmp_path, capsys):
    deep = tmp_path / "deep.smdl"
    guard = "(" * 2000 + "x < 1" + ")" * 2000
    deep.write_text("machine M {\n  var x : int = 0 ;\n  state S initial ;\n"
                    f"  trans t : S -> S if ( {guard} ) ;\n}}\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "check", str(deep))
    assert code == 2 and stdout == ""
    assert "line 4, column 125" in stderr and "nested deeper" in stderr


def _deep_models():
    """SMDL texts deep enough to exhaust Python's recursion limit."""
    assignments = ", ".join(["x := x + 1"] * 1000)
    total = " + ".join(["1"] * 1200)
    flat = ("machine M {{\n  var x : int = 0 ;\n  state S initial ;\n  state T ;\n"
            "  trans t : S -> T on go / B {{ {} }} ;\n}}\n")
    nested = ("machine M {\n" + "state S initial {\n" * 600
              + "state L initial ;\n" + "} ;\n" * 600 + "}\n")
    return {"assignments": flat.format(assignments),
            "sum": flat.format(f"x := {total}"), "nesting": nested}


@pytest.mark.parametrize("command", ["check", "translate", "simulate", "equiv"])
@pytest.mark.parametrize("model", ["assignments", "sum", "nesting"])
def test_too_deep_input_is_an_input_error(tmp_path, capsys, model, command):
    path = tmp_path / f"{model}.smdl"
    path.write_text(_deep_models()[model], encoding="utf-8")
    extra = ["-o", str(tmp_path / "out.cpn")] if command == "translate" else []
    code, stdout, stderr = run_cli(capsys, command, str(path), *extra)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {path}: model is nested too deeply to process\n"


@pytest.mark.parametrize("command", ["check", "translate", "simulate", "equiv"])
def test_exponential_update_is_an_input_error(tmp_path, capsys, command):
    # 30 sequential `x := x + x` would compose into a 2**31-node update
    path = tmp_path / "doubling.smdl"
    path.write_text(doubling_smdl(30), encoding="utf-8")
    extra = ["-o", str(tmp_path / "out.cpn")] if command == "translate" else []
    code, stdout, stderr = run_cli(capsys, command, str(path), *extra)
    assert code == 2 and stdout == ""
    assert stderr == (f"{path}: update-too-large: behaviour 'B' composes its "
                      "assignments into a 16383-node update of 'x', more than "
                      "10000 [t.effect]\n")
    assert not (tmp_path / "out.cpn").exists()


@pytest.mark.parametrize("command", ["check", "translate", "simulate", "equiv"])
def test_each_command_validates_the_model_once(tmp_path, capsys, monkeypatch, models_dir,
                                                command):
    # `validate` is counted under every name an smd2cpn module holds it by
    calls = []
    original = statemachine.validate
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "smd2cpn" and vars(module).get("validate") is original:
            monkeypatch.setattr(module, "validate",
                                lambda model: calls.append(1) or original(model))
    empty = tmp_path / "empty.smdl"
    empty.write_text("machine M { }", encoding="utf-8")
    extra = ["-o", str(tmp_path / "out.cpn")] if command == "translate" else []
    invalid = (f"{empty}: initial-count: region must contain exactly one initial state, "
               "found 0 [<root>]\n")
    for path, code, stderr in ((models_dir / "flat.smdl", 0, ""), (empty, 2, invalid)):
        calls.clear()
        assert run_cli(capsys, command, str(path), *extra)[::2] == (code, stderr)
        assert len(calls) == 1, path


def test_missing_input_file(capsys):
    code, _, stderr = run_cli(capsys, "check", "/nonexistent.smdl")
    assert code == 2 and "cannot read" in stderr


def test_input_that_is_not_utf8_cannot_be_read(tmp_path, capsys):
    bad = tmp_path / "latin1.smdl"
    bad.write_bytes("machine M { state \xc4 initial ; }".encode("latin-1"))
    code, stdout, stderr = run_cli(capsys, "check", str(bad))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xc4")


@pytest.mark.parametrize("which", ["output", "dot"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, cd_path, which):
    paths = {"output": tmp_path / "cd.cpn", "dot": tmp_path / "cd.dot"}
    paths[which] = tmp_path / "missing" / f"cd.{which}"
    code, stdout, stderr = run_cli(capsys, "translate", cd_path, "-o", str(paths["output"]),
                                   "--dot", str(paths["dot"]))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"cannot write {paths[which]}: [Errno 2] ")
    assert "Traceback" not in stderr


def test_usage_error_exit_code(capsys):
    code, _, stderr = run_cli(capsys, "translate", "a.smdl")  # -o missing
    assert code == 1 and "usage error" in stderr
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("simulate", "flat.smdl", "--bound", "0"),
    ("equiv", "flat.smdl", "--depth", "0"),
    ("translate", "flat.smdl", "-o", "out.cpn", "--event-capacity", "0"),
    ("simulate", "flat.smdl", "--event-capacity", "0"),
    ("equiv", "flat.smdl", "--event-capacity", "-1"),
])
def test_out_of_range_options_are_usage_errors(tmp_path, capsys, models_dir, argv):
    argv = [str(models_dir / a) if a.endswith(".smdl") else a for a in argv]
    argv = [str(tmp_path / a) if a.endswith(".cpn") else a for a in argv]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert stderr.startswith("usage error:") and "at least 1" in stderr
    assert not (tmp_path / "out.cpn").exists()


def test_simulate_reports_reachability_and_safety(capsys, models_dir):
    code, stdout, stderr = run_cli(capsys, "simulate",
                                   str(models_dir / "flat.smdl"))
    assert code == 0 and stderr == ""
    assert "reachable_states=4" in stdout
    assert "one_safety=held" in stdout


def test_simulate_bound_flag(capsys, models_dir):
    code, stdout, _ = run_cli(capsys, "simulate",
                              str(models_dir / "nested3.smdl"), "--bound", "10")
    assert code == 0
    assert "reachable_states=10 (truncated)" in stdout


def test_equiv_reports_equivalent(capsys, models_dir):
    code, stdout, stderr = run_cli(capsys, "equiv",
                                   str(models_dir / "guarded.smdl"),
                                   "--depth", "5")
    assert code == 0 and stderr == ""
    assert stdout.strip() == "equivalent depth=5"


def test_equiv_takes_a_depth_past_the_pair_space(capsys, models_dir):
    # flat has 4 reachable pairs, so depth 1000 checks no more than depth 8
    code, stdout, stderr = run_cli(capsys, "equiv", str(models_dir / "flat.smdl"),
                                   "--depth", "1000")
    assert code == 0 and stderr == ""
    assert stdout.strip() == "equivalent depth=1000"


def test_equiv_stuck_chain_prints_a_trace(capsys, monkeypatch, cd_path):
    def translate_without_arc(model, config):
        net, tmap = translate(model, config)
        return mutations.delete_arc(net, "P_PAUSED", "T_t2__from_PLAYING", "TtoP"), tmap

    monkeypatch.setattr(cli, "translate", translate_without_arc)
    code, stdout, stderr = run_cli(capsys, "equiv", cd_path)
    assert code == cli.EXIT_PROPERTY
    assert stderr == ""
    assert stdout == ("trace to divergence:\n"
                      "  inject pause\n"
                      "  inject play\n"
                      "  on play / FTS -> PLAYING\n"
                      "divergence: state machine offers 'on pause -> PAUSED' "
                      "but the net cannot match it\n")


def test_simulate_prints_the_first_twenty_safety_violations(capsys, monkeypatch,
                                                            models_dir):
    def translate_with_two_control_tokens(model, config):
        net, tmap = translate(model, config)
        place = net.places["P_Z"]
        net.places["P_Z"] = PlaceDef(place.id, place.name, place.colour,
                                     (UNIT_TOKEN, UNIT_TOKEN))
        return net, tmap

    monkeypatch.setattr(cli, "translate", translate_with_two_control_tokens)
    code, stdout, stderr = run_cli(capsys, "simulate", str(models_dir / "guarded.smdl"))
    assert code == cli.EXIT_PROPERTY == 3
    assert stdout == "reachable_states=312 one_safety=violated\n"
    assert stderr == "".join(f"state {n}: 2 control tokens\n" for n in range(20))


def test_console_entry_point_smoke(tmp_path, cd_path):
    out = tmp_path / "cd.cpn"
    proc = subprocess.run(
        [sys.executable, "-m", "smd2cpn.cli", "translate", cd_path,
         "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
