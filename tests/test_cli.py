from __future__ import annotations

import re
import shlex
import subprocess
import sys

import pytest

from pppm.cli import main

from conftest import FIXTURES

SHOP = str(FIXTURES / "imaginary_shop.pppm")
BABY = str(FIXTURES / "chatterbaby.pppm")


def run_cli(*argv):
    return main(list(argv))


# Each command and the flags it requires.  Every command loads its policy
# file the same way, so a file that fails to load fails each one alike.
COMMANDS = {"check": (), "lint": (), "query": ("--role", "r1", "--attribute", "d1"),
            "render": (), "report": ()}


def run_proc(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "pppm.cli", *argv],
        capture_output=True,
        env=env,
    )


def test_check_ok(capsys):
    assert run_cli("check", SHOP) == 0
    assert run_cli("check", BABY) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", COMMANDS)
def test_check_missing_file_is_a_usage_error(capsys, command):
    assert run_cli(command, "nonexistent.pppm", *COMMANDS[command]) == 4
    assert "cannot read" in capsys.readouterr().err


def test_check_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.pppm"
    bad.write_bytes(b'policy "x"\nroles { r1: "\xff" }\n')
    assert run_cli("check", str(bad)) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err
    proc = run_proc("check", str(bad))
    assert proc.returncode == 4 and b"Traceback" not in proc.stderr


def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    plain, marked = tmp_path / "plain.pppm", tmp_path / "bom.pppm"
    text = (FIXTURES / "imaginary_shop.pppm").read_bytes()
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert run_cli("check", str(marked)) == 0
    assert capsys.readouterr().err == ""
    assert run_cli("render", str(plain)) == 0
    expected = capsys.readouterr().out
    assert run_cli("render", str(marked)) == 0
    assert capsys.readouterr().out == expected
    # A parse error keeps its column on the first line.
    plain.write_bytes(b"policy x\n")
    marked.write_bytes(b"\xef\xbb\xbfpolicy x\n")
    assert run_cli("check", str(plain)) == 3
    expected = capsys.readouterr().err
    assert run_cli("check", str(marked)) == 3
    err = capsys.readouterr().err
    assert expected == f"{plain}:1:8: found 'x' (expected a string)\n"
    assert err == expected.replace(str(plain), str(marked))


@pytest.mark.parametrize("command", COMMANDS)
def test_check_unparsable_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.pppm"
    bad.write_text("this is not a policy\n", encoding="utf-8")
    assert run_cli(command, str(bad), *COMMANDS[command]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "1:" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_check_dangling_reference(tmp_path, capsys, command):
    bad = tmp_path / "dangling.pppm"
    bad.write_text(
        'policy "x"\nroles { r1: "A" }\nrole_hierarchy { r1 -> r9 }\n',
        encoding="utf-8",
    )
    assert run_cli(command, str(bad), *COMMANDS[command]) == 1
    assert "unknown role 'r9'" in capsys.readouterr().err


# A parse error wins over a flag that the command would reject.
@pytest.mark.parametrize("argv", [
    *[(command, *flags) for command, flags in COMMANDS.items()],
    ("lint", "--rules", "L0"),
    ("render", "--layers", "bogus"),
], ids=" ".join)
def test_a_parse_error_reads_the_same_for_every_command(tmp_path, capsys, argv):
    bad = tmp_path / "bad.pppm"
    bad.write_text('policy "x"\nroles { r1 "A" }\n', encoding="utf-8")
    assert run_cli(argv[0], str(bad), *argv[1:]) == 3
    assert capsys.readouterr() == ("", f"{bad}:2:12: found a string (expected ':')\n")


@pytest.mark.parametrize("text, report", [
    ('policy "x"\nattributes { d1: "A" }\ntasks { t1: "T" reads d1 }\n'
     'purposes { p1: "P" = [t1] }\npurpose_task_conditions {\n'
     '  p1 task t1 when "age > 18"\n  p1 task t1 when "age > 21"\n}\n',
     "7:3: purpose 'p1' conditions task 't1' more than once"),
    ('policy "x"\nroles { r1: "" }\n', "2:9: role 'r1' has an empty label"),
])
def test_check_reports_a_validation_error_at_its_declaration(tmp_path, capsys, text, report):
    bad = tmp_path / "bad.pppm"
    bad.write_text(text, encoding="utf-8")
    assert run_cli("check", str(bad)) == 1
    assert capsys.readouterr().err == f"{bad}:{report}\n"


def test_no_command_is_a_usage_error(capsys):
    assert run_cli() == 4
    assert "command" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert run_cli("check", SHOP, "--frobnicate") == 4


def test_lint_exit_codes(capsys):
    assert run_cli("lint", BABY) == 2  # error findings present
    capsys.readouterr()
    assert run_cli("lint", BABY, "--rules", "L1") == 0  # warnings only
    capsys.readouterr()
    assert run_cli("lint", BABY, "--rules", "L1", "--deny-warnings") == 2
    capsys.readouterr()
    assert run_cli("lint", BABY, "--rules", "L7") == 0  # info never fails
    capsys.readouterr()
    assert run_cli("lint", BABY, "--rules", "L7", "--deny-warnings") == 0
    capsys.readouterr()
    assert run_cli("lint", SHOP) == 0
    assert capsys.readouterr().out == ""


def test_lint_rules_flag_accepts_commas_and_repeats(capsys):
    assert run_cli("lint", BABY, "--rules", "L1,L8", "--format", "tsv") == 0
    first = capsys.readouterr().out
    assert run_cli("lint", BABY, "--rules", "L1", "--rules", "L8", "--format", "tsv") == 0
    assert capsys.readouterr().out == first
    assert len(first.splitlines()) == 6


def test_lint_unknown_rule(capsys):
    assert run_cli("lint", BABY, "--rules", "L42") == 4
    assert "unknown lint rule" in capsys.readouterr().err


@pytest.mark.parametrize("rules", ("", ","))
def test_lint_empty_rule_selection_is_a_usage_error(capsys, rules):
    # An unset variable passed as --rules must not turn a failing lint green.
    assert run_cli("lint", BABY, "--rules", rules) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no lint rule selected" in captured.err


def test_lint_tsv_format(capsys):
    assert run_cli("lint", BABY, "--rules", "L9", "--format", "tsv") == 2
    out = capsys.readouterr().out
    assert out.startswith("L9\terror\td7\t")
    assert "\x1b[" not in out


# Labels holding a tab, which the policy language lets a string contain.
TAB_POLICY = (
    'policy "tab"\nroles {\n  r1: "Man\tager"\n}\nattributes {\n  d1: "Na\tme"\n}\n'
    'tasks {\n  t1: "Look" reads d1\n}\npurposes {\n  p1: "Sell\tstuff" = [t1]\n}\n'
)


def test_report_escapes_a_tab_inside_a_cell(tmp_path, capsys):
    path = tmp_path / "tab.pppm"
    path.write_text(TAB_POLICY, encoding="utf-8")
    assert run_cli("report", str(path)) == 0
    out = capsys.readouterr().out
    assert "\nr1\tMan\\tager\n" in out
    assert "\np1\tSell\\tstuff\t\n" in out
    for block in out.split("\n\n"):
        header, *rows = block.splitlines()[1:]
        assert [row.count("\t") for row in rows] == [header.count("\t")] * len(rows), block


def test_lint_tsv_escapes_a_tab_inside_a_field(tmp_path, capsys):
    path = tmp_path / "tab.pppm"
    path.write_text(TAB_POLICY, encoding="utf-8")
    assert run_cli("lint", str(path), "--format", "tsv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "L1\twarning\tp1\tno role is allowed to use purpose 'p1' (Sell\\tstuff)",
        "L2\twarning\tr1\trole 'r1' (Man\\tager) has no direct or inherited purpose",
    ]


def test_lint_text_format_is_plain_when_piped(capsys):
    run_cli("lint", BABY, "--rules", "L3")
    out = capsys.readouterr().out
    assert out == "L3 error r1:p24: role 'r1' may use the universal purpose 'p24' (Any)\n"


def test_lint_text_format_colours_severities_on_a_terminal(monkeypatch, capsys):
    run_cli("lint", BABY)
    plain = capsys.readouterr().out
    monkeypatch.delenv("PPPM_NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    run_cli("lint", BABY)
    coloured = capsys.readouterr().out
    for code, severity in (("31", "error"), ("33", "warning"), ("36", "info")):
        assert f" \x1b[{code}m{severity}\x1b[0m " in coloured
    assert re.sub(r"\x1b\[\d+m", "", coloured) == plain


def test_query_conditional(capsys):
    assert run_cli("query", SHOP, "--role", "r4", "--attribute", "d1", "--purpose", "p3") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Conditional"
    assert "residual: 08:00 < now < 17:00" in out
    assert "residual: age > 18" in out


def test_query_allow_and_deny_both_exit_zero(capsys):
    assert run_cli("query", SHOP, "--role", "r2", "--attribute", "d1") == 0
    assert capsys.readouterr().out.splitlines()[0] == "Allow"
    assert run_cli("query", SHOP, "--role", "r2", "--attribute", "d6") == 0
    assert capsys.readouterr().out.splitlines()[0] == "Deny"


def test_query_ctx_bindings(capsys):
    args = ("query", SHOP, "--role", "r4", "--attribute", "d1", "--purpose", "p3")
    assert run_cli(*args, "--ctx", "age=25", "--ctx", "now=10:00") == 0
    assert capsys.readouterr().out.splitlines()[0] == "Allow"
    assert run_cli(*args, "--ctx", "Age=15", "--ctx", "now=10:00") == 0
    assert capsys.readouterr().out.splitlines()[0] == "Deny"


def test_query_ctx_value_forms(tmp_path, capsys):
    policy = tmp_path / "ctx.pppm"
    policy.write_text(
        'policy "x"\nroles { r1: "A" }\nattributes { d1: "D" }\n'
        'tasks { t1: "T" reads d1 }\npurposes { p1: "P" = [t1] }\n'
        'role_purpose { r1 allowed p1 when '
        '"flag == true and tier == \\"gold\\" and score >= 2.5" }\n',
        encoding="utf-8",
    )
    args = ("query", str(policy), "--role", "r1", "--attribute", "d1")
    assert run_cli(*args, "--ctx", "flag=true", "--ctx", 'tier="gold"',
                   "--ctx", "score=3.5") == 0
    assert capsys.readouterr().out.splitlines()[0] == "Allow"
    assert run_cli(*args, "--ctx", "flag=false") == 0
    assert capsys.readouterr().out.splitlines()[0] == "Deny"


@pytest.mark.parametrize(
    "bindings",
    ["age", "=5", "age=25:99", "age=twenty", "age=", "age=25 AGE=10",
     # A name that no condition can use: not one variable of the grammar.
     "'age =25'", "1age=25", "a-b=3", "true=1"],
)
def test_query_bad_ctx_binding(bindings, capsys):
    # `bindings` are the --ctx values as shell words.
    ctx = [arg for binding in shlex.split(bindings) for arg in ("--ctx", binding)]
    code = run_cli("query", SHOP, "--role", "r4", "--attribute", "d1", *ctx)
    assert code == 4
    assert "pppm: error" in capsys.readouterr().err


_NOT_A_VARIABLE = ("invalid context variable {} (expected a condition variable: "
                   "an identifier other than and, true or false)")


@pytest.mark.parametrize(
    "binding, message",
    [
        ("age", "invalid context binding 'age' (expected NAME=VALUE)"),
        ("=5", _NOT_A_VARIABLE.format("''")),
        ("true=1", _NOT_A_VARIABLE.format("'true'")),
        ("and=1", _NOT_A_VARIABLE.format("'and'")),
        ("1age=25", _NOT_A_VARIABLE.format("'1age'")),
    ],
)
def test_query_bad_ctx_binding_names_the_rule_it_breaks(binding, message, capsys):
    code = run_cli("query", SHOP, "--role", "r4", "--attribute", "d1", "--ctx", binding)
    assert code == 4
    assert capsys.readouterr().err == f"pppm: error: {message}\n"


def test_query_ctx_variable_bound_twice(capsys):
    # Names are case-insensitive, so neither binding may silently win.
    args = ("query", SHOP, "--role", "r4", "--attribute", "d1", "--purpose", "p3")
    for first, second in (("age=25", "AGE=10"), ("AGE=10", "age=25")):
        code = run_cli(*args, "--ctx", first, "--ctx", second, "--ctx", "now=10:00")
        assert code == 4
        assert capsys.readouterr().err == "pppm: error: context variable 'age' bound twice\n"


def test_query_unknown_entities(capsys):
    assert run_cli("query", SHOP, "--role", "r99", "--attribute", "d1") == 4
    assert run_cli("query", SHOP, "--role", "r1", "--attribute", "d99") == 4
    assert run_cli("query", SHOP, "--role", "r1", "--attribute", "d1",
                   "--purpose", "p99") == 4


def test_query_type_clash_is_a_usage_error(capsys):
    code = run_cli("query", SHOP, "--role", "r4", "--attribute", "d1",
                   "--purpose", "p3", "--ctx", 'age="old"', "--ctx", "now=09:00")
    assert code == 4
    assert "cannot evaluate" in capsys.readouterr().err


def test_query_missing_required_flag(capsys):
    assert run_cli("query", SHOP, "--role", "r1") == 4


def test_render_to_stdout_and_file(tmp_path, capsys):
    assert run_cli("render", SHOP) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "imaginary-shop" {')
    target = tmp_path / "graph.dot"
    assert run_cli("render", SHOP, "--out", str(target)) == 0
    assert target.read_text(encoding="utf-8") == out


def test_render_layers_flag(capsys):
    assert run_cli("render", SHOP, "--layers", "roles") == 0
    out = capsys.readouterr().out
    assert '"purpose:' not in out
    assert run_cli("render", SHOP, "--layers", "widgets") == 4


def test_render_unwritable_out(capsys):
    assert run_cli("render", SHOP, "--out", "/no/such/dir/graph.dot") == 4
    assert "cannot write" in capsys.readouterr().err


def test_report_to_stdout(capsys):
    assert run_cli("report", SHOP) == 0
    out = capsys.readouterr().out
    assert out.startswith("== roles ==\n")
    assert "t8\td6\t\tDate2Age" in out


def test_module_entry_point_runs():
    proc = run_proc("check", SHOP)
    assert proc.returncode == 0


def test_reruns_are_byte_identical():
    # The baby fixture has error-severity findings, so lint exits 2.
    for argv, code in (
        (("render", BABY), 0),
        (("report", BABY), 0),
        (("lint", BABY, "--format", "tsv"), 2),
    ):
        first = run_proc(*argv)
        second = run_proc(*argv)
        assert (first.returncode, second.returncode) == (code, code), first.stderr
        assert first.stdout
        assert first.stdout == second.stdout
        assert b"\r" not in first.stdout


def test_no_color_env_keeps_output_plain():
    import os

    env = dict(os.environ, PPPM_NO_COLOR="1")
    proc = run_proc("lint", BABY, env=env)
    assert proc.returncode == 2, proc.stderr
    assert b" error " in proc.stdout
    assert b"\x1b[" not in proc.stdout


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_query_rejects_non_finite_ctx_numbers(value, capsys):
    code = run_cli("query", SHOP, "--role", "r4", "--attribute", "d1", "--purpose", "p3",
                   "--ctx", f"age={value}", "--ctx", "now=10:00")
    assert code == 4
    assert f"invalid context value {value!r}" in capsys.readouterr().err


# Outside the literal grammar, though int(), float() or str.isdigit take them;
# '²' (superscript two) passes isdigit but not int().
@pytest.mark.parametrize("value", ["²:00", "1e3", "1_000", " 7", "٣"])
def test_query_rejects_ctx_values_outside_the_literal_grammar(value, capsys):
    code = run_cli("query", SHOP, "--role", "r4", "--attribute", "d1", "--purpose", "p3",
                   "--ctx", f"age={value}", "--ctx", "now=10:00")
    assert code == 4
    assert f"invalid context value {value!r}" in capsys.readouterr().err


def test_query_ctx_string_escapes_are_unescaped(tmp_path, capsys):
    policy = tmp_path / "escape.pppm"
    policy.write_text(
        'policy "x"\nroles { r1: "A" }\nattributes { d1: "D" }\n'
        'tasks { t1: "T" reads d1 }\npurposes { p1: "P" = [t1] }\n'
        'role_purpose { r1 allowed p1 when "tier == \\"a\\\\\\"b\\"" }\n',
        encoding="utf-8",
    )
    args = ("query", str(policy), "--role", "r1", "--attribute", "d1")
    assert run_cli(*args, "--ctx", 'tier="a\\"b"') == 0
    assert capsys.readouterr().out.splitlines()[0] == "Allow"
