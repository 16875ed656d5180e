"""Exit codes and options of ``python -m repro.lint``."""

import textwrap

import pytest

from repro.lint.cli import main

_BAD = textwrap.dedent("""\
    def serve(addrs):
        for i in range(len(addrs)):
            touch(addrs[i])
    """)

_CLEAN = textwrap.dedent("""\
    def serve(addrs):
        return vector_probe(addrs)
    """)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "repro" / "sim" / "engine.py"
    target.parent.mkdir(parents=True)
    return target


def test_clean_tree_exits_zero(tree, capsys):
    tree.write_text(_CLEAN)
    assert main([str(tree.parents[1])]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_new_finding_exits_one(tree, capsys):
    tree.write_text(_BAD)
    assert main([str(tree.parents[1])]) == 1
    out = capsys.readouterr().out
    assert "[hot-loop]" in out
    assert "repro/sim/engine.py:2" in out


def test_missing_path_exits_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["no/such/dir"]) == 2


def test_unknown_rule_exits_two(tree):
    tree.write_text(_CLEAN)
    with pytest.raises(SystemExit) as exc:
        main([str(tree.parents[1]), "--select", "no-such-rule"])
    assert exc.value.code == 2


def test_select_limits_the_rules(tree, capsys):
    tree.write_text(_BAD)
    assert main([str(tree.parents[1]), "--select", "float-eq"]) == 0
    assert main([str(tree.parents[1]), "--select", "hot-loop"]) == 1


def test_parse_error_fails_the_run(tree, capsys):
    tree.write_text("def broken(:\n")
    assert main([str(tree.parents[1])]) == 1
    assert "parse error" in capsys.readouterr().out


def test_list_rules_names_every_rule(tree, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ("hot-loop", "dtype-discipline", "config-validation",
                 "float-eq", "nondeterminism", "mutable-default",
                 "broad-except"):
        assert name in out


def test_noqa_visible_only_with_show_suppressed(tree, capsys):
    tree.write_text(_BAD.replace(
        "for i in range(len(addrs)):",
        "for i in range(len(addrs)):  # repro: noqa(hot-loop)"))
    root = str(tree.parents[1])
    assert main([root]) == 0
    assert "(noqa)" not in capsys.readouterr().out
    assert main([root, "--show-suppressed"]) == 0
    assert "(noqa)" in capsys.readouterr().out
