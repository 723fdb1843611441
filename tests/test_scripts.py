"""The command-line scripts under scripts/, run through their main()."""

import importlib.util
import pathlib
import sys

import pytest

from radicant.field import make_field
from radicant.radical import radical_chain

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p,expected", [
    (13, ["1 -> 11 -> 12 -> 7 -> 1", "2 -> 3 -> 6 -> 4 -> 2", "5 -> 5", "8 -> 8",
          "9 -> 10 -> 9"]),
    # b = 2 and b = 9 are singular over F_19 and are left out without a message
    (19, ["1 -> 11 -> 16 -> 1", "3 -> 15 -> 6 -> 5 -> 3", "4 -> 4",
          "7 -> 10 -> 8 -> 17 -> 7", "12 -> 13 -> 18 -> 12", "14 -> 14"]),
])
def test_chain_survey_cycles(monkeypatch, capsys, p, expected):
    monkeypatch.setattr(sys, "argv", ["chain_survey.py", "--p", str(p)])
    _load("chain_survey").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines == expected
    F = make_field(p)
    for line in lines:
        cycle = [int(v) for v in line.split(" -> ")]
        for b, b_next in zip(cycle, cycle[1:]):
            assert radical_chain(F.el(b), 1, "unique").b_values[1] == F.el(b_next)


def test_chain_survey_rejects_multivalued_step(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["chain_survey.py", "--p", "11"])
    with pytest.raises(SystemExit) as exc:
        _load("chain_survey").main()
    assert exc.value.code == 2


def test_find_torsion_instances_f31(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["find_torsion_instances.py", "--primes", "31"])
    _load("find_torsion_instances").main()
    assert capsys.readouterr().out.splitlines() == [
        '{"R": [4, 11], "b": 1, "group_order": 25, "p": 31}',
        '{"R": [6, 11], "b": 25, "group_order": 25, "p": 31}',
        '{"R": [7, 22], "b": 26, "group_order": 25, "p": 31}',
        '{"R": [8, 1], "b": 30, "group_order": 25, "p": 31}',
    ]
