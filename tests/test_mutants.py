"""tools/mutants: applying, running and restoring mutants on a toy tree."""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402

TOY = "def add(a, b):\n    return a + b\n"
TEST = "from toy import add\n\n\ndef test_add():\n    assert add(2, 2) == 4\n"


def _toy(path: Path) -> Path:
    (path / "src").mkdir(parents=True)
    (path / "tests").mkdir()
    (path / "src" / "toy.py").write_text(TOY)
    (path / "tests" / "test_toy.py").write_text(TEST)
    return path


def _mutant(name, old, new, tests=("tests/test_toy.py",)):
    return {"name": name, "file": "src/toy.py", "old": old, "new": new, "tests": list(tests)}


def test_each_mutant_is_applied_alone_and_restored(tmp_path):
    tree = _toy(tmp_path / "tree")
    listed = [
        _mutant("minus", "a + b", "a - b"),
        _mutant("swapped", "a + b", "b + a"),  # equivalent: the test cannot see it
        _mutant("missing", "a * b", "a - b"),
        _mutant("repeated", "a", "b"),
        _mutant("bad id", "a + b", "a - b", ["tests/test_toy.py::no_such_test"]),
    ]
    results = mutants.check(tree, listed, timeout=60)
    assert [r["name"] for r in results] == [m["name"] for m in listed]
    assert [r["status"] for r in results] == [
        "killed",
        "survived",
        "error: old text found 0 times in src/toy.py",
        "error: old text found 3 times in src/toy.py",
        "error: pytest exit code 4",
    ]
    assert (tree / "src" / "toy.py").read_text() == TOY


def test_same_size_mutants_back_to_back_leave_no_bytecode(tmp_path, monkeypatch):
    # a cached .pyc is checked only against its source's size and whole-second
    # mtime, so a stale one could hide the next same-size mutant or the original;
    # the caller's environment must not be what keeps bytecode off
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    tree = _toy(tmp_path / "tree")
    listed = [_mutant("minus", "a + b", "a - b"), _mutant("swapped", "a + b", "b + a"),
              _mutant("minus again", "a + b", "a - b")]
    results = mutants.check(tree, listed, timeout=60)
    assert [r["status"] for r in results] == ["killed", "survived", "killed"]
    assert not list(tree.rglob("*.pyc"))


def test_a_run_past_its_timeout_is_killed(tmp_path):
    tree = _toy(tmp_path / "tree")
    hang = _mutant("hang", "return a + b", "while True:\n        pass")
    [result] = mutants.check(tree, [hang], timeout=2)
    assert result["status"] == "killed (timeout)"
    assert (tree / "src" / "toy.py").read_text() == TOY


def test_load_refuses_a_mutant_without_tests_or_with_other_fields(tmp_path):
    path = tmp_path / "mutants.json"
    for bad in ({**_mutant("x", "a", "b"), "tests": []}, {**_mutant("x", "a", "b"), "why": ""}):
        path.write_text(json.dumps([bad]))
        with pytest.raises(ValueError, match="needs the fields"):
            mutants.load(path)


@pytest.mark.parametrize("new,code", [("a - b", 0), ("b + a", 1)])
def test_main_exits_nonzero_when_a_mutant_survives(tmp_path, monkeypatch, capsys, new, code):
    toy = _toy(tmp_path / "toy")
    path = tmp_path / "mutants.json"
    path.write_text(json.dumps([_mutant("only", "a + b", new)]))

    def unpack(rev, dest):  # the toy tree stands in for a git archive of rev
        shutil.copytree(toy, dest)
        return "0" * 40

    monkeypatch.setattr(mutants, "unpack", unpack)
    monkeypatch.setattr(mutants, "MUTANTS", path)
    assert mutants.main([]) == code
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"mutants 1, killed {1 - code}")


def test_checked_in_mutants_name_existing_files_and_texts():
    # the harness itself runs outside the test suite; its data must stay applicable
    for mutant in mutants.load(ROOT / "tools" / "mutants.json"):
        text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
        assert text.count(mutant["old"]) == 1, mutant["name"]
        for test in mutant["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), test
