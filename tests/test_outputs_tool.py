"""The drift report of tools/outputs.py, which compares two output directories per file name."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("outputs", Path(__file__).parents[1] / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def write(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)


def test_drift_per_file_name(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, {"s/run.txt": "exit 0\n", "s/p.tsv": "name\tv\tw\nk1\t2.0\t-4.0\nk2\t1.0\tok\n",
              "t/p.tsv": "name\tv\nk1\t8.0\n", "t/only.txt": "x\n"})
    write(b, {"s/run.txt": "exit 0\n", "s/p.tsv": "name\tv\tw\nk1\t2.0\t-4.0000004\nk2\t1.0\tno\n",
              "t/p.tsv": "name\tv\nk1\t8.0\n"})
    assert outputs.main(["--diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    # 4e-7 over the largest |value| of its column, 4.0000004
    assert out[:3] == ["only.txt: 1 of 1 files differ",
                       f"p.tsv: 1 of 2 files differ; largest drift {4e-7 / 4.0000004:.3g} of its column, "
                       "at s/p.tsv line 2 column 3",
                       "run.txt: 0 of 1 files differ"]
    assert out[3:] == ["non-numeric differences:",
                       "  s/p.tsv: line 3 column 3: 'ok' != 'no'",
                       f"  t/only.txt: only under {a}"]
    assert outputs.main(["--diff", str(a), str(a)]) == 0


def test_line_count_change_is_not_numeric(tmp_path, capsys):
    write(tmp_path / "a", {"run.txt": "exit 0\n--- stderr\n"})
    write(tmp_path / "b", {"run.txt": "exit 1\n--- stderr\nERROR E_RANK_DEFICIENT: ...\n"})
    assert outputs.main(["--diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "  run.txt: 2 lines != 3 lines"


def test_diff_refuses_a_checkout_or_a_missing_directory(tmp_path):
    with pytest.raises(SystemExit):
        outputs.main(["--diff", str(tmp_path), str(tmp_path / "missing")])
    with pytest.raises(SystemExit):
        outputs.main([str(tmp_path), "--diff", str(tmp_path), str(tmp_path)])
