"""Every command's outputs on three designs, byte for byte against
`tests/golden/`.  After an intended output change, rerun
``python tests/golden/regen.py`` and record its report in CHANGES.md."""
import shutil

from golden.regen import HERE, diff_report, golden_files, run_all


def test_outputs_match_golden(tmp_path):
    run_all(tmp_path)
    assert golden_files(tmp_path), "no outputs written"
    report = diff_report(HERE, tmp_path)
    assert not report, "outputs differ from tests/golden:\n" + "\n".join(report)


def test_diff_report_names_a_changed_cell(tmp_path):
    """The comparison can fail, and says which rows and by how much."""
    want = tmp_path / "want" / "table1" / "force"
    got = tmp_path / "got" / "table1" / "force"
    shutil.copytree(HERE / "table1" / "force", want)
    shutil.copytree(want, got)
    path = got / "force_angle.csv"
    header, first, *rest = path.read_bytes().split(b"\r\n")
    x0, f = first.split(b",")
    path.write_bytes(b"\r\n".join([header, b"%s,%r" % (x0, float(f) * (1 + 1e-6)),
                                    *rest]))
    stdout = got / "stdout.txt"
    stdout.write_bytes(stdout.read_bytes().replace(b"exit 0", b"exit 1"))
    report = diff_report(tmp_path / "want", tmp_path / "got")
    assert len(report) == 2
    assert report[0].startswith("table1/force/force_angle.csv: 1 of 72 rows changed; "
                                "f_total: 1 cells, max ")
    assert report[1] == "table1/force/stdout.txt: 1 of 2 lines changed"
