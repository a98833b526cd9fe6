import csv
import io
import json
import warnings

import numpy as np
import pytest

from auxshrink import HyperParams, ScenarioSpec, SearchConfig, fit_asus, generate, sure
from auxshrink import tuner
from auxshrink.cli import main, read_batch_csv
from test_tuner import sigma_overflow_rows


def write_batch_csv(path, rows, header=("id", "y", "sigma", "s")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(400)
    n = 400
    theta = np.where(rng.random(n) < 0.25, rng.normal(0, 4, n), 0.0)
    y = theta + rng.standard_normal(n)
    s = np.abs(theta) + rng.normal(0, 0.5, n)
    path = tmp_path / "batch.csv"
    rows = [
        (f"c{i}", f"{y[i]:.17g}", "1.0", f"{s[i]:.17g}")
        for i in range(n)
    ]
    write_batch_csv(path, rows)
    return path


@pytest.fixture
def signed_csv(tmp_path):
    batch = generate(ScenarioSpec(family="two-sample-s2", n=800, seed=21))
    signs = np.where(np.random.default_rng(22).random(batch.n) < 0.5, -1.0, 1.0)
    path = tmp_path / "signed.csv"
    rows = [
        (f"c{i}", f"{batch.y[i]:.17g}", f"{batch.sigma[i]:.17g}", f"{s:.17g}")
        for i, s in enumerate(batch.s * signs)
    ]
    write_batch_csv(path, rows)
    return path


class TestReadBatchCsv:
    def test_sigma_column_optional(self, tmp_path):
        path = tmp_path / "b.csv"
        write_batch_csv(
            path, [("a", "1.5", "0.2"), ("b", "-0.3", "1.1")], header=("id", "y", "s")
        )
        batch, ids = read_batch_csv(path)
        assert ids == ["a", "b"]
        np.testing.assert_array_equal(batch.sigma, [1.0, 1.0])

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "b.csv"
        write_batch_csv(path, [("a", "1.0")], header=("id", "y"))
        with pytest.raises(ValueError, match="missing required column"):
            read_batch_csv(path)

    @staticmethod
    def _same_batch(got, want):
        (a, a_ids), (b, b_ids) = got, want
        assert a_ids == b_ids
        for name in ("y", "sigma", "s"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_spaces_around_header_names(self, tmp_path):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("id,y,s\na,1.5,0.2\nb,-0.3,1.1\n")
        spaced.write_text("id, y, s\na,1.5,0.2\nb,-0.3,1.1\n")
        self._same_batch(read_batch_csv(spaced), read_batch_csv(plain))

    def test_leading_byte_order_mark(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_batch_csv(plain, [("a", "1.5", "1.0", "0.2"), ("b", "-0.3", "2.0", "1.1")])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        self._same_batch(read_batch_csv(marked), read_batch_csv(plain))

    def test_repeated_column_name(self, tmp_path):
        # "y" and " y" name the same column once stripped
        path = tmp_path / "b.csv"
        path.write_text("id,y,s, y\na,1.5,0.2,2.5\n")
        with pytest.raises(ValueError, match="column 'y' appears more than once"):
            read_batch_csv(path)

    def test_row_longer_than_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("id,y,s\na,1.5,0.2\nb,-0.3,1.1,7.0\n")
        with pytest.raises(ValueError, match=r":3: row has 4 cells, the header 3"):
            read_batch_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "b.csv"
        write_batch_csv(path, [("a", "1.0", "x")], header=("id", "y", "s"))
        with pytest.raises(ValueError, match=":2:"):
            read_batch_csv(path)

    def test_bad_value_after_blank_lines_reports_its_file_line(self, tmp_path):
        # blank lines are skipped, but they still count as lines of the file
        path = tmp_path / "b.csv"
        path.write_text("id,y,s\n\n\na,1.0,x\n")
        with pytest.raises(ValueError, match=r"b\.csv:4: bad row"):
            read_batch_csv(path)

    def test_row_after_a_multiline_id_reports_its_file_line(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text('id,y,s\n"two\nlines",1.0,0.5\nb,x,0.1\n')
        with pytest.raises(ValueError, match=r"b\.csv:4: bad row"):
            read_batch_csv(path)

    def test_short_row_reads_missing_cells_as_empty(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("id,y,s\na,1.0,0.5\nb,2.0\n")
        with pytest.raises(ValueError,
                           match=r":3: bad row \(could not convert string to float: ''\)"):
            read_batch_csv(path)

    def test_short_row_leaves_its_optional_cells_empty(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("id,y,s,theta\na,1.0,0.5\nb,2.0,0.1\n")
        batch, ids = read_batch_csv(path)
        assert ids == ["a", "b"] and batch.theta is None
        path.write_text("id,y,s,theta\na,1.0,0.5,0.3\nb,2.0,0.1\n")
        with pytest.raises(ValueError, match=r":3: column 'theta' is empty"):
            read_batch_csv(path)

    def test_first_bad_row_in_file_order(self, tmp_path):
        # a bad s on line 2 comes before a bad y on line 3, and a bad cell
        # before a longer row
        path = tmp_path / "b.csv"
        path.write_text("id,y,s\na,1.0,x\nb,y,0.5\n")
        with pytest.raises(ValueError, match=r":2: bad row \(.*'x'\)"):
            read_batch_csv(path)
        path.write_text("id,y,s\na,1.0,x\nb,2.0,0.5,9\n")
        with pytest.raises(ValueError, match=r":2: bad row"):
            read_batch_csv(path)

    def test_optional_latent_columns(self, tmp_path):
        path = tmp_path / "b.csv"
        write_batch_csv(
            path,
            [("a", "1.0", "1.0", "0.5", "0.0", "0.9")],
            header=("id", "y", "sigma", "s", "xi", "theta"),
        )
        batch, _ = read_batch_csv(path)
        assert batch.xi is not None and batch.theta is not None

    @pytest.mark.parametrize("column", ["xi", "theta", "sigma"])
    def test_partly_filled_latent_column_names_first_empty_line(self, tmp_path, column):
        # an empty sigma cell beside rows that give sigma is an error, not 1.0
        path = tmp_path / "b.csv"
        header = ("id", "y", "sigma", "s", "xi", "theta")
        rows = [["a", "1.0", "1.0", "0.5", "0.0", "0.9"] for _ in range(4)]
        col = header.index(column)
        rows[1][col] = ""
        rows[3][col] = ""
        write_batch_csv(path, rows, header=header)
        with pytest.raises(ValueError, match=rf":3: column '{column}' is empty"):
            read_batch_csv(path)

    def test_entirely_empty_latent_column_is_dropped(self, tmp_path):
        path = tmp_path / "b.csv"
        rows = [("a", "1.0", "", "0.5", "", "0.9"), ("b", "2.0", "", "0.1", "", "1.1")]
        write_batch_csv(path, rows, header=("id", "y", "sigma", "s", "xi", "theta"))
        batch, _ = read_batch_csv(path)
        assert batch.xi is None
        np.testing.assert_array_equal(batch.sigma, [1.0, 1.0])  # an empty sigma means 1
        np.testing.assert_array_equal(batch.theta, [0.9, 1.1])


class TestEstimate:
    def run(self, toy_csv, tmp_path, *extra):
        out = tmp_path / "est.csv"
        rep = tmp_path / "rep.json"
        rc = main(
            [
                "estimate",
                "--input", str(toy_csv),
                "--output", str(out),
                "--report", str(rep),
                *extra,
            ]
        )
        return rc, out, rep

    def test_deterministic_rerun_is_byte_identical(self, toy_csv, tmp_path):
        rc1, out1, rep1 = self.run(toy_csv, tmp_path, "--method", "sureshrink")
        data1 = out1.read_bytes()
        report1 = rep1.read_bytes()
        rc2, out2, rep2 = self.run(toy_csv, tmp_path, "--method", "sureshrink")
        assert rc1 == rc2 == 0
        assert out2.read_bytes() == data1
        assert rep2.read_bytes() == report1

    def test_ids_are_quoted_as_csv_writer_quotes_them(self, toy_csv, tmp_path):
        # the ids do not change the fit: the file is that of the plain ids
        # with each row's cells written by csv.writer
        rc, out, _ = self.run(toy_csv, tmp_path, "--method", "sureshrink")
        plain = out.read_text(encoding="utf-8").splitlines()
        with open(toy_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ids = ["a,b", 'say "hi"', "two\nlines", "", " lead"]
        for row, ident in zip(rows, ids):
            row[0] = ident
        write_batch_csv(toy_csv, rows)
        rc, out, _ = self.run(toy_csv, tmp_path, "--method", "sureshrink")
        assert rc == 0
        want = io.StringIO()
        w = csv.writer(want, lineterminator="\n")
        w.writerow(plain[0].split(","))
        w.writerows([row[0], *line.split(",")[1:]] for row, line in zip(rows, plain[1:]))
        assert out.read_text(encoding="utf-8") == want.getvalue()

    def test_ids_holding_a_carriage_return_read_back(self, toy_csv, tmp_path):
        # csv.writer with lineterminator "\n" would leave a lone CR bare
        with open(toy_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ids = ["cr\rin", 'say "cr"\r', "\r", "crlf\r\nx"]
        for row, ident in zip(rows, ids):
            row[0] = ident
        write_batch_csv(toy_csv, rows)
        rc, out, _ = self.run(toy_csv, tmp_path, "--method", "sureshrink")
        assert rc == 0
        assert out.read_bytes().split(b"\n")[1].startswith(b'"cr\rin",')
        batch, got = read_batch_csv(out)
        assert got == [row[0] for row in rows]
        np.testing.assert_array_equal(batch.y, [float(row[1]) for row in rows])

    def test_asus_k1_equals_sureshrink(self, toy_csv, tmp_path):
        _, out_a, rep_a = self.run(toy_csv, tmp_path, "--method", "asus", "--k", "1")
        est_a = out_a.read_text()
        _, out_s, rep_s = self.run(toy_csv, tmp_path, "--method", "sureshrink")
        assert out_s.read_text() == est_a
        ra = json.loads(rep_a.read_text())
        rs = json.loads(rep_s.read_text())
        assert ra["t"] == rs["t"] and ra["sure"] == rs["sure"]

    def test_report_roundtrip_rescores_exactly(self, toy_csv, tmp_path):
        rc, out, rep = self.run(toy_csv, tmp_path, "--method", "asus", "--k", "2",
                                "--mn-factor", "10")
        assert rc == 0
        report = json.loads(rep.read_text())
        batch, _ = read_batch_csv(out)
        hp = HyperParams(tau=report["tau"], t=report["t"])
        rescored = sure(batch, hp)
        assert float(f"{rescored:.12g}") == report["sure"]
        assert sum(report["group_sizes"]) == report["n"]

    def test_estimates_file_consistent_with_report(self, toy_csv, tmp_path):
        rc, out, rep = self.run(toy_csv, tmp_path, "--method", "asus", "--mn-factor", "10")
        report = json.loads(rep.read_text())
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == report["n"]
        sizes = [0] * report["k"]
        for row in rows:
            sizes[int(row["group"]) - 1] += 1
        assert sizes == report["group_sizes"]

    def test_parse_failure_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,y\n1,2\n")
        rc = main(
            [
                "estimate",
                "--input", str(bad),
                "--output", str(tmp_path / "o.csv"),
                "--report", str(tmp_path / "r.json"),
            ]
        )
        assert rc != 0
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_auxscr_and_ejs_methods(self, toy_csv, tmp_path):
        rc, out, rep = self.run(toy_csv, tmp_path, "--method", "auxscr")
        assert rc == 0
        report = json.loads(rep.read_text())
        # the toy S is signed, so the screen is the middle of three groups
        assert report["k"] == 3 and sum(report["group_sizes"]) == report["n"]
        rc, out, rep = self.run(toy_csv, tmp_path, "--method", "ejs")
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["sure"] is None and report["tau"] == []
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["group"] == "1" for r in rows)

    def test_auxscr_on_signed_s_reproduces_through_core(self, signed_csv, tmp_path):
        rc, out, rep = self.run(signed_csv, tmp_path, "--method", "auxscr")
        assert rc == 0
        report = json.loads(rep.read_text())
        batch, _ = read_batch_csv(signed_csv)
        with open(out) as fh:
            groups = [int(row["group"]) for row in csv.DictReader(fh)]
        counts = np.bincount(groups, minlength=report["k"] + 1)[1:]
        assert counts.tolist() == report["group_sizes"]
        rescored = sure(batch, HyperParams(tau=report["tau"], t=report["t"]))
        assert float(f"{rescored:.12g}") == report["sure"]

    def test_alias_writes_the_same_files(self, toy_csv, tmp_path):
        files = []
        for method in ("auxscr", "aux-scr"):
            rc, out, rep = self.run(toy_csv, tmp_path, "--method", method)
            assert rc == 0
            files.append((out.read_bytes(), rep.read_bytes()))
        assert files[0] == files[1]
        assert json.loads(files[0][1])["method"] == "aux-scr"

    def test_ground_truth_estimators_are_not_offered(self, toy_csv, tmp_path):
        with pytest.raises(SystemExit):
            self.run(toy_csv, tmp_path, "--method", "oracle-loss")

    def test_degenerate_aux_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_batch_csv(
            path,
            [("a", "1.0", "2.0"), ("b", "0.5", "2.0"), ("c", "-1.0", "2.0")],
            header=("id", "y", "s"),
        )
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(tmp_path / "o.csv"),
                "--report", str(tmp_path / "r.json"),
                "--method", "asus",
            ]
        )
        assert rc == 1
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("report", ["out", "./out"])
    def test_one_path_for_both_outputs_writes_nothing(self, toy_csv, tmp_path, capsys,
                                                      report):
        rc = main(["estimate", "--input", str(toy_csv), "--output", str(tmp_path / "out"),
                   "--report", f"{tmp_path}/{report}"])
        assert rc == 1
        assert f"{tmp_path}/{report}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.csv"]


def test_overflowing_row_exits_naming_it(tmp_path, capsys):
    """y = 1e160 at row 5 overflows z^2 (and the screening term): aux-scr and
    asus alike exit 1 with the row named and write nothing, with no
    RuntimeWarning."""
    rng = np.random.default_rng(63)
    y, s = rng.normal(0, 1, (2, 200))
    y[5] = 1e160
    path = tmp_path / "batch.csv"
    write_batch_csv(path, [(f"c{i}", f"{v:.17g}", "1.0", f"{w:.17g}")
                           for i, (v, w) in enumerate(zip(y, s))])
    argv = ["estimate", "--input", str(path), "--output", str(tmp_path / "o.csv"),
            "--report", str(tmp_path / "r.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("aux-scr", "asus"):
            assert main([*argv, "--method", method]) == 1
            assert capsys.readouterr().err == (
                "error: (|y|/sigma)^2 is not finite at index 5: inf\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.csv"]


def test_sigma_whose_inverse_square_overflows_exits_naming_its_row(tmp_path, capsys):
    """y = 0, sigma = 1e-200 at row 5: sigma^2 is 0 and 1/sigma^2 inf, so ejs
    would write NaN for every row. estimate exits 1 naming the row and writes
    nothing, with no RuntimeWarning."""
    rng = np.random.default_rng(67)
    y, s = rng.normal(0, 1, (2, 300))
    sigma = np.ones(300)
    y[5], sigma[5] = 0.0, 1e-200
    path = tmp_path / "batch.csv"
    columns = y.tolist(), sigma.tolist(), s.tolist()
    write_batch_csv(path, [(f"c{i}", *map(repr, row)) for i, row in enumerate(zip(*columns))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", "--input", str(path), "--output", str(tmp_path / "o.csv"),
                     "--report", str(tmp_path / "r.json"), "--method", "ejs"]) == 1
    assert capsys.readouterr().err == "error: 1/sigma^2 is not finite at index 5: inf\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.csv"]


@pytest.mark.parametrize("command", [["estimate", "--report", "r.json"], ["sweep"],
                                     ["choose-k", "--kmax", "3"]])
def test_sigma_whose_square_overflows_exits_naming_its_row(tmp_path, capsys, command):
    """sigma = y = 1e160 at row 5: every SURE command exits 1 naming the row,
    writes nothing and emits no RuntimeWarning."""
    path = tmp_path / "batch.csv"
    columns = [col.tolist() for col in sigma_overflow_rows()]
    write_batch_csv(path, [(f"c{i}", *map(repr, row)) for i, row in enumerate(zip(*columns))])
    argv = [command[0], "--input", str(path), "--output", str(tmp_path / "o.csv"),
            *(str(tmp_path / a) if a.endswith(".json") else a for a in command[1:])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == "error: sigma^2 is not finite at index 5: inf\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.csv"]


def test_nonpositive_sigma_exits_naming_its_row(tmp_path, capsys):
    """sigma 0 on the second data row: estimate exits 1 naming index 1 and
    writes nothing."""
    path = tmp_path / "batch.csv"
    write_batch_csv(path, [(f"c{i}", "1.5", "0" if i == 1 else "1.0", f"{i}") for i in range(20)])
    argv = ["estimate", "--input", str(path), "--output", str(tmp_path / "o.csv"),
            "--report", str(tmp_path / "r.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: sigma is not positive at index 1: 0.0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.csv"]


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", [["estimate", "--report", "r.json"], ["sweep"],
                                     ["choose-k", "--kmax", "3"]])
def test_non_finite_mn_factor_exits_naming_it(toy_csv, tmp_path, capsys, command, value):
    argv = [command[0], "--input", str(toy_csv), "--output", str(tmp_path / "o.csv"),
            *(str(tmp_path / a) if a.endswith(".json") else a for a in command[1:]),
            "--mn-factor", value]
    assert main(argv) == 1
    assert "error: mn_factor must be finite and positive" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.csv"]


@pytest.mark.parametrize("value", ["1e15", "1e308"])
def test_mn_factor_over_the_grid_limit_exits_naming_it(tmp_path, capsys, value):
    # 1e15 asks for a 27.8 PiB grid; 1e308 * ln 50 overflows to inf
    rng = np.random.default_rng(50)
    path = tmp_path / "batch.csv"
    write_batch_csv(path, [(f"c{i}", f"{y:.17g}", "1.0", f"{s:.17g}")
                           for i, (y, s) in enumerate(rng.normal(0, 1, (50, 2)))])
    argv = ["estimate", "--input", str(path), "--output", str(tmp_path / "o.csv"),
            "--report", str(tmp_path / "r.json"), "--mn-factor", value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: mn_factor {float(value)} asks for m = ")
    assert "at most 1048576" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.csv"]


class TestSweep:
    def test_reference_and_minimum_rows(self, toy_csv, tmp_path):
        est_out = tmp_path / "est.csv"
        est_rep = tmp_path / "rep.json"
        assert main(
            [
                "estimate", "--input", str(toy_csv), "--output", str(est_out),
                "--report", str(est_rep), "--method", "asus", "--mn-factor", "10",
            ]
        ) == 0
        ss_rep = tmp_path / "ss.json"
        assert main(
            [
                "estimate", "--input", str(toy_csv), "--output", str(tmp_path / "ss.csv"),
                "--report", str(ss_rep), "--method", "sureshrink",
            ]
        ) == 0
        sweep_out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--input", str(toy_csv), "--output", str(sweep_out),
                "--mn-factor", "10",
            ]
        ) == 0
        with open(sweep_out) as fh:
            rows = list(csv.DictReader(fh))
        ref = [r for r in rows if r["kind"] == "reference"]
        sweep = [r for r in rows if r["kind"] == "sweep"]
        assert len(ref) == 1 and sweep
        ss = json.loads(ss_rep.read_text())
        assert float(f'{float(ref[0]["sure"]):.12g}') == ss["sure"]
        assert float(ref[0]["t1"]) == ss["t"][0]
        asus = json.loads(est_rep.read_text())
        best = min(sweep, key=lambda r: float(r["sure"]))
        assert float(f'{float(best["sure"]):.12g}') == asus["sure"]
        assert float(best["tau"]) == asus["tau"][0]
        # informative aux: the grouped minimum sits strictly below the pooled fit
        assert float(best["sure"]) < float(ref[0]["sure"])


class TestChooseK:
    def test_kmax_one_selects_one(self, toy_csv, tmp_path):
        out = tmp_path / "k.csv"
        assert main(
            ["choose-k", "--input", str(toy_csv), "--output", str(out), "--kmax", "1"]
        ) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["selected"] == "1"

    def test_informative_aux_prefers_two_groups(self, toy_csv, tmp_path):
        out = tmp_path / "k.csv"
        assert main(
            [
                "choose-k", "--input", str(toy_csv), "--output", str(out),
                "--kmax", "2", "--mn-factor", "5",
            ]
        ) == 0
        with open(out) as fh:
            rows = {int(r["k"]): r for r in csv.DictReader(fh)}
        assert float(rows[2]["sure"]) < float(rows[1]["sure"])
        assert rows[2]["selected"] == "1"

    def test_infeasible_kmax_fails_before_any_search(self, toy_csv, tmp_path, monkeypatch,
                                                     capsys):
        def no_search(*args):
            raise AssertionError("choose-k searched an infeasible --kmax")

        monkeypatch.setattr(tuner, "_search", no_search)
        out = tmp_path / "k.csv"
        assert main(["choose-k", "--input", str(toy_csv), "--output", str(out),
                     "--kmax", "100000000"]) == 1
        assert "no feasible breakpoint candidate for K=" in capsys.readouterr().err
        assert not out.exists()

    def test_kmax_four_at_default_density(self, tmp_path):
        # the README example: 1000 rows, grid of ceil(50 ln 1000) = 346 points
        batch = generate(ScenarioSpec("two-sample-s2", n=1000, seed=17))
        path = tmp_path / "batch.csv"
        write_batch_csv(path, [(i, repr(float(batch.y[i])), repr(float(batch.sigma[i])),
                                repr(float(batch.s[i]))) for i in range(batch.n)])
        out = tmp_path / "k.csv"
        assert main(["choose-k", "--input", str(path), "--output", str(out), "--kmax", "4"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["k"] for r in rows] == ["1", "2", "3", "4"]
        sures = [float(r["sure"]) for r in rows]
        parsed, _ = read_batch_csv(str(path))
        for k in (1, 2, 3):
            assert sures[k - 1] == fit_asus(parsed, SearchConfig(k=k)).sure_value
        assert [r["selected"] for r in rows].index("1") == int(np.argmin(sures))


class TestSimulate:
    def test_toy_run_is_deterministic(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = [
            "simulate", "--scenario", "toy", "--n", "2000", "--reps", "2",
            "--seed", "5", "--estimators", "sureshrink,oracle",
        ]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        l1 = (tmp_path / "r1_losses.csv").read_bytes()
        l2 = (tmp_path / "r2_losses.csv").read_bytes()
        assert l1 == l2

    def test_losses_csv_rows(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(
            [
                "simulate", "--scenario", "toy", "--n", "1000", "--reps", "3",
                "--seed", "9", "--estimators", "sureshrink", "--output", str(out),
            ]
        ) == 0
        with open(tmp_path / "rep_losses.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert {r["estimator"] for r in rows} == {"sureshrink"}
        report = json.loads(out.read_text())
        mean = np.mean([float(r["loss"]) for r in rows])
        assert report["estimators"]["sureshrink"]["risk"] == pytest.approx(mean, rel=1e-9)

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--scenario", "toy", "--reps", "1", "--seed", "1",
                "--output", str(tmp_path / "x.json"),
            # '--scenario nope' would be caught by argparse; exercise the
            # config path instead
            ]
        )
        assert rc == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "nope", "n": 10, "reps": 1, "seed": 1}))
        rc = main(
            ["simulate", "--config", str(cfg), "--output", str(tmp_path / "y.json")]
        )
        assert rc == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_seed_required(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--scenario", "toy", "--reps", "1",
                "--output", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 1
        assert "--seed" in capsys.readouterr().err

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "two-sample-s1",
                    "n": 400,
                    "reps": 2,
                    "seed": 11,
                    "estimators": ["sureshrink", "asus"],
                }
            )
        )
        out = tmp_path / "rep.json"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["scenario"] == "two-sample-s1"
        assert set(report["estimators"]) == {"sureshrink", "asus"}


    @pytest.mark.parametrize("estimators, message", [
        (",", "no estimator requested"),
        ("", "no estimator requested"),
        ("sureshrink,auxscr,aux-scr", "'aux-scr' is requested twice"),
    ])
    def test_empty_or_repeated_estimator_list_fails(self, tmp_path, capsys, estimators,
                                                     message):
        out = tmp_path / "rep.json"
        rc = main(
            [
                "simulate", "--scenario", "toy", "--n", "200", "--reps", "2", "--seed", "3",
                "--estimators", estimators, "--output", str(out),
            ]
        )
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["scenario", "n", "reps", "seed"])
    def test_config_missing_key_is_named(self, tmp_path, capsys, missing):
        cfg = {"scenario": "toy", "n": 50, "reps": 1, "seed": 1}
        del cfg[missing]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--output", str(tmp_path / "y.json")])
        assert rc == 1
        assert f"missing required key '{missing}'" in capsys.readouterr().err
        assert not (tmp_path / "y.json").exists()

    def test_config_unknown_key_is_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "toy", "n": 50, "reps": 1, "seed": 1, "k": 3}))
        rc = main(["simulate", "--config", str(path), "--output", str(tmp_path / "y.json")])
        assert rc == 1
        assert "unknown key 'k'" in capsys.readouterr().err
        assert not (tmp_path / "y.json").exists()

    @pytest.mark.parametrize("key, value, kind", [
        ("estimators", "asus", "a list of strings"),
        ("estimators", ["asus", 1], "a list of strings"),
        ("reps", 2.9, "an integer"),
        ("seed", True, "an integer"),
        ("n", "200", "an integer"),
        ("scenario", 1, "a string"),
        ("m", 10.0, "an integer or null"),
        ("aux_variant", False, "an integer or null"),
    ])
    def test_config_value_of_wrong_type_is_named(self, tmp_path, capsys, key, value, kind):
        cfg = {"scenario": "toy", "n": 200, "reps": 2, "seed": 1, "estimators": ["sureshrink"]}
        cfg[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "y.json"
        rc = main(["simulate", "--config", str(path), "--output", str(out)])
        assert rc == 1
        assert f"key {key!r} must be {kind}" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "y_losses.csv").exists()

    def test_config_null_m_and_aux_variant_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "toy", "n": 200, "reps": 2, "seed": 1,
                                    "m": None, "aux_variant": None,
                                    "estimators": ["sureshrink"]}))
        out = tmp_path / "y.json"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["reps"] == 2 and report["seed"] == 1 and report["m"] is None


class TestTheoryCommand:
    def test_f_value(self, capsys):
        assert main(["theory", "f", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.755280875954"

    def test_h_value(self, capsys):
        assert main(["theory", "h", "3"]) == 0
        assert capsys.readouterr().out.strip() == "5.57044920158"

    def test_gap_value(self, capsys):
        assert main(["theory", "gap", "0.6", "0.9", "0.95", "1.0", "5000"]) == 0
        assert capsys.readouterr().out.strip() == "0.000415460413184"

    def test_diagnostics_table_row(self, capsys):
        assert main(["theory", "diagnostics", "0.191", "0.095", "0.095"]) == 0
        out = capsys.readouterr().out
        assert "RI=1" in out

    @pytest.mark.parametrize("argv, name", [
        (["f", "inf"], "t"),
        (["h", "nan"], "t"),
        (["gap", "0.2", "0.6", "0.1", "1", "inf"], "n"),
        (["gap", "0.2", "0.6", "0.1", "1", "1000.9"], "n"),
        (["gap", "0.2", "0.6", "0.1", "nan", "1000"], "sigma_bar_sq"),
        (["diagnostics", "nan", "1", "2"], "r_ns"),
        (["diagnostics", "0.3", "0.2", "inf"], "r_os"),
    ])
    def test_non_finite_or_fractional_input_exits_naming_it(self, capsys, argv, name):
        assert main(["theory", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} must be ")
        assert captured.out == ""

    def test_gap_degenerate_pi_named(self, capsys):
        rc = main(["theory", "gap", "0.6", "0.9", "1.0", "1.0", "5000"])
        assert rc == 1
        assert "pi1" in capsys.readouterr().err
