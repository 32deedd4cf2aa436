"""Tests for the command-line front end: parsing, subcommands, exit codes."""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcoreset import cli
from rcoreset.cli import (
    EXIT_ASSUMPTION,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    DataFormatError,
    RunConfig,
    main,
    parse_dataset,
    parse_weighted_set,
    write_coreset_csv,
    write_points_csv,
)
from rcoreset.core import CenterSet, WeightedSet, robust_cost_weighted_many
from rcoreset.evaluation import default_builders, empirical_error


class TestParseDataset:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0\n3,4\n")
        arr = parse_dataset(str(path))
        assert arr.shape == (2, 2)
        assert np.array_equal(arr, [[0.0, 0.0], [3.0, 4.0]])

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        assert np.array_equal(parse_dataset(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# seed=42\n\n1,2\n\n# trailing note\n3,4\n")
        assert np.array_equal(parse_dataset(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    def test_whitespace_around_cells(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(" 1 , 2 \n 3 ,4\n")
        assert np.array_equal(parse_dataset(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2\n1\n")
        with pytest.raises(DataFormatError, match=r":2: row has 1 cells"):
            parse_dataset(str(path))

    def test_non_numeric_cell_names_its_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2\nfoo,3\n")
        with pytest.raises(DataFormatError, match=r":2: non-numeric cell 'foo'"):
            parse_dataset(str(path))

    def test_non_finite_value_names_its_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2\n3,inf\n")
        with pytest.raises(DataFormatError, match=r":2: non-finite"):
            parse_dataset(str(path))
        path.write_text("nan,2\n")
        with pytest.raises(DataFormatError, match=r":1: non-finite"):
            parse_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="no data rows"):
            parse_dataset(str(path))
        path.write_text("# only a comment\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            parse_dataset(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            parse_dataset(str(path))

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\ufeff1,2\n3,4\n", encoding="utf-8")
        assert np.array_equal(parse_dataset(str(path)), [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("\ufeffx,y\n1,2\n3,4\n", encoding="utf-8")
        assert np.array_equal(parse_dataset(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    def test_writers_files_take_the_vectorised_path(self, tmp_path, monkeypatch):
        def no_line_loop(path, raw):
            raise AssertionError(f"{path} fell back to the line loop")

        monkeypatch.setattr(cli, "_parse_lines", no_line_loop)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 4))
        pts[0] = [-0.0, 5e-324, 1e308, -1e308]
        weights = rng.uniform(0.5, 9.0, 50)
        weights[:2] = [5e-324, 1e308]
        path = str(tmp_path / "pts.csv")
        write_points_csv(path, pts, seed=9)
        assert parse_dataset(path).tobytes() == pts.tobytes()
        write_points_csv(path, pts[:, 0], seed=9)
        assert parse_dataset(path).tobytes() == pts[:, 0].tobytes()
        write_coreset_csv(path, WeightedSet(pts, weights), seed=9)
        back = parse_weighted_set(path)
        assert back.points.tobytes() == pts.tobytes()
        assert back.weights.tobytes() == weights.tobytes()


# Cells the CSV writers produce, and other spellings float() accepts.
_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["0.25", "+1", ".5", "5.", "1E5", "-0", " 2 ", "7\t"]),
)
# Cells on which the vectorised pass and float() may part ways, or
# which a data row must reject.
_ODD_CELLS = st.sampled_from([
    "1_0", "\u0661", "\uff11", "nan", "inf", "-inf", "1e500", "", "1 2", "2#x", "x",
])


@st.composite
def _csv_texts(draw):
    """CSV text: a few columns, with comments, blanks, a header and odd cells."""
    width = draw(st.integers(1, 4))
    odd = draw(st.booleans())
    # In an odd file about one cell in eight is odd, so most of its rows stay valid.
    cell = st.one_of(*[_PLAIN_CELLS] * 7, _ODD_CELLS) if odd else _PLAIN_CELLS
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.sampled_from(["x", "1", "weight"]))
                              for _ in range(width)))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# note", "  # 1,2"])))
        else:
            cells = width + (draw(st.integers(-1, 1)) if odd and kind == 1 else 0)
            lines.append(",".join(draw(cell) for _ in range(max(cells, 1))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return str(tmp_path_factory.mktemp("parse") / "p.csv")


@given(_csv_texts())
@example("3,4\n1,2#x\n")  # loadtxt with comments="#" would accept this
@example("x,y\r\n1_0,\u0661\r\n\uff11,2\r\n")
@settings(max_examples=400, deadline=None)
def test_parse_dataset_matches_the_line_loop(scratch_csv, text):
    with open(scratch_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        want = cli._parse_lines(scratch_csv, text)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            parse_dataset(scratch_csv)
        assert str(got.value) == str(exc)
    else:
        got = parse_dataset(scratch_csv)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestCoresetFiles:
    def test_weight_file_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        S = WeightedSet(rng.normal(size=(40, 3)), rng.uniform(0.5, 9.0, 40))
        path = tmp_path / "core.csv"
        write_coreset_csv(str(path), S, seed=123)
        back = parse_weighted_set(str(path))
        assert np.array_equal(back.points, S.points), "17 digits round-trip floats"
        assert np.array_equal(back.weights, S.weights)
        assert path.read_text().startswith("# seed=123\n")

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "core.csv"
        path.write_text("1\n2\n")
        with pytest.raises(DataFormatError, match="weight column"):
            parse_weighted_set(str(path))

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = tmp_path / "core.csv"
        path.write_text("1,0\n")
        with pytest.raises(DataFormatError, match="positive"):
            parse_weighted_set(str(path))

    def test_points_file_carries_seed_comment(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_points_csv(str(path), np.arange(4.0), seed=9)
        text = path.read_text()
        assert text.splitlines()[0] == "# seed=9"
        assert parse_dataset(str(path)).shape == (4, 1)

    def test_rows_match_per_value_formatting_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-300, 300, size=(30, 4))
        pts[0] = [-0.0, 5e-324, 1e308, -1e308]
        pts[1] = [0.0, 3.0, -7.0, 2.0**53]
        weights = rng.uniform(0.5, 9.0, 30)
        weights[:4] = [5e-324, 1e308, 1.0, 12.0]

        def row(values):
            return ",".join(f"{v:.17g}" for v in values) + "\n"

        path = tmp_path / "pts.csv"
        write_points_csv(str(path), pts, seed=9)
        want = "# seed=9\n" + "".join(row(r) for r in pts)
        assert path.read_bytes() == want.encode()
        write_coreset_csv(str(path), WeightedSet(pts, weights), seed=9)
        want = "# seed=9\nx0,x1,x2,x3,weight\n" + "".join(
            row([*r, w]) for r, w in zip(pts, weights)
        )
        assert path.read_bytes() == want.encode()


class TestRunConfig:
    def test_rejects_bad_numerics(self):
        base = dict(command="eval")
        for bad in (
            dict(m=-1),
            dict(d=0),
            dict(k=0),
            dict(z=3),
            dict(eps=1.5),
            dict(size=0),
            dict(sizes=(10, 0)),
            dict(trials=0),
            dict(centers=0),
            dict(contaminate=1.0),
            dict(builders=("nope",)),
            dict(n=0),
        ):
            with pytest.raises(ValueError):
                RunConfig(**base, **bad)

    def test_accepts_valid(self):
        cfg = RunConfig(command="sweep", m=5, k=2, z=2, sizes=(10, 20), trials=3)
        assert cfg.sizes == (10, 20)


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestGenerateCommand:
    def test_gauss_writes_points(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = run_cli("generate", "--family", "gauss", "--n", "200", "--d", "3",
                       "--k", "2", "--m", "10", "--seed", "7", "--output", str(out))
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "seed: 7" in stdout
        arr = parse_dataset(str(out))
        assert arr.shape == (200, 3)
        assert out.read_text().startswith("# seed=7\n")

    def test_lb1d_is_sorted(self, tmp_path):
        out = tmp_path / "lb.csv"
        code = run_cli("generate", "--family", "lb1d", "--n", "400", "--m", "100",
                       "--eps", "0.05", "--seed", "0", "--output", str(out))
        assert code == EXIT_OK
        arr = parse_dataset(str(out))
        assert arr.shape == (400, 1)
        assert np.all(np.diff(arr[:, 0]) >= 0)

    def test_contaminate_keeps_row_count(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli("generate", "--family", "gauss", "--n", "150", "--d", "2",
                       "--k", "1", "--m", "5", "--seed", "3",
                       "--contaminate", "0.2", "--output", str(out))
        assert code == EXIT_OK
        assert parse_dataset(str(out)).shape == (150, 2)

    def test_missing_pieces_are_invalid(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run_cli("generate", "--n", "10", "--seed", "0",
                       "--output", out) == EXIT_INVALID
        assert run_cli("generate", "--family", "gauss", "--seed", "0",
                       "--output", out) == EXIT_INVALID
        assert run_cli("generate", "--family", "gauss", "--n", "10",
                       "--seed", "0") == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().out

    def test_degenerate_lb1d_parameters_are_invalid(self, tmp_path):
        out = str(tmp_path / "x.csv")
        code = run_cli("generate", "--family", "lb1d", "--n", "200", "--m", "80",
                       "--eps", "0.05", "--seed", "0", "--output", out)
        assert code == EXIT_INVALID


@pytest.fixture(scope="module")
def gauss_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "gauss.csv"
    code = run_cli("generate", "--family", "gauss", "--n", "800", "--d", "2",
                   "--k", "2", "--m", "30", "--seed", "11", "--output", str(path))
    assert code == EXIT_OK
    return str(path)


class TestBuildCommand:
    def test_round_trip_costs_are_identical(self, gauss_csv, tmp_path):
        out = tmp_path / "core.csv"
        code = run_cli("build", "--input", gauss_csv, "--output", str(out),
                       "--builder", "oursnd", "--m", "30", "--k", "2", "--z", "2",
                       "--size", "200", "--seed", "5")
        assert code == EXIT_OK
        S = parse_weighted_set(str(out))
        P = parse_dataset(gauss_csv)
        rng = np.random.default_rng(0)
        idx = rng.choice(len(P), size=(100, 2), replace=True)
        costs_a = robust_cost_weighted_many(S, P[idx], 2, 30)
        again = parse_weighted_set(str(out))
        costs_b = robust_cost_weighted_many(again, P[idx], 2, 30)
        assert np.array_equal(costs_a, costs_b), "serialization is lossless"

    def test_zero_outliers_weight_sums_to_n(self, tmp_path):
        data = tmp_path / "d.csv"
        write_points_csv(str(data), np.random.default_rng(1).normal(size=300), seed=0)
        out = tmp_path / "core.csv"
        code = run_cli("build", "--input", str(data), "--output", str(out),
                       "--builder", "ours1d", "--m", "0", "--eps", "0.2", "--seed", "0")
        assert code == EXIT_OK
        S = parse_weighted_set(str(out))
        assert S.total_weight == 300.0, f"weights sum to {S.total_weight}"

    def test_small_n_is_an_assumption_violation_without_override(self, tmp_path):
        data = tmp_path / "d.csv"
        write_points_csv(str(data), np.arange(20.0), seed=0)
        out = str(tmp_path / "core.csv")
        code = run_cli("build", "--input", str(data), "--output", out,
                       "--builder", "ours1d", "--m", "10", "--eps", "0.3", "--seed", "0")
        assert code == EXIT_ASSUMPTION
        code = run_cli("build", "--input", str(data), "--output", out,
                       "--builder", "ours1d", "--m", "10", "--eps", "0.3", "--seed", "0",
                       "--allow-small-n")
        assert code == EXIT_OK

    def test_missing_input_is_io_error(self, tmp_path):
        code = run_cli("build", "--input", str(tmp_path / "nope.csv"),
                       "--output", str(tmp_path / "c.csv"),
                       "--builder", "uniform", "--size", "5", "--seed", "0")
        assert code == EXIT_IO

    def test_builder_count_enforced(self, gauss_csv, tmp_path):
        out = str(tmp_path / "c.csv")
        assert run_cli("build", "--input", gauss_csv, "--output", out,
                       "--m", "30", "--size", "50", "--seed", "0") == EXIT_INVALID
        assert run_cli("build", "--input", gauss_csv, "--output", out,
                       "--builder", "uniform", "--builder", "hjlw23",
                       "--m", "30", "--size", "50", "--seed", "0") == EXIT_INVALID

    def test_size_required_for_size_targeted_builders(self, gauss_csv, tmp_path):
        code = run_cli("build", "--input", gauss_csv,
                       "--output", str(tmp_path / "c.csv"),
                       "--builder", "hllw25", "--m", "30", "--k", "2", "--z", "2",
                       "--seed", "0")
        assert code == EXIT_INVALID

    def test_oursnd_needs_size(self, gauss_csv, tmp_path, capsys):
        code = run_cli("build", "--input", gauss_csv,
                       "--output", str(tmp_path / "c.csv"),
                       "--builder", "oursnd", "--m", "30", "--k", "2", "--z", "2",
                       "--seed", "0")
        assert code == EXIT_INVALID
        assert capsys.readouterr().out.endswith("invalid input: oursnd needs --size\n")


class TestFlagsTheChoiceDoesNotRead:
    @pytest.mark.parametrize("command", ["build", "eval"])
    @pytest.mark.parametrize("builder, flag", [
        ("oursnd", ["--eps", "0.2"]),
        ("hllw25", ["--allow-small-n"]),
        ("ours1d", ["--size", "30"]),
    ])
    def test_builder_flag_exits_2_and_is_named(
        self, command, builder, flag, gauss_csv, tmp_path, capsys
    ):
        out = ["--output", str(tmp_path / "c.csv")] if command == "build" else []
        wanted = ["--eps", "0.2"] if builder == "ours1d" else ["--size", "30"]
        code = run_cli(command, "--input", gauss_csv, *out, "--builder", builder,
                       "--m", "30", *wanted, *flag, "--seed", "0")
        assert code == EXIT_INVALID
        assert f"{builder} does not read {flag[0]}" in capsys.readouterr().out
        assert not (tmp_path / "c.csv").exists()

    def test_obstacle_with_d_k_eps_and_uniform_with_eps_exit_2(self, gauss_csv, tmp_path, capsys):
        ob = tmp_path / "ob.csv"
        assert run_cli("generate", "--family", "obstacle", "--n", "400", "--m", "20",
                       "--d", "5", "--k", "3", "--eps", "0.3", "--seed", "1",
                       "--output", str(ob)) == EXIT_INVALID
        assert not ob.exists()
        assert run_cli("build", "--input", gauss_csv, "--output", str(tmp_path / "c.csv"),
                       "--builder", "uniform", "--size", "30", "--eps", "0.2",
                       "--m", "30", "--seed", "0") == EXIT_INVALID
        out = capsys.readouterr().out
        assert "obstacle is 1-d with one center and does not read d or k" in out
        assert "uniform does not read --eps" in out

    @pytest.mark.parametrize("family, flags, named", [
        ("gauss", ["--eps", "0.3"], "gauss does not read eps"),
        ("ratio", ["--k", "2"], "ratio is 1-d with one center"),
        ("lb1d", ["--d", "2"], "lb1d is 1-d with one center"),
    ])
    def test_family_flag_exits_2_and_is_named(self, family, flags, named, tmp_path, capsys):
        code = run_cli("generate", "--family", family, "--n", "400", "--m", "100",
                       *flags, "--seed", "0", "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_INVALID
        assert named in capsys.readouterr().out


class TestEvalCommand:
    def test_reports_one_row_per_trial(self, gauss_csv, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        code = run_cli("eval", "--input", gauss_csv, "--builder", "oursnd",
                       "--m", "30", "--k", "2", "--z", "2", "--size", "150",
                       "--trials", "3", "--centers", "25", "--seed", "2",
                       "--output", str(out))
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "builder,trial,coreset_rows,error,skipped_centers,seed"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[0] == "oursnd"
            assert int(fields[1]) == i
            assert 0.0 <= float(fields[3]) < 2.0
            assert fields[5] == "2", "seed echoed in every row"
            assert line in stdout
        assert "mean error over 3 trials" in stdout

    def test_centers_solved_once_for_all_trials(self, gauss_csv, capsys, monkeypatch):
        solve = cli.lloyd_with_outliers
        seeds = []

        def counting(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "lloyd_with_outliers", counting)
        code = run_cli("eval", "--input", gauss_csv, "--builder", "oursnd",
                       "--m", "30", "--k", "2", "--z", "2", "--size", "150",
                       "--trials", "3", "--centers", "25", "--seed", "2")
        assert code == EXIT_OK
        assert seeds == [(2, 11, 0), (2, 11, 1), (2, 11, 2)]
        P = parse_dataset(gauss_csv)
        restarts = [solve(P, 2, 30, 2, max_iters=20, seed=s) for s in seeds]
        C_star = min(restarts, key=lambda r: r.cost).centers
        build = default_builders(C_star)["ours"]
        stdout = capsys.readouterr().out
        for trial in range(3):
            S = build(P, 30, 2, 2, 150, (2, trial, 0))
            rep = empirical_error(P, S, 30, 2, 2, num_centers=25, seed=(2, trial, 1))
            line = (f"oursnd,{trial},{len(S)},{rep.empirical_error:.17g},"
                    f"{rep.skipped_centers},2")
            assert line in stdout.splitlines()

    def test_deterministic_given_seed(self, gauss_csv, capsys):
        args = ("eval", "--input", gauss_csv, "--builder", "uniform",
                "--m", "30", "--k", "2", "--z", "2", "--size", "100",
                "--trials", "2", "--centers", "20", "--seed", "9")
        assert run_cli(*args) == EXIT_OK
        first = capsys.readouterr().out
        assert run_cli(*args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_entropy_seed_announced_when_flag_absent(self, gauss_csv, capsys):
        code = run_cli("eval", "--input", gauss_csv, "--builder", "uniform",
                       "--m", "30", "--k", "2", "--z", "2", "--size", "100",
                       "--trials", "1", "--centers", "10")
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        seed_line = stdout.splitlines()[0]
        assert seed_line.startswith("seed: ")
        seed = int(seed_line.split(":")[1])
        assert f",{seed}" in stdout, "drawn seed is echoed into the table"


class TestSweepCommand:
    def test_three_builders_five_sizes_ten_trials_is_150_rows(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(300, 2))
        pts[:10] += 50.0
        write_points_csv(str(data), pts, seed=4)
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--input", str(data), "--m", "10", "--k", "1",
                       "--z", "2", "--builder", "oursnd", "--builder", "hjlw23",
                       "--builder", "hllw25", "--sizes", "20,30,40,50,60",
                       "--trials", "10", "--centers", "5", "--seed", "3",
                       "--output", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "builder,size,trial,error,build_time,coreset_rows,seed"
        assert len(lines) == 1 + 150, f"expected 150 data rows, got {len(lines) - 1}"
        summary = json.loads(capsys.readouterr().out.split("\n", 1)[1].rsplit("150 rows", 1)[0])
        assert summary["trials"] == 10
        assert len(summary["mean_error"]) == 15

    def test_rejects_ours1d(self, gauss_csv, tmp_path):
        code = run_cli("sweep", "--input", gauss_csv, "--m", "30",
                       "--builder", "ours1d", "--sizes", "50", "--seed", "0")
        assert code == EXIT_INVALID

    def test_needs_sizes(self, gauss_csv):
        code = run_cli("sweep", "--input", gauss_csv, "--m", "30", "--seed", "0")
        assert code == EXIT_INVALID


class TestBenchCommand:
    def test_reports_every_builder(self, gauss_csv, capsys):
        code = run_cli("bench", "--input", gauss_csv, "--m", "30", "--k", "2",
                       "--z", "2", "--size", "200", "--seed", "6")
        assert code == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l and ":" not in l]
        assert lines[0].startswith("builder,coreset_rows,build_time")
        tags = [line.split(",")[0] for line in lines[1:]]
        assert tags == ["oursnd", "hllw25"]
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[5]) > 0.0 and float(fields[6]) > 0.0


class TestCheckAssumptionsCommand:
    def test_gaussian_defaults_pass(self, gauss_csv, capsys):
        code = run_cli("check-assumptions", "--input", gauss_csv, "--m", "30",
                       "--k", "2", "--z", "2", "--seed", "1")
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "cond1" in stdout and "pass" in stdout

    def test_violation_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_points_csv(str(data),
                         np.random.default_rng(2).normal(size=(200, 2)), seed=0)
        code = run_cli("check-assumptions", "--input", str(data), "--m", "100",
                       "--k", "1", "--z", "2", "--seed", "1")
        assert code == EXIT_ASSUMPTION
        assert "assumption violation" in capsys.readouterr().out


class TestArgumentPlumbing:
    def test_unknown_builder_flag_is_invalid(self, capsys):
        assert run_cli("build", "--builder", "nope") == EXIT_INVALID
        capsys.readouterr()

    def test_unknown_subcommand_is_invalid(self, capsys):
        assert run_cli("frobnicate") == EXIT_INVALID
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == EXIT_OK
        assert "generate" in capsys.readouterr().out

    def test_bad_numeric_flag_is_invalid(self, gauss_csv, capsys):
        assert run_cli("eval", "--input", gauss_csv, "--builder", "uniform",
                       "--m", "-3", "--size", "10", "--seed", "0") == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().out


# The flags each command reads and the first flag it needs, written out
# here apart from cli's own table.
_READS = {
    "generate": "family n m d k eps seed contaminate output",
    "build": "input output m k z eps size builder seed allow-small-n",
    "eval": "input output m k z eps size builder seed allow-small-n trials centers",
    "sweep": "input output m k z sizes builder trials centers seed",
    "bench": "input output m k z size builder seed",
    "check-assumptions": "input m k z seed",
}
_NEEDS = {
    "generate": ("family", "n", "output"),
    "build": ("input", "output"),
    "eval": ("input",),
    "sweep": ("input", "sizes"),
    "bench": ("input", "size"),
    "check-assumptions": ("input",),
}
_VALUES = {"allow-small-n": [], "builder": ["uniform"], "family": ["gauss"],
           "sizes": ["5,6"], "eps": ["0.5"], "contaminate": ["0.1"],
           "input": ["in.csv"], "output": ["out.csv"]}


def _flag(name: str) -> list[str]:
    return [f"--{name}", *_VALUES.get(name, ["3"])]


class TestFlagTable:
    def test_each_command_takes_exactly_its_flags(self, capsys):
        every = set(" ".join(_READS.values()).split())
        assert len(every) == 17
        parser = cli._build_parser()
        accepted = set()
        for command in _READS:
            for name in sorted(every):
                try:
                    parser.parse_args([command, *_flag(name)])
                except SystemExit as exc:
                    assert exc.code == 2
                else:
                    accepted.add((command, name))
        capsys.readouterr()
        want = {(c, name) for c, flags in _READS.items() for name in flags.split()}
        assert accepted == want
        assert len(accepted) == 54

    @pytest.mark.parametrize("command, foreign", [
        ("generate", "input"), ("build", "trials"), ("eval", "sizes"),
        ("sweep", "size"), ("bench", "centers"), ("check-assumptions", "output"),
    ])
    def test_a_flag_the_command_does_not_read_exits_2_before_the_seed(
        self, command, foreign, capsys
    ):
        assert run_cli(command, *_flag(foreign), "--seed", "1") == EXIT_INVALID
        captured = capsys.readouterr()
        assert "seed:" not in captured.out
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("command", list(_READS))
    def test_run_names_the_first_missing_flag(self, command):
        out = io.StringIO()
        assert cli.run(RunConfig(command=command), out) == EXIT_INVALID
        assert out.getvalue() == f"invalid input: {command} needs --{_NEEDS[command][0]}\n"

    @pytest.mark.parametrize("command", list(_READS))
    def test_flags_not_given_take_run_config_defaults(self, command):
        argv = [command]
        for name in _NEEDS[command]:
            argv += _flag(name)
        args = vars(cli._build_parser().parse_args(argv))
        assert set(args) == {"command", *_NEEDS[command]}
        cfg = RunConfig(**args)
        for field in dataclasses.fields(RunConfig):
            if field.name not in args:
                assert getattr(cfg, field.name) == field.default, field.name

    def test_unknown_family_is_invalid_after_the_seed(self, tmp_path, capsys):
        code = run_cli("generate", "--family", "nope", "--n", "10", "--seed", "4",
                       "--output", str(tmp_path / "x.csv"))
        assert code == EXIT_INVALID
        out = capsys.readouterr().out
        assert out.startswith("seed: 4\n") and "unknown family 'nope'" in out
