import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segadapt.cli import main
from segadapt.gradcurves import curve, find_global_min
from segadapt.model import PixelModel, save_model
from segadapt.netpbm import write_csv, write_pgm, write_ppm

from _netpbm import csv_by_rows, read_pgm, read_ppm

TINY = ["--height", "32", "--width", "32", "--source-scenes", "6",
        "--target-scenes", "6", "--pretrain-steps", "25", "--stage1-steps", "30",
        "--stage2-steps", "30", "--eval-every", "0"]


def test_netpbm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.random((3, 5, 7))
    ppm = tmp_path / "x.ppm"
    write_ppm(ppm, image)
    back = read_ppm(ppm)
    assert back.shape == (3, 5, 7)
    assert np.max(np.abs(back / 255.0 - image)) <= 0.5 / 255.0 + 1e-12

    labels = rng.integers(0, 5, size=(4, 6)).astype(np.uint8)
    pgm = tmp_path / "y.pgm"
    write_pgm(pgm, labels)
    assert np.array_equal(read_pgm(pgm), labels)


def test_write_pgm_writes_the_same_bytes_for_int64_and_uint8_labels(tmp_path):
    # gen-data and mix-preview write uint8 label maps; their PGM bytes are those of int64 maps
    labels = np.random.default_rng(1).integers(0, 5, size=(6, 9))
    labels[0, :3] = 255  # IGNORE
    wide, narrow = tmp_path / "wide.pgm", tmp_path / "narrow.pgm"
    write_pgm(wide, labels)
    write_pgm(narrow, labels.astype(np.uint8))
    assert wide.read_bytes() == narrow.read_bytes()


def test_write_csv_formats_each_value_by_its_type(tmp_path):
    # floats (numpy float64 included) print as %.17g, every other value by str(),
    # in list columns and in array columns alike
    nan, inf = float("nan"), float("inf")
    columns = [
        [3, "mean", np.int64(-2), True],
        [0.1, np.float64(2.5), -0.0, 1 / 3],
        [nan, "x", np.float32(0.1), 7],
        np.array([inf, -inf, -0.0, 5e-324]),
        np.array([0.1, 1e-8, -inf, 2.5], dtype=np.float32),
    ]
    path = tmp_path / "mixed.csv"
    write_csv(path, "a,b,c,d,e", columns)
    assert path.read_bytes() == (
        b"a,b,c,d,e\n"
        b"3,0.10000000000000001,nan,inf,0.1\n"
        b"mean,2.5,x,-inf,1e-08\n"
        b"-2,-0,0.1,-0,-inf\n"
        b"True,0.33333333333333331,7,4.9406564584124654e-324,2.5\n")
    write_csv(path, "a,b", [])
    assert path.read_bytes() == b"a,b\n"
    # columns longer than the writer's block of rows give the row-by-row rule's bytes
    n = 2500
    long = ([list(range(n))] + [[col[i % 4] for i in range(n)] for col in columns[1:3]]
            + [np.resize(col, n) for col in columns[3:]])
    write_csv(path, "i,b,c,d,e", long)
    assert path.read_bytes() == csv_by_rows("i,b,c,d,e", zip(*long))
    with pytest.raises(ValueError, match="columns differ in length"):
        write_csv(path, "a,b", [[1, 2], [1.0]])
    # text cells sit in the block's %-template with their % doubled, next to %.17g fields
    # filled from float64 array columns; the header is written verbatim
    text = ["50%", "%s", "%%", "%(x)s", "%.17g", 0.5, "plain"]
    grad = np.array([0.1, -0.0, float("nan"), 5e-324, 1e300, -2.5, 1 / 3])
    header = "kind %,p,%s,%(x)s"
    path = tmp_path / "percent.csv"
    columns = [text, grad, np.arange(7, dtype=np.float32), grad[::-1]]
    write_csv(path, header, columns)
    assert path.read_bytes() == csv_by_rows(header, zip(*columns))
    assert path.read_text().splitlines()[:3] == [
        "kind %,p,%s,%(x)s", "50%,0.10000000000000001,0.0,0.33333333333333331",
        "%s,-0,1.0,-2.5"]
    # longer than one block of rows, text cells first, between and after array columns
    n = 2500
    long = [[text[i % 7] for i in range(n)], np.resize(grad, n),
            [text[(i + 3) % 7] for i in range(n)], np.linspace(-1.0, 1.0, n),
            [f"{i}%" for i in range(n)]]
    write_csv(path, header + ",r%", long)
    assert path.read_bytes() == csv_by_rows(header + ",r%", zip(*long))


def test_write_csv_rejects_an_array_column_that_is_not_1d(tmp_path):
    path = tmp_path / "bad.csv"
    for i, bad in [(1, np.zeros((2, 2))), (0, np.zeros((2, 1), dtype=np.float32)),
                   (1, np.zeros((1, 2, 2), dtype=np.int64))]:
        columns = [[1, 2], [1.0, 2.0]]
        columns[i] = bad
        shape = re.escape(str(bad.shape))
        with pytest.raises(ValueError, match=f"^column {i} must be 1-D, got shape {shape}$"):
            write_csv(path, "a,b", columns)
    with pytest.raises(ValueError, match=r"^column 0 must be 1-D, got shape \(\)$"):
        write_csv(path, "a", [np.ones(())])


# the float64 values where formatting is most likely to go wrong
EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
               2.2250738585072009e-308, 1e300, -1e300, 0.1, 1 / 3]
PERCENT_TEXT = ["%", "%s", "%(x)s", "%.17g", "%%", "50%", "a,b"]
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
CELLS = st.one_of(
    st.integers(), st.booleans(), ANY_FLOAT | st.sampled_from(EDGE_FLOATS),
    ANY_FLOAT.map(np.float64), st.floats(width=32).map(np.float32),
    st.sampled_from(PERCENT_TEXT), st.text(alphabet="%s(x).17g ,ab", max_size=8))
COLUMNS = st.one_of(
    st.tuples(st.just("float64"), st.lists(ANY_FLOAT | st.sampled_from(EDGE_FLOATS),
                                           min_size=1, max_size=12)),
    st.tuples(st.just("float32"), st.lists(st.floats(width=32), min_size=1, max_size=12)),
    st.tuples(st.just("list"), st.lists(CELLS, min_size=1, max_size=12)))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([0, 1, 1023, 1024, 1025, 2049]),
       pools=st.lists(COLUMNS, max_size=4), seed=st.integers(0, 2**32 - 1),
       header=st.sampled_from(["h", "a,%s,%(x)s", "%.17g,b%"]))
def test_write_csv_writes_the_bytes_of_the_row_by_row_rule(tmp_path_factory, n, pools, seed,
                                                           header):
    # each column repeats a drawn pool of values in a random order, so long columns are cheap
    rng = np.random.default_rng(seed)
    columns = []
    for kind, pool in pools:
        picks = rng.integers(len(pool), size=n)
        if kind == "list":
            columns.append([pool[i] for i in picks])
        else:
            columns.append(np.array(pool, dtype=kind)[picks])
    path = tmp_path_factory.mktemp("csv") / "drawn.csv"
    write_csv(path, header, columns)
    rows = zip(*columns) if columns else []
    assert path.read_bytes() == csv_by_rows(header, rows)


@pytest.mark.parametrize("command", ["eval", "mix-preview"])
def test_a_saved_model_with_another_class_count_fails_naming_num_classes(tmp_path, command):
    flags = {"eval": [], "mix-preview": ["--out", str(tmp_path / "preview")]}[command]
    for saved, config in [(3, []), (5, ["--num-classes", "3", "--rare-class", "2"])]:
        path = tmp_path / f"model_{saved}.npz"
        save_model(path, PixelModel(saved, hidden=4, rng=np.random.default_rng(0)))
        configured = 5 if not config else 3
        with pytest.raises(ValueError, match=f"num_classes differs: .* has {saved} classes, "
                                             f"the config has num_classes = {configured}$"):
            main([command, "--model", str(path), *flags, *config, *TINY])
    assert not (tmp_path / "preview").exists()


def test_gen_data_writes_scene_files(tmp_path):
    out = tmp_path / "scenes"
    # argparse keeps a flag's last value, so these counts beat TINY's
    rc = main(["gen-data", "--out", str(out), *TINY, "--source-scenes", "2",
               "--target-scenes", "2"])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["source_0000.ppm", "source_0000_labels.pgm",
                     "source_0001.ppm", "source_0001_labels.pgm",
                     "target_0000.ppm", "target_0000_labels.pgm",
                     "target_0001.ppm", "target_0001_labels.pgm"]
    labels = read_pgm(out / "source_0000_labels.pgm")
    assert labels.shape == (32, 32)
    assert labels.max() < 5


@pytest.mark.parametrize("flags, field", [
    (["--cell", "4"], "cell"),
    (["--source-scenes", "0"], "source_scenes"),
], ids=["cell_4", "count_0"])
def test_gen_data_rejects_a_bad_config_before_writing(tmp_path, flags, field):
    out = tmp_path / "scenes"
    with pytest.raises(ValueError, match=f"^{field} must"):
        main(["gen-data", "--out", str(out), *flags])
    assert not out.exists()


def test_gen_data_refuses_count_with_a_usage_error_before_writing(tmp_path, capsys):
    # each scene count has one setter: --source-scenes and --target-scenes
    out = tmp_path / "scenes"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--out", str(out), "--count", "2", *TINY])
    assert exc.value.code == 2
    assert "unrecognized arguments: --count 2" in capsys.readouterr().err
    assert not out.exists()


def test_consecutive_main_calls_share_no_state_through_the_parser(tmp_path, capsys):
    # the parser is built once per process; a call's flags and a failed parse do not
    # carry over into the next call
    first, last = tmp_path / "focal.csv", tmp_path / "all.csv"
    assert main(["gradcurves", "--kind", "focal", "--gamma", "4", "--grid", "101",
                 "--out", str(first)]) == 0
    with pytest.raises(SystemExit):
        main(["gradcurves", "--kind", "bogus", "--out", str(tmp_path / "bad.csv")])
    capsys.readouterr()
    assert main(["gradcurves", "--grid", "101", "--out", str(last)]) == 0
    printed = capsys.readouterr().out
    with open(last) as fh:
        kinds = [row["loss_kind"] for row in csv.DictReader(fh)]
    assert kinds == [k for k in ("shannon", "maxsquare", "focal") for _ in range(101)]
    defaults = [f"{c.kind}: global minimum at p = {find_global_min(c):.4f}"
                for c in (curve(k, grid=101) for k in ("shannon", "maxsquare", "focal"))]
    assert [line.split(" (")[0] for line in printed.splitlines()[:3]] == defaults
    assert not (tmp_path / "bad.csv").exists()


def test_gradcurves_rejects_an_infinite_gamma_naming_it(tmp_path):
    out = tmp_path / "curves.csv"
    with pytest.raises(ValueError, match="^gamma must"):
        main(["gradcurves", "--gamma", "inf", "--out", str(out)])
    assert not out.exists()


def test_gradcurves_subcommand(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    rc = main(["gradcurves", "--kind", "all", "--p-hat", "0.6", "--gamma", "2",
               "--grid", "101", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 101
    printed = capsys.readouterr().out
    assert "shannon: global minimum" in printed
    assert "focal: global minimum" in printed
    assert "0.67" in printed  # reference value reported next to the computed one


def test_mix_preview_outputs(tmp_path):
    out = tmp_path / "preview"
    rc = main(["mix-preview", "--out", str(out), *TINY])
    assert rc == 0
    weights = read_pgm(out / "mix_weights.pgm")
    assert set(np.unique(weights)).issubset({1, 2})
    labels = read_pgm(out / "mix_labels.pgm")
    assert labels.max() < 5
    image = read_ppm(out / "mix_image.ppm")
    assert image.shape == (3, 32, 32)


def test_training_cli_end_to_end(tmp_path, capsys):
    run_dir = tmp_path / "run"
    rc = main(["train", "--out", str(run_dir), *TINY])
    assert rc == 0
    for name in ("baseline_model.npz", "stage1_model.npz", "stage2_model.npz",
                 "baseline_ious.csv", "stage1_metrics.csv", "stage1_thresholds.csv",
                 "stage1_ious.csv", "stage2_metrics.csv", "stage2_thresholds.csv",
                 "stage2_ious.csv", "config.txt"):
        assert (run_dir / name).exists()
    with open(run_dir / "stage1_metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert set(rows[0]) == {"step", "L_s", "L_u", "L_m", "total"}
    printed = capsys.readouterr().out
    for stage in ("source-only", "stage-one", "stage-two"):
        assert f"{stage} target mIoU:" in printed

    # the run directory reproduces its own evaluation: each saved model, under the saved
    # config, rewrites its phase's target IoU file byte for byte
    for phase in ("baseline", "stage1", "stage2"):
        ious = tmp_path / f"{phase}_ious.csv"
        rc = main(["eval", "--config", str(run_dir / "config.txt"),
                   "--model", str(run_dir / f"{phase}_model.npz"), "--out", str(ious)])
        assert rc == 0
        assert "mIoU:" in capsys.readouterr().out
        assert ious.read_bytes() == (run_dir / f"{phase}_ious.csv").read_bytes(), phase


def test_cli_flag_overrides_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("height = 32\nwidth = 32\nsource_scenes = 3\n"
                        "target_scenes = 3\nseed = 5\n")
    out = tmp_path / "gen"
    rc = main(["gen-data", "--config", str(cfg_file), "--out", str(out),
               "--seed", "7", "--domain", "source"])
    assert rc == 0
    # the seed=7 flag beats seed=5 from the file: regenerate both ways
    alt = tmp_path / "gen7"
    main(["gen-data", "--out", str(alt), "--seed", "7",
          "--domain", "source", "--height", "32", "--width", "32",
          "--source-scenes", "3", "--target-scenes", "3"])
    a = (out / "source_0000.ppm").read_bytes()
    b = (alt / "source_0000.ppm").read_bytes()
    assert a == b


def test_unknown_config_key_fails_cleanly(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(KeyError):
        main(["gen-data", "--config", str(cfg_file), "--out", str(tmp_path / "x")])


def test_malformed_flag_value_fails_naming_the_field(tmp_path):
    out = tmp_path / "x"
    with pytest.raises(ValueError, match="^gamma must be a number, got 'two'$"):
        main(["gen-data", "--out", str(out), "--gamma", "two"])
    assert not out.exists()
